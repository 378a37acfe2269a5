"""Local virtual element operators and global sparse assembly.

The lowest-order harmonic virtual space on a polygon carries one dof per
vertex.  Everything is computed from boundary data alone: the gradient G
of the energy projection onto affine functions comes from the divergence
theorem (trapezoid averages of the dofs against |e| n_e, over |K|); the
projection P w = mean(w) + (G w) . (x - x_bnd) keeps the boundary mean;
the stabilization S_K = sum_e w_e d_e d_e^T with w_e = h_K^alpha / |e|
weights the exact tangential edge derivatives (d_e the signed incidence
vector of edge e); A_K = |K| G^T G + (I - P)^T S_K (I - P) (Mora, Rivera &
Rodriguez, M3AS 25, 2015).  No volume quadrature appears, which is what
makes the operators insensitive to arbitrarily small edges.

Assembly never forms P.  Since 1^T d_e = 0, (I - P)^T d_e = d_e - G^T t_e
with t_e the edge vector, so

    A_K = |K| G^T G + sum_e w_e q_e q_e^T,   q_e = d_e - G^T t_e,
        = G^T M G - c^T G - G^T c + S_K,

with the 2 x 2 matrix M = |K| I + sum_e w_e t_e t_e^T and the 2 x n matrix c
whose column i is w_{i-1} t_{i-1} - w_i t_i.  The cells are grouped by vertex
count, and one kernel per group (:func:`_stiffness`) reads the x/y planes of
the group's edge vectors, each a ``(C, n)`` array, and writes A_K as
G^T h + h^T G with h = M G / 2 - c, two rank-2 outer products, plus the
cyclic tridiagonal S_K: no ``(C, n, n)`` P, I - P or S_K and no batched
matrix product.  All stiffness and all gamma0 edge-mass entries go to CSR once
each, with int32 indices.

:func:`assemble_global` returns A, B and the shift sigma = 1 / |gamma0| of
the definite matrix Ahat = A + sigma B that the eigensolver factors; Ahat
itself is not stored, and :attr:`GlobalSystem.Ahat` builds it on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sps

from .errors import DegenerateElement, ZeroLengthEdge
from .mesh import (VANISHING_AREA_REL_TOL, PolygonalMesh, _diameter, _edge_arrays,
                   raise_first_fault)


@dataclass(frozen=True)
class StabilizationSpec:
    """Exponent alpha of the h_K^alpha stabilization scaling."""

    alpha: float = 1.0

    def __post_init__(self):
        if not 0.25 <= self.alpha <= 2.0:
            raise ValueError(f"alpha = {self.alpha} outside [0.25, 2]")


@dataclass
class GlobalSystem:
    """Assembled matrices of the discrete eigenproblem A u = lambda B u.

    The solver factors Ahat = A + shift B, symmetric positive definite,
    with shift sigma = 1 / |gamma0| = 1 / (1' B 1), a reciprocal length like
    lambda: on a mesh scaled by s, A is unchanged and B, 1 / sigma and
    1 / lambda scale by s, so the shifted spectrum mu = 1 / (sigma + lambda)
    and with it the Lanczos iteration count do not depend on the length
    unit.  Only A and B are stored; :attr:`Ahat` builds A + shift B on each
    access, and the Lanczos path of the solver factors that matrix.  A
    holds no exact zeros, so A and Ahat store the same couplings.  The
    shift is stored rather than re-derived from B in the solver: scaling A
    and B by one factor c is the same eigenproblem, and the stored shift
    scales Ahat by exactly c, while 1 / (1' B 1) would shrink by c against
    A (with c = 2^20 on t5 N=8 the largest backward error rose from 1.7e-17
    to 2.8e-13 and lambda moved by 1.1e-13).

    ``dof_order`` lists the dofs sorted by vertex (y, x), a row-major sweep;
    the solver factors Ahat renumbered in that order.  Minimum degree breaks
    ties by the numbering it is handed, so without it a mesh numbered at
    random by an outside mesher paid for its numbering (t5 N=30 renumbered
    at random: 95.8-98.0 thousand nonzeros in L against 79.4 thousand in
    the generator's numbering, and twice the LU time).  In this order every
    numbering of one mesh gives the LU the same matrix.  The sweep is not
    neutral on every mesh: on t4 its fill is 1.3-2.1 times that of the
    generator's patch-by-patch numbering at N = 16-100.  A, B and
    gamma0_dofs stay in vertex numbering.
    """

    A: sps.csr_matrix       # stiffness, A @ 1 = 0
    B: sps.csr_matrix       # gamma0 boundary mass
    shift: float            # sigma = 1 / |gamma0|, set by assemble_global
    n_dofs: int
    gamma0_dofs: np.ndarray
    dof_order: np.ndarray   # dofs by vertex (y, x), set by assemble_global

    @property
    def Ahat(self) -> sps.csr_matrix:
        """A + shift B, symmetric positive definite, in canonical CSR; a new
        matrix per access.  The Lanczos path's LU factors it in the dof order,
        and the Schur path writes the same values with its gamma0 clique."""
        return (self.A + self.shift * self.B).tocsr()


def _element_faults(area, diameter, shortest_edge) -> list:
    """Cells the operators cannot handle, for :func:`raise_first_fault`;
    a vanishing area goes first."""
    area = np.ravel(area)
    return [(area <= VANISHING_AREA_REL_TOL * np.ravel(diameter) ** 2,
             lambda c: DegenerateElement(f"element area {area[c]} vanishes")),
            (np.ravel(shortest_edge) <= 0.0, lambda c: ZeroLengthEdge(
                "stabilization needs strictly positive edge lengths"))]


def _cell_planes(mesh: PolygonalMesh, alpha: float) -> list[tuple]:
    """``(cycles, |K|, tx, ty, w)`` per vertex-count group, ascending: the
    ``(C, n)`` vertex cycles, the areas, the x/y planes of the edge vectors and
    the edge weights w_e = h_K^alpha / |e|; cells checked in cell order."""
    stats, groups = np.empty((3, mesh.n_cells)), []
    for ids, cycles, x, y in mesh.grouped_planes():
        tx, ty, lengths, *_, cross = _edge_arrays(x, y)
        area, diameter = 0.5 * np.sum(cross, axis=-1), _diameter(x, y)
        stats[:, ids] = area, diameter, lengths.min(axis=-1)
        groups.append((cycles, area, tx, ty, lengths, diameter))
    raise_first_fault(_element_faults(*stats))
    return [(cycles, area, tx, ty, (diameter ** alpha)[:, None] / lengths)
            for cycles, area, tx, ty, lengths, diameter in groups]


def _gradient(area, tx, ty):
    """The rows gx, gy of G: column i is (t_{i-1} + t_i) rotated clockwise,
    over 2 |K|, the flux of the trapezoid trace through the two edges at i."""
    s = 0.5 / area[:, None]
    return s * (ty + np.roll(ty, 1, axis=1)), -s * (tx + np.roll(tx, 1, axis=1))


def _stiffness(area, tx, ty, w, out: np.ndarray) -> None:
    """Write A_K = G^T h + h^T G + S_K of a group of same-size cells into
    ``out`` (C, n, n), with h = M G / 2 - c (module docstring).  Each entry
    is X_ij + X_ji for X = G^T h, so A_K is exactly symmetric."""
    gx, gy = _gradient(area, tx, ty)
    wx, wy = w * tx, w * ty
    mxx = area + np.sum(wx * tx, axis=1)
    mxy = np.sum(wx * ty, axis=1)
    myy = area + np.sum(wy * ty, axis=1)
    hx = 0.5 * (mxx[:, None] * gx + mxy[:, None] * gy) + wx - np.roll(wx, 1, axis=1)
    hy = 0.5 * (mxy[:, None] * gx + myy[:, None] * gy) + wy - np.roll(wy, 1, axis=1)
    tmp = gy[:, :, None] * hy[:, None, :]
    np.multiply(gx[:, :, None], hx[:, None, :], out=out)
    out += tmp
    np.copyto(tmp, out.transpose(0, 2, 1))
    out += tmp
    n = tx.shape[1]
    flat = out.reshape(len(out), n * n)       # entry (i, j) at i * n + j
    flat[:, ::n + 1] += w + np.roll(w, 1, axis=1)    # (i, i)
    flat[:, 1::n + 1] -= w[:, :-1]                   # (i, i + 1)
    flat[:, n::n + 1] -= w[:, :-1]                   # (i + 1, i)
    flat[:, [n - 1, n * (n - 1)]] -= w[:, -1:]       # (0, n - 1), (n - 1, 0)


def boundary_mass_edge(length) -> np.ndarray:
    """Exact mass matrix of linear traces on a boundary edge (or a stack of them)."""
    length = np.asarray(length, dtype=float)
    if np.any(length <= 0.0):
        raise ZeroLengthEdge(f"edge length {np.min(length)} must be positive")
    return (length / 6.0)[..., None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])


def triple_norm(mesh: PolygonalMesh, dofs: np.ndarray,
                spec: StabilizationSpec = StabilizationSpec()) -> float:
    """Discrete energy semi-norm: projected gradient plus stabilized
    deviation from the boundary mean (the mean, not the projection).  As
    d_e^T 1 = 0, the stabilization of the deviation is
    sum_e w_e (u_{e+1} - u_e)^2."""
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (mesh.n_vertices,):
        raise ValueError("dof vector length must equal the vertex count")
    total = 0.0
    for cycles, area, tx, ty, w in _cell_planes(mesh, spec.alpha):
        u = dofs[cycles]
        gx, gy = _gradient(area, tx, ty)
        du_x, du_y = np.sum(gx * u, axis=1), np.sum(gy * u, axis=1)
        jump = np.roll(u, -1, axis=1) - u
        total += float(area @ (du_x * du_x + du_y * du_y) + np.sum(w * jump * jump))
    return float(np.sqrt(total))


def _scatter(parts: list[tuple], n: int) -> sps.csr_matrix:
    """Sum local ``(C, k, k)`` blocks at their ``(C, k)`` dof ids into one
    n x n CSR matrix.  ``parts`` lists ``(ids, fill)``; ``fill(out)`` writes
    the blocks into ``out``, a view of the one value array, so no block is
    copied.  The COO indices are int32."""
    total = sum(d.shape[0] * d.shape[1] ** 2 for d, _ in parts)
    rows, cols = np.empty(total, dtype=np.int32), np.empty(total, dtype=np.int32)
    vals = np.empty(total)
    start = 0
    for d, fill in parts:
        c, k = d.shape
        part = slice(start, start + c * k * k)
        rows[part].reshape(c, k, k)[...] = d[:, :, None]
        cols[part].reshape(c, k, k)[...] = d[:, None, :]
        fill(vals[part].reshape(c, k, k))
        start = part.stop
    return sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_global(mesh: PolygonalMesh,
                    spec: StabilizationSpec = StabilizationSpec()) -> GlobalSystem:
    """Scatter local stiffness over cells and edge mass over gamma0 edges,
    and set the shift to 1 / |gamma0|, the correctly rounded sum of the
    gamma0 edge lengths (independent of their order), and the dof order
    by vertex (y, x) in which the solver factors Ahat.

    A stores no exact zeros: a coupling whose two cell contributions cancel
    to 0.0 (a few on t3-t5 at some N, 4 at t5 N=30) is dropped, so A and
    Ahat store the same couplings.  a + b = b + a exactly, so the pattern
    does not depend on the order of the cells."""
    n = mesh.n_vertices
    A = _scatter([(cycles, partial(_stiffness, *planes))
                  for cycles, *planes in _cell_planes(mesh, spec.alpha)], n)
    A.eliminate_zeros()
    edges = np.array(mesh.gamma0_edges(), dtype=int).reshape(-1, 2)
    dx, dy = (mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]).T
    lengths = np.sqrt(dx * dx + dy * dy)
    B = _scatter([(edges, partial(np.copyto, src=boundary_mass_edge(lengths)))], n)
    return GlobalSystem(A=A, B=B, shift=1.0 / math.fsum(lengths), n_dofs=n,
                        gamma0_dofs=mesh.gamma0_vertices(),
                        dof_order=np.lexsort(mesh.vertices.T))  # by y, then x


def export_coo(matrix: sps.spmatrix, path) -> None:
    """Dump a sparse matrix as 'row col value' text lines."""
    coo = matrix.tocoo()
    # Python scalars from tolist(), as in vtkio.write_vtk: same text, less time
    with open(path, "w") as fh:
        fh.writelines(f"{r} {c} {v:.17g}\n" for r, c, v in
                      zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
