"""Local virtual element operators and global sparse assembly.

The lowest-order harmonic virtual space on a polygon carries one dof per
vertex.  Everything is computed from boundary data alone: the gradient G
of the energy projection onto affine functions comes from the divergence
theorem (trapezoid averages of the dofs against |e| n_e, over |K|); the
projection P w = mean(w) + (G w) . (x - x_bnd) keeps the boundary mean;
the stabilization S = h_K^alpha sum_e d_e d_e^T / |e| weights the exact
tangential edge derivatives (d_e the signed incidence vector of edge e);
A_K = |K| G^T G + (I - P)^T S (I - P).  No volume quadrature appears, which
is what makes the operators insensitive to arbitrarily small edges.

Every local matrix is thus a closed-form function of the vertex
coordinates.  Assembly groups the cells by vertex count, computes each
group's geometry and operators as one batch of ``(C, n, ...)`` arrays and
converts all stiffness and all gamma0 edge-mass entries to CSR once each.
The single-cell functions run the same kernel without the batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .errors import DegenerateElement, ZeroLengthEdge
from .mesh import ElementGeometry, PolygonalMesh


@dataclass(frozen=True)
class StabilizationSpec:
    """Exponent alpha of the h_K^alpha stabilization scaling."""

    alpha: float = 1.0

    def __post_init__(self):
        if not 0.25 <= self.alpha <= 2.0:
            raise ValueError(f"alpha = {self.alpha} outside [0.25, 2]")


@dataclass(frozen=True)
class LocalOperators:
    """Projector, stabilization and stiffness of one element (or a batch)."""

    G: np.ndarray          # (2, n): dofs -> constant gradient of the projection
    mean_row: np.ndarray   # (n,):   dofs -> boundary mean value
    P: np.ndarray          # (n, n): dofs -> vertex values of the projection
    A_K: np.ndarray        # (n, n): local stiffness
    S_K: np.ndarray        # (n, n): stabilization matrix


@dataclass
class GlobalSystem:
    """Assembled matrices of the discrete eigenproblem."""

    A: sps.csr_matrix       # stiffness, A @ 1 = 0
    B: sps.csr_matrix       # gamma0 boundary mass
    Ahat: sps.csr_matrix    # A + B, symmetric positive definite
    n_dofs: int
    gamma0_dofs: np.ndarray


def _check_elements(area, diameter, shortest_edge) -> None:
    """Raise for the first offending cell; a vanishing area goes first."""
    area, diameter, shortest_edge = map(np.ravel, (area, diameter, shortest_edge))
    degenerate = area <= 1e-14 * diameter ** 2
    bad = np.flatnonzero(degenerate | (shortest_edge <= 0.0))
    if bad.size and degenerate[bad[0]]:
        raise DegenerateElement(f"element area {area[bad[0]]} vanishes")
    if bad.size:
        raise ZeroLengthEdge("stabilization needs strictly positive edge lengths")


def _operators(geom: ElementGeometry, alpha: float) -> LocalOperators:
    """Local operators of one cell, or of a batch of same-size cells (leading
    axes).  Edge e joins vertices e and e + 1: a vertex sums an edge array and its shift."""
    n = geom.n_vertices
    half = 0.5 * geom.edge_lengths
    flux = half[..., None] * geom.edge_normals
    G = np.swapaxes(flux + np.roll(flux, 1, axis=-2), -1, -2) / geom.area[..., None, None]
    mean_row = (half + np.roll(half, 1, axis=-1)) / geom.boundary_length[..., None]
    P = mean_row[..., None, :] + (geom.coords - geom.boundary_centroid[..., None, :]) @ G

    inv = 1.0 / geom.edge_lengths
    i, j = np.arange(n), np.roll(np.arange(n), -1)
    S = np.zeros(inv.shape + (n,))
    S[..., i, i] = inv + np.roll(inv, 1, axis=-1)
    S[..., i, j] = S[..., j, i] = -inv
    S *= (geom.diameter ** alpha)[..., None, None]

    Q = np.eye(n) - P
    A_K = (geom.area[..., None, None] * (np.swapaxes(G, -1, -2) @ G)
           + np.swapaxes(Q, -1, -2) @ S @ Q)
    A_K = 0.5 * (A_K + np.swapaxes(A_K, -1, -2))
    return LocalOperators(G=G, mean_row=mean_row, P=P, A_K=A_K, S_K=S)


def _grouped_operators(mesh: PolygonalMesh, spec: StabilizationSpec):
    """``(geometry, operators)`` per vertex-count group; cells checked in cell order."""
    groups = mesh.grouped_geometry()
    stats = np.empty((3, mesh.n_cells))
    for cells, geom in groups:
        stats[:, cells] = geom.area, geom.diameter, geom.edge_lengths.min(axis=-1)
    _check_elements(*stats)
    return [(geom, _operators(geom, spec.alpha)) for _, geom in groups]


def local_operators(geom: ElementGeometry,
                    spec: StabilizationSpec = StabilizationSpec()) -> LocalOperators:
    """Full set of local matrices: consistency plus stabilized remainder."""
    _check_elements(geom.area, geom.diameter, geom.edge_lengths.min(axis=-1))
    return _operators(geom, spec.alpha)


def local_projector(geom: ElementGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy projection onto affine functions as ``(G, mean_row, P)``."""
    ops = local_operators(geom)
    return ops.G, ops.mean_row, ops.P


def stability_matrix(geom: ElementGeometry, spec: StabilizationSpec) -> np.ndarray:
    return local_operators(geom, spec).S_K


def local_stiffness(geom: ElementGeometry,
                    spec: StabilizationSpec = StabilizationSpec()) -> np.ndarray:
    return local_operators(geom, spec).A_K


def boundary_mass_edge(length) -> np.ndarray:
    """Exact mass matrix of linear traces on a boundary edge (or a stack of them)."""
    length = np.asarray(length, dtype=float)
    if np.any(length <= 0.0):
        raise ZeroLengthEdge(f"edge length {np.min(length)} must be positive")
    return (length / 6.0)[..., None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])


def triple_norm(mesh: PolygonalMesh, dofs: np.ndarray,
                spec: StabilizationSpec = StabilizationSpec()) -> float:
    """Discrete energy semi-norm: projected gradient plus stabilized
    deviation from the boundary mean (the mean, not the projection)."""
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (mesh.n_vertices,):
        raise ValueError("dof vector length must equal the vertex count")
    total = 0.0
    for geom, ops in _grouped_operators(mesh, spec):
        w = dofs[geom.vertex_ids]
        grad = np.einsum("cdn,cn->cd", ops.G, w)
        dev = w - np.einsum("cn,cn->c", ops.mean_row, w)[:, None]
        total += float(geom.area @ np.sum(grad * grad, axis=1)
                       + np.einsum("ci,cij,cj->", dev, ops.S_K, dev))
    return float(np.sqrt(total))


def _scatter(ids: list[np.ndarray], blocks: list[np.ndarray], n: int) -> sps.csr_matrix:
    """Sum (C, k, k) local blocks at their (C, k) dof ids into one n x n matrix."""
    rows = np.concatenate([np.repeat(d, d.shape[1], axis=1).ravel() for d in ids])
    cols = np.concatenate([np.tile(d, d.shape[1]).ravel() for d in ids])
    vals = np.concatenate([b.ravel() for b in blocks])
    return sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_global(mesh: PolygonalMesh,
                    spec: StabilizationSpec = StabilizationSpec()) -> GlobalSystem:
    """Scatter local stiffness over cells and edge mass over gamma0 edges."""
    n = mesh.n_vertices
    groups = _grouped_operators(mesh, spec)
    A = _scatter([geom.vertex_ids for geom, _ in groups], [ops.A_K for _, ops in groups], n)
    edges = np.array(mesh.gamma0_edges(), dtype=int).reshape(-1, 2)
    lengths = np.linalg.norm(np.diff(mesh.vertices[edges], axis=1)[:, 0], axis=1)
    B = _scatter([edges], [boundary_mass_edge(lengths)], n)
    return GlobalSystem(A=A, B=B, Ahat=(A + B).tocsr(), n_dofs=n,
                        gamma0_dofs=mesh.gamma0_vertices())


def export_coo(matrix: sps.spmatrix, path) -> None:
    """Dump a sparse matrix as 'row col value' text lines."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
