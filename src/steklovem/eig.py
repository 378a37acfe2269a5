"""Generalized eigensolver for the discrete Steklov problem.

A u = lambda B u is shifted to B u = mu Ahat u with Ahat = A + sigma B
symmetric positive definite, sigma = 1 / |gamma0| the shift that
:func:`~steklovem.vem.assemble_global` stores with A and B, so
mu = 1 / (sigma + lambda) lies in (0, 1 / sigma] and the first k positive
lambdas are the k + 1 largest mu (the constant mode has mu = 1 / sigma).
As sigma is a reciprocal length like lambda, scaling the mesh scales every
mu alike and leaves the Lanczos iteration count unchanged.  Ahat is not
stored: the Lanczos path gathers ``system.Ahat`` in the dof order
(:func:`_shifted`) and the Schur path writes it with a gamma0 clique
(:func:`_with_gamma0_clique`), only as the input of the LU, and it dies
when the factorization returns.  A stores no explicit zeros (assembly
drops couplings that cancel exactly), so both inputs carry Ahat's own
nonzero couplings.  B lives on the m gamma0 dofs g,
B = E_g B_gg E_g' with E_g the scatter of a gamma0 vector into all n
dofs, and B_gg = F'F with F the sparse p x m factor read off its entries
(:func:`_gamma0_factor`: one row per coupled pair of dofs and one per
dof, p = E + m).  So the nonzero mu are the eigenvalues of the p x p
operator

    K = F (Ahat^{-1})_gg F',

of rank m, (Ahat^{-1})_gg being the inverse of the Schur complement of
Ahat onto gamma0 (the discrete Dirichlet-to-Neumann map), and an
eigenvector w of K lifts to u = Ahat^{-1} E_g F' w (:func:`_lift`), the
harmonic extension of its gamma0 values (Ahat^{-1})_gg F' w.
One LU of Ahat reaches them.  SuperLU's minimum-degree ordering
breaks ties by the numbering it is handed, so the LU factors P Ahat P',
P the dof order ``GlobalSystem.dof_order`` by vertex (y, x), and g is
taken in that order too: every numbering of one mesh then gives the same
ordering, fill, q, reach and Lanczos steps.  On t5 N=30 renumbered at
random the reach went from 1,720-1,763 dofs to 1,581 (1,544 in the
generator's numbering; 1,571 once A dropped its 4 exactly cancelled
couplings), and the LU from 16-17 to 8-10 ms (one BLAS thread, 2-vCPU
host).  P is applied while Ahat is written, and the lift
maps the solution back, so A, B and the returned vectors keep the vertex
numbering.  With diagonal pivots P Ahat P' = L D L' (U = D L',
D = diag(U)).  Two paths, chosen from n, m and k before factoring, find
the k + 1 largest mu of K; they differ only in how they apply
(Ahat^{-1})_gg, and share the lift:

- Schur read-off.  When gamma0 is short (m^2 <= 2 n: one side of the
  square, m ~ sqrt(n)) or k + 2 >= m, SuperLU gets Ahat with explicit
  zeros filling its gamma0 block, written by one COO conversion of A,
  sigma B and the m^2 zeros at their positions.  (The Lanczos input keeps
  the row gather of :func:`_shifted`: its conversion to CSC is a
  transposition that leaves every column sorted, where a COO conversion
  sorts each column, about three times as long on ``sweep-t5``'s mesh.)
  The clique makes the one minimum-degree ordering put gamma0 in the
  trailing q dofs, and when q <= 3 m, (Ahat^{-1})_gg = V'V = T'T is
  formed densely by one triangular solve with the trailing q x q block of
  L and a thin QR (:func:`_read_off`).  With Y = F T', K = Y Y' has the
  nonzero eigenvalues of the m x m Gram matrix Y'Y, whose k + 1 largest
  eigenpairs z come from eigh, and w = Y z; the lift takes
  T^{-1} z = F'w / mu.  The lift is the only solve with the LU.
- Lanczos.  Otherwise, and when the clique leaves a longer trailing block
  (a few gamma0 edges), implicitly restarted Lanczos (ARPACK, standard
  mode) iterates on K with length-p vectors.  Iterating on the largest mu
  never touches the near-zero mu that tiny gamma0 edges produce at the
  other end, nor the p - m zero ones.  A step reads (Ahat^{-1})_gg only,
  so it runs two triangular solves with L_RR, R the gamma0 positions of
  the LU and their elimination-tree ancestors (:func:`_reach_solver`),
  not a solve on all n dofs.  As p >= m + 1 > k + 1, ARPACK has room for
  every k the rank of B allows.

SuperLU factors in single-column panels: its default panels serve
supernodal partial pivoting, but here every pivot is diagonal and the
supernodes of these 2-D meshes are small, so wider panels only add a
dense n x panel work area (the ordering and the fill do not depend on the
width).  ``EigenResult.fill`` is nnz(L) + nnz(U), read off the L and U
copies that the pivot check caches.  The LU, those copies and the factor
of L_RR die before the eigenvectors are packed.  The constant mode is
dropped by its B-overlap with the constants; everything else is returned
ascending in lambda, each lambda being the Rayleigh quotient of its
returned vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import (FactorizationOutOfMemory, InvalidN, KTooLarge, NotSPD,
                     RankDeficientGamma0Mass, SolverError)
from .vem import GlobalSystem

_CONSTANT_OVERLAP = 0.99
_BACKWARD_ERROR_BOUND = 1e-10
# A mesh factors Ahat with its gamma0 block made a clique when m^2 <= 2 n.
# The read-off (then a condensation of L22 U22) took 0.50-0.64 of the Lanczos
# time on t2 with gamma0 on one side (m^2/n = 0.5), 0.59-0.92 on two (2.0),
# 0.80-0.91 on three (4.5) and 0.94-1.12 on four (7.9), N = 32, 64, 128, and
# 1.21 times it on t5 N=130 (12.3), medians of 3-5 solves on a 2-vCPU host:
# past two sides the gain is within run-to-run noise.
_SCHUR_MAX_M2_PER_N = 2
# The clique puts one contiguous gamma0 side last (q = 1.75-1.9 m), but a few
# gamma0 edges leave q near n (8288 of 8321 dofs with 3 gamma0 dofs at t2
# N=32, a 550 MB dense q x q block), so a longer trailing block is not read.
_SCHUR_MAX_Q_PER_M = 3
# SuperLU's allocation failures: "SUPERLU_MALLOC fails for ...", "Malloc fails
# for ...", "Not enough memory to perform factorization." and "Out of memory."
_OUT_OF_MEMORY = re.compile(r"malloc|memory", re.IGNORECASE)


@dataclass
class EigenResult:
    """Positive discrete Steklov eigenvalues with their eigenvectors."""

    lambdas: np.ndarray      # ascending, strictly positive
    vectors: np.ndarray      # (n_dofs, k), normalized to v' Ahat v = 1
    zero_mode_detected: bool
    residuals: np.ndarray    # backward error per pair, see _filter_and_pack
    path: str                # "schur" or "lanczos", see solve_steklov
    q: int                   # LU positions from the first gamma0 dof on; 0: no clique
    steps: int               # ARPACK operator applications; 0 off the Lanczos path
    reach: int               # |R|, dofs the Lanczos steps solve on; 0 off that path
    fill: int                # nnz(L) + nnz(U) of the LU


def _norm_1(matrix) -> float:
    """Largest column sum of |matrix|, read from its data and column indices
    without the copy of |matrix| that ``scipy.sparse.linalg.norm`` builds."""
    return float(np.bincount(matrix.indices, weights=np.abs(matrix.data),
                             minlength=matrix.shape[1]).max(initial=0.0))


def _filter_and_pack(system: GlobalSystem, mus, vecs, k, **fields) -> EigenResult:
    """Drop the constant mode, normalize, sort ascending in lambda; ``fields``
    are the path fields of the result.

    The vectors are normalized to u'Ahat u = u'Au + sigma u'Bu = 1, read
    from the products A U and B U that the Rayleigh quotients and the
    residuals need anyway.  Each lambda is the Rayleigh quotient
    u'Au / u'Bu of its returned vector.  1/mu - sigma would carry the
    absolute error of mu, which the eigensolvers bound relative to the
    largest mu = 1/sigma, so it loses digits when lambda is very small or
    very large against sigma; the Rayleigh quotient's error is quadratic in
    the vector's.

    The residual of a pair is its normwise backward error in the 1-norm,
    ||A u - lambda B u|| / ((||A|| + |lambda| ||B||) ||u||), which does
    not change when the mesh or the matrices are scaled.
    """
    order = np.argsort(-mus)          # descending mu = ascending lambda
    mus, vecs = mus[order], vecs[:, order]

    ones = np.ones(system.n_dofs)
    BV = system.B @ vecs
    overlap = np.abs(ones @ BV) / np.sqrt(
        float(ones @ (system.B @ ones))
        * np.maximum(np.einsum("ij,ij->j", vecs, BV), 1e-300))
    zero = np.flatnonzero(overlap > _CONSTANT_OVERLAP)[:1]
    keep = np.delete(np.arange(len(mus)), zero)[:k]

    norm_A, norm_B = _norm_1(system.A), _norm_1(system.B)
    U, BU = vecs[:, keep], BV[:, keep]
    AU = system.A @ U
    uAu, uBu = np.einsum("ij,ij->j", U, AU), np.einsum("ij,ij->j", U, BU)
    unit = 1.0 / np.sqrt(uAu + system.shift * uBu)
    U, AU, BU = U * unit, AU * unit, BU * unit
    lambdas = uAu / uBu
    scale = norm_A + np.abs(lambdas) * norm_B
    residuals = (np.abs(AU - BU * lambdas).sum(axis=0)
                 / (scale * np.abs(U).sum(axis=0)))
    order = np.argsort(lambdas, kind="stable")
    lambdas = lambdas[order]

    return EigenResult(
        lambdas=lambdas,
        vectors=U[:, order],
        zero_mode_detected=bool(zero.size),
        residuals=residuals[order],
        **fields,
    )


def _gamma0_factor(B_gg) -> sps.csr_matrix:
    """Sparse F with F'F = B_gg, read off the entries of the gamma0 block.

    One row sqrt(b_ij) (e_i + e_j) per coupled pair i < j and one row
    sqrt(d_i) e_i per dof, with d_i = b_ii - sum_{j != i} b_ij.  It relies
    on B being an edge mass: every 2 x 2 edge mass |e|/6 [[2, 1], [1, 2]]
    couples its ends with a positive entry and adds |e|/6 to each end's
    d, so the couplings are nonnegative and d_i is |e|/6 summed over the
    gamma0 edges at dof i.  Nonnegative couplings and d > 0 make F of full
    column rank, hence B_gg positive definite; that is the rank check.  On
    the assembled mass it fails exactly when a gamma0 dof lies on no gamma0
    edge of positive length.

    Raises RankDeficientGamma0Mass when a coupling is negative or some
    d_i <= 0.
    """
    m = B_gg.shape[0]
    entries = B_gg.tocoo()
    upper = entries.row < entries.col
    i, j, b = entries.row[upper], entries.col[upper], entries.data[upper]
    d = B_gg.diagonal() - np.bincount(i, b, m) - np.bincount(j, b, m)
    if np.any(b < 0.0) or not np.all(d > 0.0):
        raise RankDeficientGamma0Mass(
            "gamma0 mass block is not an edge mass of full rank: smallest "
            f"diagonal excess {d.min(initial=np.inf):.3e}, smallest coupling "
            f"{b.min(initial=0.0):.3e}")
    # CSR rows: one (i, j) pair per coupling, then one diagonal entry per dof
    pairs = len(b)
    return sps.csr_matrix(
        (np.sqrt(np.concatenate((np.repeat(b, 2), d))),
         np.concatenate((np.column_stack((i, j)).ravel(), np.arange(m))),
         np.concatenate((np.arange(0, 2 * pairs, 2), 2 * pairs + np.arange(m + 1)))),
        shape=(pairs + m, m))


def _shifted(system: GlobalSystem, position) -> sps.csr_matrix:
    """P Ahat P' with P the dof order, the input of the Lanczos path's LU: row
    i is the row of ``system.Ahat`` at dof ``system.dof_order[i]`` and column
    ``position[j]`` that of dof j.  The rows are gathered in that order and
    the columns renumbered, so the column indices of a row are not sorted,
    but the conversion to CSC sorts them."""
    Ahat = system.Ahat[system.dof_order]
    np.take(position, Ahat.indices, out=Ahat.indices)
    return Ahat


def _with_gamma0_clique(system: GlobalSystem, position, at) -> sps.csc_matrix:
    """P Ahat P' as :func:`_shifted` writes it, with explicit zeros filling
    the gamma0 x gamma0 block at the positions ``at``, as CSC in canonical
    form.

    The entries of A and of sigma B at their positions and m^2 zeros at the
    clique pairs go into one COO conversion, which sorts each column and
    sums the duplicates.  Adding an exact zero is exact, so the values are
    those of Ahat; A stores no explicit zeros, so off the clique the
    pattern is that of :func:`_shifted`.
    """
    A, B, m = system.A.tocoo(), system.B.tocoo(), len(at)
    rows = np.concatenate((position[A.row], position[B.row], np.repeat(at, m)))
    cols = np.concatenate((position[A.col], position[B.col], np.tile(at, m)))
    values = np.concatenate((A.data, system.shift * B.data, np.zeros(m * m)))
    return sps.csc_matrix((values, (rows, cols)), shape=A.shape)


def _factor(matrix, name: str, **options):
    """SuperLU factor of ``matrix`` with diagonal pivots and one-column panels;
    ``name`` names the matrix in the error."""
    try:
        return spla.splu(matrix, diag_pivot_thresh=0.0, panel_size=1, **options)
    except (RuntimeError, MemoryError) as exc:
        if isinstance(exc, MemoryError) or _OUT_OF_MEMORY.search(str(exc)):
            raise FactorizationOutOfMemory(
                f"factorization of {name} ran out of memory: {exc}") from exc
        raise NotSPD(f"factorization of {name} failed: {exc}") from exc


def _etree_reach(L, start) -> np.ndarray:
    """The positions ``start`` and their ancestors in the elimination tree of
    the unit lower triangular CSC ``L``, ascending.

    The parent of column j is the smallest row below the diagonal in
    column j, taken as a segment minimum because the rows of a column are
    not sorted; a column with no row below the diagonal is a root.
    """
    n = L.shape[0]
    # rows below the diagonal, n on it: one index and one flag per entry of L
    key = np.repeat(np.arange(n, dtype=L.indices.dtype), np.diff(L.indptr))
    below = L.indices > key
    key.fill(n)
    np.copyto(key, L.indices, where=below)
    del below
    parent = np.minimum.reduceat(key, L.indptr[:-1]).astype(np.intp)
    del key
    inside = np.zeros(n + 1, dtype=bool)
    inside[n] = True                  # the parent of a root
    front = start.astype(np.intp)
    inside[front] = True
    while front.size:
        front = parent[front]
        front = front[~inside[front]]
        inside[front] = True
    return np.flatnonzero(inside[:n])


def _reach_solver(factor, pivots, g):
    """``(solve, |R|)`` with solve(y) = (Ahat^{-1})_gg y, applied on the
    elimination-tree reach R of gamma0 in the LU.

    With diagonal pivots P Ahat P' = L D L' (U = D L', D = ``pivots``).  A
    right-hand side on the gamma0 positions P g fills only their ancestors
    in the elimination tree of L in the forward solve, and reading the
    backward solve on P g needs only those ancestors too (Gilbert and
    Peierls 1988, Liu 1990), so both run on the unit lower triangular
    L_RR, R the positions P g and their ancestors (:func:`_etree_reach`).
    SuperLU reproduces L_RR with U = I under the natural ordering, so each
    application is a solve with L_RR, a division by D_R and a solve with
    L_RR'.

    The columns of R hold rows in R only, so L_RR is the columns R of L
    with their rows renumbered.  The renumbering runs in place, n entries
    at a time, so that no temporary of L_RR's size lives beside it and the
    L and U copies of the pivot check; L_RR dies once SuperLU holds its
    own copy.
    """
    L, n = factor.L, factor.shape[0]
    R = _etree_reach(L, factor.perm_c[g])
    where = np.zeros(n, dtype=L.indices.dtype)
    where[R] = np.arange(len(R))
    L_RR = L[:, R]
    rows = L_RR.indices
    for start in range(0, len(rows), n):
        rows[start:start + n] = where[rows[start:start + n]]
    L_RR = sps.csc_matrix((L_RR.data, rows, L_RR.indptr), shape=(len(R), len(R)))
    triangle = _factor(L_RR, "L on the gamma0 reach", permc_spec="NATURAL")
    del L_RR, rows
    at, d = np.searchsorted(R, factor.perm_c[g]), pivots[R]

    def solve(y):
        b = np.zeros(len(R))
        b[at] = y
        z = triangle.solve(b)
        z /= d
        return triangle.solve(z, trans="T")[at]

    return solve, len(R)


def _read_off(factor, pivots, g, q, F, k):
    """The k + 1 largest mu with the gamma0 values that lift them, read off
    the trailing q x q block of the LU that holds the gamma0 dofs ``g``.

    P Ahat P' = L D L', and E, the identity columns at the LU positions of
    g, is nonzero in the last q rows only, so L^{-1} E is too and equals
    L22^{-1} E there: (Ahat^{-1})_gg = V'V with V = D22^{-1/2} L22^{-1} E,
    one triangular solve, and V'V = T'T with T the m x m factor R of the
    thin QR of V.  So K = Y Y' with Y = F T', and the m x m Gram matrix
    Y'Y = T B_gg T' has the nonzero eigenvalues of K; an eigenvector z of
    Y'Y gives the eigenvector w = Y z.  The Lanczos lift F'w = B_gg T'z
    equals mu T^{-1} z, so T^{-1} z lifts z to the same u up to the scale
    mu: the harmonic extension of its gamma0 values T'z, as
    ((Ahat^{-1})_gg)^{-1} = T^{-1} T'^{-1}.  Multiplying by B_gg T' would
    instead scale the error of z along each other mode j by mu_j / mu: at
    k = m - 1 on the unit square's 8 x 8 grid with a 1e-3 gamma0 edge in
    every boundary cell, the worst backward error was 5.7e-10 that way,
    over the 1e-10 bound, and is 9.0e-13 with T^{-1} z.

    The operands of the solve and of the QR are in Fortran order, so
    LAPACK copies none of them, and everything dense dies on return,
    before the lift.
    """
    t, m = factor.shape[0] - q, len(g)
    V = np.zeros((q, m), order="F")
    V[factor.perm_c[g] - t, np.arange(m)] = 1.0
    V = sla.solve_triangular(factor.L[t:, t:].toarray(order="F"), V, lower=True,
                             unit_diagonal=True, overwrite_b=True)
    V /= np.sqrt(pivots[t:])[:, None]
    T = sla.qr(V, overwrite_a=True, mode="r")[0][:m]
    Y = F @ T.T
    mus, z = sla.eigh(Y.T @ Y, subset_by_index=[m - k - 1, m - 1])
    return mus, sla.solve_triangular(T, z)


def _lift(factor, position, at, values) -> np.ndarray:
    """Ahat^{-1} E values in vertex numbering, E placing the rows of ``values``
    at the LU positions ``at``; row j of the result is LU position
    ``position[j]`` of the solution.  The solution comes back from SuperLU in
    Fortran order, so its transpose is read row by row into the transpose of
    the right-hand side, and no third n x (k + 1) block is made."""
    rhs = np.zeros((len(position), values.shape[1]), order="F")
    rhs[at] = values
    np.take(factor.solve(rhs).T, position, axis=1, out=rhs.T, mode="clip")
    return rhs


def _dtn_eigenpairs(system: GlobalSystem, g, F: sps.csr_matrix, k: int):
    """The k + 1 largest nonzero mu and their vectors u, as
    ``(mus, vecs, fields)``, ``fields`` the path fields of the result (path,
    q, fill, steps and reach); see :func:`solve_steklov` for the paths.

    The LU factors Ahat in the dof order ``system.dof_order``, in which
    ``g`` lists the gamma0 dofs: ``position`` maps each dof to its row
    there, and the gamma0 positions ``at`` stand for g in everything that
    reads the LU.  Both paths hand :func:`_lift` the gamma0 values F'w of
    their eigenvectors w of K (the read-off F'w / mu).  Everything that
    holds the LU lives here, so the factor, the L and U copies that
    reading ``factor.U`` caches on it and the factor of L_RR are freed on
    return.
    """
    n, (p, m) = system.n_dofs, F.shape
    position = np.empty(n, dtype=system.A.indices.dtype)
    position[system.dof_order] = np.arange(n)
    at = position[g]
    schur = m * m <= _SCHUR_MAX_M2_PER_N * n or k + 2 >= m
    # either input is a temporary that dies when splu returns, and reaches
    # it as CSC in canonical form (sorted rows, no duplicates), so splu
    # sorts nothing
    factor = _factor(_with_gamma0_clique(system, position, at) if schur
                     else _shifted(system, position).tocsc(), "Ahat",
                     permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    pivots = factor.U.diagonal()
    if not (np.array_equal(factor.perm_r, factor.perm_c) and np.all(pivots > 0.0)):
        raise NotSPD("Ahat has a non-positive or off-diagonal pivot; "
                     "it is not SPD")
    q = n - int(factor.perm_c[at].min()) if schur else 0
    fill = factor.L.nnz + factor.U.nnz

    read_off = schur and q <= _SCHUR_MAX_Q_PER_M * m
    Ft, steps, reach = F.T, 0, 0      # a CSC view made once, not one per step
    if read_off:
        mus, values = _read_off(factor, pivots, at, q, F, k)
    else:
        solve_gg, reach = _reach_solver(factor, pivots, at)

        def matvec(y):                # K y = F (Ahat^{-1})_gg F' y
            nonlocal steps
            steps += 1
            return F @ solve_gg(Ft @ y)

        mus, W = spla.eigsh(spla.LinearOperator((p, p), matvec=matvec, dtype=float),
                            k + 1, which="LA",
                            v0=np.random.default_rng(0).standard_normal(p))
        values = Ft @ W
    return mus, _lift(factor, position, at, values), dict(
        path="schur" if read_off else "lanczos", q=q, fill=fill, steps=steps, reach=reach)


def solve_steklov(system: GlobalSystem, k: int) -> EigenResult:
    """First k positive Steklov eigenvalues from K = F (Ahat^{-1})_gg F'.

    Ahat = A + sigma B with the stored shift sigma = 1 / |gamma0|
    (``system.shift``), so inside the solver mu = 1 / (sigma + lambda),
    and the vectors are normalized to v' Ahat v = 1.  Ahat exists only as
    the input of the LU, written in the dof order ``system.dof_order``
    (vertices by (y, x)), and dies when the factorization returns; the
    vectors come back in vertex numbering.

    The sparse factor F of the gamma0 mass block, B_gg = F'F with one row
    per gamma0 edge and one per gamma0 dof (:func:`_gamma0_factor`),
    doubles as the rank check: rank(B) = m needs B_gg definite, which
    nonnegative edge couplings and a positive diagonal excess d prove.
    The nonzero mu are the eigenvalues of the p x p operator
    K = F (Ahat^{-1})_gg F' (p = E + m rows of F), (Ahat^{-1})_gg being
    the inverse of the Schur complement of Ahat onto gamma0.
    Ahat is factored once, with a symmetric minimum-degree ordering and
    diagonal pivots only, so Ahat = P' L U P with U = D L', and by
    Sylvester's law of inertia Ahat is SPD exactly when every pivot
    diag(U) is positive.  The panels of the LU are one column wide: with
    diagonal pivots and the small supernodes of 2-D meshes the default
    panels only add a dense work area, and the width moves neither the
    ordering nor the fill.

    Both paths find the k + 1 largest eigenpairs (mu, w) of K and differ
    only in how they apply (Ahat^{-1})_gg; ``result.path`` names the one
    that ran (see the module docstring):

    - ``"schur"`` when m^2 <= 2 n or k + 2 >= m, and the gamma0 clique added
      to the factored pattern leaves gamma0 in the last q <= 3 m positions
      (``result.q``) of the ordering.  (Ahat^{-1})_gg = V'V = T'T is
      formed densely from one triangular solve with the trailing q x q
      block of L and the thin QR of V, and eigh of the m x m Gram matrix
      Y'Y, Y = F T', gives the eigenpairs of K = Y Y'.
    - ``"lanczos"`` otherwise.  ARPACK iterates on K with length-p vectors
      from a fixed start vector, so repeated calls give bit-identical
      results.  Each step costs two sparse products with F and two
      triangular solves with L_RR on the elimination-tree reach R of
      gamma0 in the LU (``result.reach`` = |R| dofs, ``result.steps``
      steps), not a solve on all n dofs; no m x m array is formed.

    On both paths one multi-column solve with the LU lifts the
    eigenvectors w to u = Ahat^{-1} E_g F' w, the read-off with F'w / mu
    taken as T^{-1} z.

    The factor, the L and U copies of the pivot check and the factor of
    L_RR belong to one helper, so they are freed before the n x (k + 1)
    blocks of the pack are allocated.

    Raises InvalidN for k < 1, KTooLarge for k > m - 1 (m gamma0 dofs, the
    rank of B), RankDeficientGamma0Mass when the gamma0 block of B is not
    shown positive definite (a negative coupling, or a gamma0 dof on no
    gamma0 edge of positive length), FactorizationOutOfMemory when the LU
    or the factor of L_RR cannot allocate its factors (SuperLU's
    "SUPERLU_MALLOC fails ..." and kin), NotSPD when the LU fails otherwise
    or Ahat is not SPD, and SolverError when a backward error exceeds 1e-10.
    """
    if k < 1:
        raise InvalidN("need at least one eigenvalue")
    m = len(system.gamma0_dofs)
    if k > m - 1:
        raise KTooLarge(f"k = {k} exceeds the {m - 1} positive modes "
                        f"supported by {m} gamma0 dofs")
    # gamma0 in the dof order: then B_gg, F and the start vector, and with
    # them the Lanczos steps, do not depend on the numbering either
    g = system.dof_order[np.isin(system.dof_order, system.gamma0_dofs)]
    mus, vecs, fields = _dtn_eigenpairs(system, g, _gamma0_factor(system.B[g][:, g]), k)
    result = _filter_and_pack(system, mus, vecs, k, **fields)
    worst = result.residuals.max(initial=0.0)
    if not worst <= _BACKWARD_ERROR_BOUND:
        raise SolverError(f"backward error {worst:.2e} exceeds "
                          f"{_BACKWARD_ERROR_BOUND:.0e}")
    return result


def eigenfunction_field(result: EigenResult, i: int) -> np.ndarray:
    """Vertex field of the i-th mode, sign-fixed and scaled to max-abs 1."""
    if not 0 <= i < len(result.lambdas):
        raise IndexError(f"mode index {i} out of range")
    u = result.vectors[:, i].copy()
    peak = int(np.argmax(np.abs(u)))
    if u[peak] < 0.0:
        u = -u
    return u / abs(u[peak])
