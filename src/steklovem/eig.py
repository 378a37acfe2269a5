"""Generalized eigensolver for the discrete Steklov problem.

A u = lambda B u is shifted to B u = mu Ahat u with Ahat = A + B
symmetric positive definite, so mu = 1 / (1 + lambda) lies in (0, 1] and
the first k positive lambdas are the k + 1 largest mu (the constant mode
has mu = 1).  B lives on the m gamma0 dofs g: B = E_g F'F E_g' with E_g
the scatter of a gamma0 vector into all n dofs and F the sparse p x m
factor of the gamma0 block B_gg read off its entries (:func:`_gamma0_factor`:
one row per coupled pair of dofs and one per dof, p = E + m).  So the
nonzero mu are the eigenvalues of the symmetric positive semidefinite
p x p operator

    K = F (Ahat^{-1})_gg F',

which has rank m and shares its nonzero spectrum with the discrete
Dirichlet-to-Neumann map, and u = Ahat^{-1} E_g F' w lifts an eigenvector
w of K to the pencil.  Implicitly restarted Lanczos (ARPACK, standard
mode, Euclidean inner product on length-p vectors) finds the k + 1
largest mu with one solve against a single LU of Ahat per step;
iterating on the largest mu never touches the near-zero mu that tiny
gamma0 edges produce at the other end of the spectrum, nor the p - m
zero ones.  When k + 2 >= m leaves ARPACK no room, K is formed densely
from one p-column solve and handed to eigh; only there is a dense n x p
block formed, with m <= k + 2.  SuperLU factors Ahat in
single-column panels: its default panels serve supernodal partial
pivoting, but here every pivot is diagonal and the supernodes of these
2-D meshes are small, so wider panels only add a dense n x panel work
area (the ordering and the fill do not depend on the width).  The LU,
the L and U copies its pivot check caches and any n x p block die before
the eigenvectors are packed.  The constant mode is dropped by its
B-overlap with the constants; everything else is returned ascending in
lambda, each lambda being the Rayleigh quotient of its returned vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import (FactorizationOutOfMemory, InvalidN, KTooLarge, NotSPD,
                     RankDeficientGamma0Mass, SolverError, TooLarge)
from .mesh import PolygonalMesh
from .vem import GlobalSystem

_CONSTANT_OVERLAP = 0.99
_DENSE_LIMIT = 2000
_BACKWARD_ERROR_BOUND = 1e-10
# SuperLU's allocation failures: "SUPERLU_MALLOC fails for ...", "Malloc fails
# for ...", "Not enough memory to perform factorization." and "Out of memory."
_OUT_OF_MEMORY = re.compile(r"malloc|memory", re.IGNORECASE)


@dataclass
class EigenResult:
    """Positive discrete Steklov eigenvalues with their eigenvectors."""

    lambdas: np.ndarray      # ascending, strictly positive
    mus: np.ndarray          # 1 / (1 + lambda), in (0, 1)
    vectors: np.ndarray      # (n_dofs, k), normalized to v' Ahat v = 1
    zero_mode_detected: bool
    residuals: np.ndarray    # backward error per pair, see _filter_and_pack


def _norm_1(matrix) -> float:
    """Largest column sum of |matrix|, read from its data and column indices
    without the copy of |matrix| that ``scipy.sparse.linalg.norm`` builds."""
    return float(np.bincount(matrix.indices, weights=np.abs(matrix.data),
                             minlength=matrix.shape[1]).max(initial=0.0))


def _filter_and_pack(system: GlobalSystem, mus, vecs, k) -> EigenResult:
    """Drop the constant mode, normalize, sort ascending in lambda.

    Each lambda is the Rayleigh quotient u'Au / u'Bu of its returned
    vector.  1/mu - 1 would carry the absolute error of mu, which the
    eigensolvers bound relative to the largest mu = 1, so it loses digits
    when lambda is very small or very large, as on a scaled mesh; the
    Rayleigh quotient's error is quadratic in the vector's.

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
    unit = 1.0 / np.sqrt(np.einsum("ij,ij->j", U, system.Ahat @ U))
    U, BU = U * unit, BU * unit
    AU = system.A @ U
    lambdas = np.einsum("ij,ij->j", U, AU) / np.einsum("ij,ij->j", U, BU)
    scale = norm_A + np.abs(lambdas) * norm_B
    residuals = (np.abs(AU - BU * lambdas).sum(axis=0)
                 / (scale * np.abs(U).sum(axis=0)))
    order = np.argsort(lambdas, kind="stable")
    lambdas = lambdas[order]

    return EigenResult(
        lambdas=lambdas,
        mus=1.0 / (1.0 + lambdas),
        vectors=U[:, order],
        zero_mode_detected=bool(zero.size),
        residuals=residuals[order],
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


def _dtn_eigenpairs(system: GlobalSystem, F: sps.csr_matrix, k: int):
    """The k + 1 largest mu of K = F (Ahat^{-1})_gg F' and their lifted
    vectors u = Ahat^{-1} E_g F' w, as ``(mus, vecs)``.

    Everything that holds the LU lives here, so the factor, the L and U
    copies that reading ``factor.U`` caches on it and the dense branch's
    n x p block X are freed on return.
    """
    g = system.gamma0_dofs
    p, m = F.shape
    try:
        # Ahat is symmetric, so the CSC view of its CSR arrays is Ahat itself
        factor = spla.splu(system.Ahat.T, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, panel_size=1,
                           options=dict(SymmetricMode=True))
    except (RuntimeError, MemoryError) as exc:
        if isinstance(exc, MemoryError) or _OUT_OF_MEMORY.search(str(exc)):
            raise FactorizationOutOfMemory(
                f"factorization of Ahat ran out of memory: {exc}") from exc
        raise NotSPD(f"factorization of Ahat failed: {exc}") from exc
    if not (np.array_equal(factor.perm_r, factor.perm_c)
            and np.all(factor.U.diagonal() > 0.0)):
        raise NotSPD("Ahat has a non-positive or off-diagonal pivot; "
                     "it is not SPD")
    Ft = F.T                          # a CSC view made once, not one per step

    def lift(Y):                      # Ahat^{-1} E_g F' Y
        rhs = np.zeros((system.n_dofs,) + Y.shape[1:])
        rhs[g] = Ft @ Y
        return factor.solve(rhs)

    if k + 2 >= m:
        X = lift(np.eye(p))
        mus, W = sla.eigh(F @ X[g], subset_by_index=[p - k - 1, p - 1])
        return mus, X @ W
    K = spla.LinearOperator((p, p), matvec=lambda y: F @ lift(y)[g],
                            dtype=float)
    mus, W = spla.eigsh(K, k + 1, which="LA",
                        v0=np.random.default_rng(0).standard_normal(p))
    return mus, lift(W)


def solve_steklov(system: GlobalSystem, k: int) -> EigenResult:
    """First k positive Steklov eigenvalues by Lanczos on the gamma0 traces.

    The sparse factor F of the gamma0 mass block, B_gg = F'F with one row
    per gamma0 edge and one per gamma0 dof (:func:`_gamma0_factor`),
    doubles as the rank check: rank(B) = m needs B_gg definite, which
    nonnegative edge couplings and a positive diagonal excess d prove.
    ARPACK then iterates on the p x p operator K = F (Ahat^{-1})_gg F'
    (p = E + m rows of F, rank m, the same nonzero mu) with length-p
    vectors from a fixed start vector, so repeated calls give bit-identical
    results; each step costs one solve against a single LU of Ahat and two
    sparse products with F, and no m x m array is formed.  The LU uses a
    symmetric minimum-degree ordering and diagonal pivots only, so
    Ahat = P' L U P with U = D L', and by Sylvester's law of inertia Ahat
    is SPD exactly when every pivot diag(U) is positive.  The k + 1
    eigenvectors w are lifted to u = Ahat^{-1} E_g F' w by one
    multi-column solve.  With k + 2 >= m ARPACK has no room for a Krylov
    space; K is then formed densely from one p-column solve, whose columns
    also lift the eigenvectors of eigh.  The panels of the LU are one column
    wide: with diagonal pivots and the small supernodes of 2-D meshes the
    default panels only add a dense work area, and the width moves neither
    the ordering nor the fill.  The factor, the L and U copies of the pivot
    check and the dense branch's n x p block belong to one helper, so they
    are freed before the n x (k + 1) blocks of the pack are allocated.

    Raises InvalidN for k < 1, KTooLarge for k > m - 1 (m gamma0 dofs, the
    rank of B), RankDeficientGamma0Mass when the gamma0 block of B is not
    shown positive definite (a negative coupling, or a gamma0 dof on no
    gamma0 edge of positive length), FactorizationOutOfMemory when the LU
    cannot allocate its factors (SuperLU's "SUPERLU_MALLOC fails ..." and
    kin), NotSPD when the LU fails otherwise or Ahat is not SPD, and
    SolverError when a backward error exceeds 1e-10.
    """
    if k < 1:
        raise InvalidN("need at least one eigenvalue")
    g = system.gamma0_dofs
    m = len(g)
    if k > m - 1:
        raise KTooLarge(f"k = {k} exceeds the {m - 1} positive modes "
                        f"supported by {m} gamma0 dofs")
    F = _gamma0_factor(system.B[g][:, g])
    result = _filter_and_pack(system, *_dtn_eigenpairs(system, F, k), k)
    worst = result.residuals.max(initial=0.0)
    if not worst <= _BACKWARD_ERROR_BOUND:
        raise SolverError(f"backward error {worst:.2e} exceeds "
                          f"{_BACKWARD_ERROR_BOUND:.0e}")
    return result


def dense_reference_solve(system: GlobalSystem) -> EigenResult:
    """Oracle: full dense symmetric-definite generalized eigensolve.

    Solves B u = mu Ahat u with every matrix densified; only meant to
    validate :func:`solve_steklov` on small systems.
    """
    n = system.n_dofs
    if n > _DENSE_LIMIT:
        raise TooLarge(f"{n} dofs exceeds the dense oracle limit {_DENSE_LIMIT}")
    Bd = system.B.toarray()
    Ad = system.Ahat.toarray()
    try:
        mus, vecs = sla.eigh(Bd, Ad)
    except sla.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc
    pos = mus > 1e-12
    if int(np.sum(pos)) != len(system.gamma0_dofs):
        raise RankDeficientGamma0Mass(
            "rank of B does not match the gamma0 dof count")
    return _filter_and_pack(system, mus[pos], vecs[:, pos],
                            k=int(np.sum(pos)) - 1)


def eigenfunction_field(result: EigenResult, mesh: PolygonalMesh,
                        i: int) -> np.ndarray:
    """Vertex field of the i-th mode, sign-fixed and scaled to max-abs 1."""
    if not 0 <= i < len(result.lambdas):
        raise IndexError(f"mode index {i} out of range")
    u = result.vectors[:, i].copy()
    peak = int(np.argmax(np.abs(u)))
    if u[peak] < 0.0:
        u = -u
    return u / abs(u[peak])
