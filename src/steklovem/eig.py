"""Generalized eigensolver for the discrete Steklov problem.

A u = lambda B u is shifted to B u = mu Ahat u with Ahat = A + B
symmetric positive definite, so mu = 1 / (1 + lambda) lies in (0, 1] and
the first k positive lambdas are the k + 1 largest mu (the constant mode
has mu = 1).  B lives on the m gamma0 dofs g: B = E_g R' R E_g' with E_g
the scatter of a gamma0 vector into all n dofs and R the upper Cholesky
factor of the gamma0 block B_gg.  So the nonzero mu are the eigenvalues of
the symmetric positive definite m x m operator

    K = R (Ahat^{-1})_gg R',

the discrete Dirichlet-to-Neumann map, and u = Ahat^{-1} E_g R' w lifts an
eigenvector w of K to the pencil.  Implicitly restarted Lanczos (ARPACK,
standard mode, Euclidean inner product on length-m vectors) finds the
k + 1 largest mu with one solve against a single LU of Ahat per step;
iterating on the largest mu never touches the near-zero mu that tiny
gamma0 edges produce at the other end of the spectrum.  When k + 2 >= m
leaves ARPACK no room, K is formed densely from one m-column solve and
handed to eigh; only there is a dense n x m block formed, with
m <= k + 2.  SuperLU factors Ahat in single-column panels: its default
panels serve supernodal partial pivoting, but here every pivot is diagonal
and the supernodes of these 2-D meshes are small, so wider panels only add
a dense n x panel work area (the ordering and the fill do not depend on
the width).  The LU, the L and U copies its pivot check caches and any
n x m block die before the eigenvectors are packed.  The constant mode
is dropped by its B-overlap with the constants; everything else is
returned ascending in lambda, each lambda being the Rayleigh quotient of
its returned vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
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


def _dtn_eigenpairs(system: GlobalSystem, R: np.ndarray, k: int):
    """The k + 1 largest mu of K = R (Ahat^{-1})_gg R' and their lifted
    vectors u = Ahat^{-1} E_g R' w, as ``(mus, vecs)``.

    Everything that holds the LU lives here, so the factor, the L and U
    copies that reading ``factor.U`` caches on it and the dense branch's
    n x m block X are freed on return.
    """
    g = system.gamma0_dofs
    m = len(g)
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

    def lift(Y):                      # Ahat^{-1} E_g R' Y
        rhs = np.zeros((system.n_dofs,) + Y.shape[1:])
        rhs[g] = R.T @ Y
        return factor.solve(rhs)

    if k + 2 >= m:
        X = lift(np.eye(m))
        mus, W = sla.eigh(R @ X[g], subset_by_index=[m - k - 1, m - 1])
        return mus, X @ W
    K = spla.LinearOperator((m, m), matvec=lambda y: R @ lift(y)[g],
                            dtype=float)
    mus, W = spla.eigsh(K, k + 1, which="LA",
                        v0=np.random.default_rng(0).standard_normal(m))
    return mus, lift(W)


def solve_steklov(system: GlobalSystem, k: int) -> EigenResult:
    """First k positive Steklov eigenvalues by Lanczos on the gamma0 traces.

    The Cholesky factor R of the gamma0 mass block, B_gg = R'R, doubles as
    the rank check (rank(B) = m needs B_gg definite).  ARPACK then iterates
    on K = R (Ahat^{-1})_gg R' with length-m vectors from a fixed start
    vector, so repeated calls give bit-identical results; each step costs
    one solve against a single LU of Ahat and two triangular products with
    R.  The LU uses a symmetric minimum-degree ordering and diagonal pivots
    only, so Ahat = P' L U P with U = D L', and by Sylvester's law of
    inertia Ahat is SPD exactly when every pivot diag(U) is positive.  The
    k + 1 eigenvectors w are lifted to u = Ahat^{-1} E_g R' w by one
    multi-column solve.  With k + 2 >= m ARPACK has no room for a Krylov
    space; K is then formed densely from one m-column solve, whose columns
    also lift the eigenvectors of eigh.  The panels of the LU are one column
    wide: with diagonal pivots and the small supernodes of 2-D meshes the
    default panels only add a dense work area, and the width moves neither
    the ordering nor the fill.  The factor, the L and U copies of the pivot
    check and the dense branch's n x m block belong to one helper, so they
    are freed before the n x (k + 1) blocks of the pack are allocated.

    Raises InvalidN for k < 1, KTooLarge for k > m - 1 (m gamma0 dofs, the
    rank of B), RankDeficientGamma0Mass when the gamma0 block of B is not
    positive definite, FactorizationOutOfMemory when the LU cannot allocate
    its factors (SuperLU's "SUPERLU_MALLOC fails ..." and kin), NotSPD when
    the LU fails otherwise or Ahat is not SPD, and SolverError when a
    backward error exceeds 1e-10.
    """
    if k < 1:
        raise InvalidN("need at least one eigenvalue")
    g = system.gamma0_dofs
    m = len(g)
    if k > m - 1:
        raise KTooLarge(f"k = {k} exceeds the {m - 1} positive modes "
                        f"supported by {m} gamma0 dofs")
    try:
        R = sla.cholesky(system.B[g][:, g].toarray())
    except sla.LinAlgError as exc:
        raise RankDeficientGamma0Mass(str(exc)) from exc

    result = _filter_and_pack(system, *_dtn_eigenpairs(system, R, k), k)
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
