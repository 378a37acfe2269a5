"""Generalized eigensolver for the discrete Steklov problem.

A u = lambda B u is shifted to B u = mu Ahat u with Ahat = A + B
symmetric positive definite, so mu = 1 / (1 + lambda) lies in (0, 1] and
the first k positive lambdas are the k + 1 largest mu (the constant mode
has mu = 1).  This is shift-invert at sigma = -1 for the pencil (A, B):
implicitly restarted Lanczos (ARPACK in regular inverse mode, Ahat inner
product) finds those mu with a few dozen solves against one symmetric LU
of Ahat.  Iterating on the largest mu never touches the near-zero mu that
tiny gamma0 edges produce at the other end of the spectrum.  The
constant mode is dropped by its B-overlap with the constants; everything
else is returned ascending in lambda.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import InvalidN, KTooLarge, NotSPD, RankDeficientGamma0Mass, SolverError, TooLarge
from .mesh import PolygonalMesh
from .vem import GlobalSystem

_CONSTANT_OVERLAP = 0.99
_DENSE_LIMIT = 2000
_BACKWARD_ERROR_BOUND = 1e-10


@dataclass
class EigenResult:
    """Positive discrete Steklov eigenvalues with their eigenvectors."""

    lambdas: np.ndarray      # ascending, strictly positive
    mus: np.ndarray          # 1 / (1 + lambda), in (0, 1)
    vectors: np.ndarray      # (n_dofs, k), normalized to v' Ahat v = 1
    zero_mode_detected: bool
    residuals: np.ndarray    # backward error per pair, see _filter_and_pack


def _filter_and_pack(system: GlobalSystem, mus, vecs, k) -> EigenResult:
    """Drop the constant mode, sort ascending in lambda, normalize.

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

    lambdas = 1.0 / mus[keep] - 1.0
    U = vecs[:, keep]
    U = U / np.sqrt(np.einsum("ij,ij->j", U, system.Ahat @ U))
    R = system.A @ U - (system.B @ U) * lambdas
    scale = spla.norm(system.A, 1) + np.abs(lambdas) * spla.norm(system.B, 1)
    residuals = np.abs(R).sum(axis=0) / (scale * np.abs(U).sum(axis=0))

    return EigenResult(
        lambdas=lambdas,
        mus=1.0 / (1.0 + lambdas),
        vectors=U,
        zero_mode_detected=bool(zero.size),
        residuals=residuals,
    )


def solve_steklov(system: GlobalSystem, k: int) -> EigenResult:
    """First k positive Steklov eigenvalues by shift-invert Lanczos.

    ARPACK builds its Krylov space from Ahat^{-1} B with one solve per
    step against a single LU of Ahat.  The LU uses a symmetric
    minimum-degree ordering and diagonal pivots only, so Ahat = P' L U P
    with U = D L', and by Sylvester's law of inertia Ahat is SPD exactly
    when every pivot diag(U) is positive.  The start vector is fixed, so
    repeated calls give bit-identical results.  With k + 1 >= n_dofs there
    is no room for a Krylov space and the same call passes dense matrices,
    which scipy solves with eigh.

    Raises InvalidN for k < 1, KTooLarge for k > m - 1 (m gamma0 dofs, the
    rank of B), RankDeficientGamma0Mass when the gamma0 block of B is not
    positive definite, NotSPD when Ahat is not, and SolverError when a
    backward error exceeds 1e-10.
    """
    if k < 1:
        raise InvalidN("need at least one eigenvalue")
    g = system.gamma0_dofs
    m = len(g)
    if k > m - 1:
        raise KTooLarge(f"k = {k} exceeds the {m - 1} positive modes "
                        f"supported by {m} gamma0 dofs")
    try:                              # rank(B) = m needs a definite gamma0 mass
        sla.cholesky(system.B[np.ix_(g, g)].toarray())
    except sla.LinAlgError as exc:
        raise RankDeficientGamma0Mass(str(exc)) from exc

    try:
        factor = spla.splu(system.Ahat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise NotSPD(f"factorization of Ahat failed: {exc}") from exc
    if not (np.array_equal(factor.perm_r, factor.perm_c)
            and np.all(factor.U.diagonal() > 0.0)):
        raise NotSPD("Ahat has a non-positive or off-diagonal pivot; "
                     "it is not SPD")

    n = system.n_dofs
    B, Ahat = system.B, system.Ahat
    if k + 1 >= n:
        B, Ahat = B.toarray(), Ahat.toarray()
    Minv = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "k >= N", RuntimeWarning)
        mus, vecs = spla.eigsh(B, k + 1, M=Ahat, Minv=Minv, which="LA",
                               v0=np.random.default_rng(0).standard_normal(n))
    result = _filter_and_pack(system, mus, vecs, k)
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
