"""The dense oracle the sparse eigensolver is checked against.

:func:`dense_reference_solve` densifies A, B and Ahat and solves the whole
generalized eigenproblem with LAPACK.  It reads the rank check and the
packing of its result from :mod:`steklovem.eig`, so that it differs from
:func:`steklovem.eig.solve_steklov` only in how it finds the eigenpairs.
"""

from __future__ import annotations

import scipy.linalg as sla

from steklovem.eig import EigenResult, _filter_and_pack, _gamma0_factor
from steklovem.errors import NotSPD
from steklovem.vem import GlobalSystem

DENSE_LIMIT = 2000


def dense_reference_solve(system: GlobalSystem) -> EigenResult:
    """Full dense symmetric-definite generalized eigensolve.

    Solves B u = mu Ahat u, Ahat = A + sigma B with the stored shift
    sigma = 1 / |gamma0| (``system.Ahat``), so mu = 1 / (sigma + lambda),
    with every matrix densified and keeps the m largest mu, m the number
    of gamma0 dofs.  rank(B) = m is proven by
    :func:`~steklovem.eig._gamma0_factor`, as the production solver does,
    not counted from the computed mu: on meshes with gamma0 edges near
    1e-11 the m-th largest mu of a valid mesh can fall below any fixed
    cutoff.  The result's path is ``"dense"``, and its LU and Lanczos
    fields are 0.

    Raises ValueError beyond 2000 dofs, RankDeficientGamma0Mass when the
    gamma0 block of B is not shown positive definite and NotSPD when eigh
    finds Ahat indefinite.
    """
    n = system.n_dofs
    if n > DENSE_LIMIT:
        raise ValueError(f"{n} dofs exceeds the dense oracle limit {DENSE_LIMIT}")
    g = system.gamma0_dofs
    m = len(g)
    _gamma0_factor(system.B[g][:, g])
    try:
        mus, vecs = sla.eigh(system.B.toarray(), system.Ahat.toarray())
    except sla.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc
    return _filter_and_pack(system, mus[n - m:], vecs[:, n - m:], k=m - 1,
                            path="dense", q=0, steps=0, reach=0, fill=0)
