"""Generalized eigensolver: trace-space Lanczos, filtering, oracles."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovem import eig
from steklovem.errors import (
    FactorizationOutOfMemory,
    InvalidN,
    KTooLarge,
    NotSPD,
    RankDeficientGamma0Mass,
    SolverError,
    TooLarge,
)
from steklovem.eig import (
    dense_reference_solve,
    eigenfunction_field,
    solve_steklov,
)
from steklovem.mesh import GAMMA0, GAMMA1, build_mesh
from steklovem.meshgen import FAMILIES, refine_lshape_corner
from steklovem.vem import StabilizationSpec, assemble_global
from meshes import permuted_mesh, uniform_square_mesh

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TOP_BND = [(0, 1, GAMMA1), (1, 2, GAMMA1), (2, 3, GAMMA0), (3, 0, GAMMA1)]


def single_square_system():
    mesh = build_mesh(SQUARE, [[0, 1, 2, 3]], TOP_BND)
    return mesh, assemble_global(mesh, StabilizationSpec())


def system_for(family, N, spec=None):
    return assemble_global(FAMILIES[family](N), spec or StabilizationSpec())


# ---------------------------------------------------------------------------
# single-cell sanity


def test_single_cell_one_positive_mode():
    _, system = single_square_system()
    result = solve_steklov(system, 1)
    assert result.zero_mode_detected
    assert len(result.lambdas) == 1
    assert result.lambdas[0] > 0.0
    oracle = dense_reference_solve(system)
    assert result.lambdas[0] == pytest.approx(oracle.lambdas[0], rel=1e-10)


def test_single_cell_k_too_large():
    _, system = single_square_system()
    with pytest.raises(KTooLarge):
        solve_steklov(system, 5)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(k):
    _, system = single_square_system()
    with pytest.raises(InvalidN, match="need at least one eigenvalue"):
        solve_steklov(system, k)


@pytest.mark.parametrize("verts,bnd,k", [
    # m = n = 4, k + 1 = n: no room for a Krylov space
    (SQUARE, [(i, (i + 1) % 4, GAMMA0) for i in range(4)], 3),
    # m = 4, n = 5, k = m - 1: one interior dof, k + 2 >= m takes eigh
    (np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
     [(0, 1, GAMMA1), (1, 2, GAMMA1), (2, 3, GAMMA0), (3, 4, GAMMA0),
      (4, 0, GAMMA0)], 3),
])
def test_single_cell_all_positive_modes(verts, bnd, k):
    mesh = build_mesh(verts, [list(range(len(verts)))], bnd)
    system = assemble_global(mesh, StabilizationSpec())
    result = solve_steklov(system, k)
    oracle = dense_reference_solve(system)
    assert result.zero_mode_detected
    np.testing.assert_allclose(result.lambdas, oracle.lambdas[:k], rtol=1e-10)


# ---------------------------------------------------------------------------
# oracle equivalence and structure


@pytest.mark.parametrize("family,N", [("t1", 4), ("t2", 4), ("t3", 4),
                                      ("t6", 8)])
def test_sparse_matches_dense_oracle(family, N):
    system = system_for(family, N)
    k = min(6, len(system.gamma0_dofs) - 1)
    fast = solve_steklov(system, k)
    slow = dense_reference_solve(system)
    np.testing.assert_allclose(fast.lambdas, slow.lambdas[:k], rtol=1e-9)


def test_permuted_t5_matches_dense_oracle():
    # gamma0 ids in random order: the gamma0 mass block and its sparse
    # edge factor F are scattered, not banded
    mesh = permuted_mesh()
    system = assemble_global(mesh, StabilizationSpec())
    fast = solve_steklov(system, 6)
    slow = dense_reference_solve(system)
    np.testing.assert_allclose(fast.lambdas, slow.lambdas[:6], rtol=1e-10)
    assert np.all(fast.residuals <= 1e-12)


def short_gamma0_mesh(N, x_max):
    """t2 with gamma0 cut down to the top edges that end at x <= x_max."""
    mesh = FAMILIES["t2"](N)
    x = mesh.vertices[:, 0]
    return build_mesh(mesh.vertices, mesh.cells, [
        (a, b, GAMMA0 if marker == GAMMA0 and max(x[a], x[b]) <= x_max else GAMMA1)
        for a, b, marker in mesh.boundary_edges])


# the path solve_steklov takes at k = m - 3, m - 2 and m - 1, or only at the
# k that exist.  Full-boundary gamma0 (t5, t6) runs Lanczos until k + 2 >= m;
# one short gamma0 side (t1, t2) is read off the LU, except on t1 N=4, on t2
# N=12 with x <= 1/4 (m = 7) and on t2 N=8 with x <= 1/16 (one gamma0 edge,
# m = 2), where the clique leaves 28 of 37, 393 of 1201 and 536 of 545 dofs
# after the first gamma0 dof, more than 3 m, and Lanczos runs on the clique's
# LU.  The last has the smallest Krylov operator, p = 3 rows of F
ORACLE_PATHS = {
    "t1-4": ("lanczos",) * 3,
    "t2-4": ("schur",) * 3,
    "t6-4": ("lanczos", "schur", "schur"),
    "t1-8": ("schur",) * 3,
    "t2-8": ("schur",) * 3,
    "t5-8": ("lanczos", "schur", "schur"),
    "t6-8": ("lanczos", "schur", "schur"),
    "t2-12-short": ("lanczos",) * 3,
    "t2-8-edge": ("lanczos",),
}
SHORT_GAMMA0 = {"short": 0.25, "edge": 1.0 / 16.0}


@pytest.mark.parametrize("below_m, case", [
    (below_m, case) for case, paths in sorted(ORACLE_PATHS.items())
    for below_m in range(len(paths), 0, -1)])
def test_lanczos_and_dense_branches_agree_with_oracle(monkeypatch, below_m, case):
    # both eigensolver paths against the dense oracle, with Ahat-orthonormal
    # vectors: the Schur read-off, and Lanczos with and without the gamma0
    # clique in the LU.  Where the read-off runs at k = m - 3, Lanczos is
    # forced on the same k and must find the same lambdas: both paths take
    # the eigenpairs of one K = F (Ahat^{-1})_gg F'
    family, N, *short = case.split("-")
    mesh = (short_gamma0_mesh(int(N), SHORT_GAMMA0[short[0]]) if short
            else FAMILIES[family](int(N)))
    system = assemble_global(mesh, StabilizationSpec())
    k = len(system.gamma0_dofs) - below_m
    result = solve_steklov(system, k)
    assert result.path == ORACLE_PATHS[case][-below_m]
    oracle = dense_reference_solve(system)
    assert result.zero_mode_detected
    np.testing.assert_allclose(result.lambdas, oracle.lambdas[:k], rtol=1e-10)
    np.testing.assert_allclose(
        result.vectors.T @ (system.Ahat @ result.vectors), np.eye(k), atol=1e-10)
    if below_m == 3 and result.path == "schur":
        monkeypatch.setattr(eig, "_SCHUR_MAX_M2_PER_N", 0)
        lanczos = solve_steklov(system, k)
        assert lanczos.path == "lanczos"
        np.testing.assert_allclose(lanczos.lambdas, result.lambdas, rtol=1e-12)


class CountingFactor:
    """A SuperLU factor that counts the columns it solves for."""

    def __init__(self, factor):
        self.factor, self.columns = factor, 0

    def __getattr__(self, name):
        return getattr(self.factor, name)

    def solve(self, rhs):
        self.columns += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self.factor.solve(rhs)


def test_schur_read_off_solves_only_to_lift(monkeypatch):
    # t2 N=32 (m = 65): the Lanczos loop took 46 single-column solves here;
    # the read-off forms (Ahat^{-1})_gg by a dense triangular solve with the
    # trailing block of L, which leaves the one n x (k + 1) lift to SuperLU
    factors = []
    splu = eig.spla.splu

    def counting_splu(*args, **kwargs):
        factors.append(CountingFactor(splu(*args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(eig.spla, "splu", counting_splu)
    result = solve_steklov(system_for("t2", 32), 6)
    assert result.path == "schur"
    assert [f.columns for f in factors] == [7]


def test_lanczos_cost_does_not_depend_on_the_length_unit():
    # t5 N=8 (m = 69) takes 38 Lanczos steps at unit scale.  With the shift
    # fixed at 1 instead of 1 / |gamma0|, mu = 1 / (1 + lambda) crowded
    # towards 1 on the enlarged meshes and ARPACK took 445 and 763 steps at
    # 1e3 and 1e6
    mesh = FAMILIES["t5"](8)
    steps = solve_steklov(assemble_global(mesh), 6).steps
    for s in (1e-3, 1e3, 1e6):
        scaled = build_mesh(s * mesh.vertices, mesh.cells, mesh.boundary_edges)
        result = solve_steklov(assemble_global(scaled), 6)
        assert result.path == "lanczos"
        assert abs(result.steps - steps) <= 2


REACH_MESHES = {
    "t5-8": functools.partial(FAMILIES["t5"], 8),
    "t5-8-renumbered": lambda: renumbered(FAMILIES["t5"](8), 1),
    "t6-8-refined": lambda: refine_lshape_corner(FAMILIES["t6"](8), 1, 8),
}


@pytest.mark.parametrize("case", sorted(REACH_MESHES))
def test_reach_solve_matches_the_full_solve(monkeypatch, case):
    # the Lanczos steps apply (Ahat^{-1})_gg on the elimination-tree reach
    # R of gamma0; read on gamma0 it is the full LU solve
    seen = {}
    reach_solver = eig._reach_solver

    def spy(factor, pivots, g):
        seen["factor"], seen["g"] = factor, g
        seen["solve"], seen["reach"] = reach_solver(factor, pivots, g)
        return seen["solve"], seen["reach"]

    monkeypatch.setattr(eig, "_reach_solver", spy)
    system = assemble_global(REACH_MESHES[case](), StabilizationSpec())
    result = solve_steklov(system, 6)
    assert result.path == "lanczos" and result.reach == seen["reach"]
    factor, g = seen["factor"], seen["g"]
    y = np.random.default_rng(7).standard_normal(len(g))
    rhs = np.zeros(system.n_dofs)
    rhs[g] = y
    full = factor.solve(rhs)[g]
    assert np.abs(seen["solve"](y) - full).max() <= 1e-13 * np.abs(full).max()
    # R is P g and the parents of its columns, each the smallest row
    # below the diagonal of its column of L, read column by column here
    L, start = factor.L, factor.perm_c[g]
    R = eig._etree_reach(L, start)
    assert len(R) == result.reach
    parents = set()
    for j in R:
        rows = L.indices[L.indptr[j]:L.indptr[j + 1]]
        if np.any(rows > j):
            parents.add(int(rows[rows > j].min()))
    assert set(R.tolist()) == set(start.tolist()) | parents


def test_reach_restricts_the_sweep_mesh():
    # sweep-t5's permuted t5 N=30: the steps solve on 1,571 of 4,690 dofs
    # (1,745 with the LU in the mesh's own numbering)
    mesh = permuted_mesh(30)
    system = assemble_global(mesh, StabilizationSpec())
    result = solve_steklov(system, 6)
    assert result.path == "lanczos"
    assert 0 < result.reach <= system.n_dofs // 2
    assert result.steps > 0


def test_reach_factorization_out_of_memory_classified(monkeypatch):
    # the second splu, of L_RR, fails to allocate: classified as the LU's is
    calls = []
    splu = eig.spla.splu

    def second_fails(*args, **kwargs):
        calls.append(kwargs["permc_spec"])
        if len(calls) == 2:
            raise RuntimeError("SUPERLU_MALLOC fails for expanders")
        return splu(*args, **kwargs)

    monkeypatch.setattr(eig.spla, "splu", second_fails)
    with pytest.raises(FactorizationOutOfMemory, match="SUPERLU_MALLOC fails"):
        solve_steklov(system_for("t5", 8), 6)
    assert calls == ["MMD_AT_PLUS_A", "NATURAL"]


def test_off_lanczos_paths_record_no_steps():
    result = solve_steklov(system_for("t2", 8), 3)
    assert result.path == "schur"
    assert result.steps == result.reach == 0


def stored_pattern(rows, cols, n):
    """The (row, col) pairs as sorted unique keys row * n + col."""
    return np.unique(np.asarray(rows, dtype=np.int64) * n + cols)


def test_gamma0_clique_keeps_the_values_of_ahat():
    # the clique adds explicit zeros only: Ahat's values, the stored pattern
    # of A (explicit zeros included) and B plus every gamma0 x gamma0 pair,
    # sorted columns without duplicates
    for case in ("t2-8", "t5-8", "t5-8-permuted", "t5-10"):
        system = assemble_global(GAMMA0_FACTOR_MESHES[case](), StabilizationSpec())
        n, g = system.n_dofs, system.gamma0_dofs
        identity = np.arange(n, dtype=system.A.indices.dtype)
        clique = eig._with_gamma0_clique(system, identity, g)
        assert clique.format == "csc" and clique.has_canonical_format
        assert (clique != system.Ahat).nnz == 0
        A, B, m = system.A.tocoo(), system.B.tocoo(), len(g)
        expected = stored_pattern(np.concatenate((A.row, B.row, np.repeat(g, m))),
                                  np.concatenate((A.col, B.col, np.tile(g, m))), n)
        entries = clique.tocoo()
        assert np.array_equal(stored_pattern(entries.row, entries.col, n), expected)


@pytest.mark.parametrize("case", ["t2-8", "t5-10", "t5-8-permuted"])
def test_clique_builder_without_gamma0_is_the_lanczos_input(case):
    # the two paths write P Ahat P' in separate code: with no clique pairs
    # the Schur path's builder must hand SuperLU exactly the Lanczos input
    system = assemble_global(GAMMA0_FACTOR_MESHES[case](), StabilizationSpec())
    position = np.argsort(system.dof_order).astype(system.A.indices.dtype)
    clique = eig._with_gamma0_clique(system, position, position[:0])
    shifted = eig._shifted(system, position).tocsc()
    assert np.array_equal(clique.indptr, shifted.indptr)
    assert np.array_equal(clique.indices, shifted.indices)
    assert np.array_equal(clique.data.view(np.uint64), shifted.data.view(np.uint64))


def test_short_gamma0_reads_no_dense_trailing_block():
    # t2 N=32 with gamma0 on its first two top edges (m = 3): the clique
    # leaves 8288 of 8321 dofs after the first gamma0 dof, and a dense
    # q x q trailing block would take 524 MiB.  Lanczos on the clique's LU
    # peaks near 4.4 MiB, most of it the L and U copies of the pivot check.
    system = assemble_global(short_gamma0_mesh(32, 1.0 / 32.0), StabilizationSpec())
    assert len(system.gamma0_dofs) == 3
    result = solve_steklov(system, 1)
    assert result.path == "lanczos" and result.q > system.n_dofs // 2
    tracemalloc.start()
    try:
        solve_steklov(system, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@functools.cache
def sweep_mesh(N, seed, family="t5"):
    """The family's mesh at N, renumbered as sweep-t5 does with ``seed``;
    seed 0 keeps the generator's numbering."""
    if seed == 0:
        return FAMILIES[family](N)
    return permuted_mesh(N, seed, family)


@pytest.mark.parametrize("family,N", [("t5", 30), ("t5", 62), ("t4", 30)],
                         ids=["30", "62", "t4-30"])
def test_lu_does_not_depend_on_the_vertex_numbering(family, N):
    # the LU factors Ahat in the (y, x) dof order, so minimum degree sees one
    # pattern for every numbering of the mesh: in the vertex numbering the
    # reach at t5 N=30 was 1,544 for the generator's and 1,720-1,763 for
    # seeds 1-3, and the Lanczos steps 40-41.  A cancels 4 couplings
    # exactly on t4 and t5 at N=30, and the cancellation must not depend on
    # the numbering either
    results = [solve_steklov(assemble_global(sweep_mesh(N, seed, family),
                                             StabilizationSpec()), 6)
               for seed in (0, 1, 2, 3)]
    ref = results[0]
    assert ref.path == "lanczos" and ref.reach > 0
    for result in results[1:]:
        assert (result.path, result.q, result.steps, result.reach, result.fill) == (
            ref.path, ref.q, ref.steps, ref.reach, ref.fill)
        np.testing.assert_allclose(result.lambdas, ref.lambdas, rtol=1e-10)


def test_schur_trailing_block_does_not_depend_on_the_vertex_numbering():
    # t2 N=16: gamma0 is the top side (m = 33), and the clique puts it in the
    # last q positions of the one ordering whatever the numbering
    mesh = FAMILIES["t2"](16)
    ref = solve_steklov(assemble_global(mesh, StabilizationSpec()), 6)
    assert ref.path == "schur" and ref.q > 0
    for seed in (1, 2, 3):
        result = solve_steklov(assemble_global(renumbered(mesh, seed), StabilizationSpec()), 6)
        assert (result.path, result.q, result.fill) == (ref.path, ref.q, ref.fill)
        np.testing.assert_allclose(result.lambdas, ref.lambdas, rtol=1e-10)


@pytest.mark.parametrize("case,k,path", [
    ("t2-8", 3, "schur"), ("t5-8-permuted", 3, "lanczos"),
    ("t5-10", 3, "lanczos"), ("t5-10", 83, "schur")],
    ids=["t2-8-schur", "t5-8-permuted-lanczos", "t5-10-lanczos", "t5-10-schur"])
def test_lu_input_is_ahat_in_the_dof_order(monkeypatch, case, k, path):
    # SuperLU gets P Ahat P', P the (y, x) dof order: every entry is the
    # entry of A + sigma B at its dofs, bit for bit, the pattern is A's
    # stored one plus, on the Schur path, the gamma0 clique, the indices
    # are sorted so that splu's sum_duplicates has nothing to sort, and the
    # solver reads each gamma0 dof at its position in the order.  t5 N=10 has couplings whose cell
    # contributions cancel exactly; A drops them, as system.Ahat does.
    seen = {}
    factor, reach_solver, read_off = eig._factor, eig._reach_solver, eig._read_off

    def factor_spy(matrix, name, **options):
        # a copy: splu sorts the indices of its input in place
        seen.setdefault("matrix", matrix.copy())
        return factor(matrix, name, **options)

    def reach_spy(factor, pivots, g):
        seen["g"] = g
        return reach_solver(factor, pivots, g)

    def read_off_spy(factor, pivots, g, q, F, k):
        seen["g"] = g
        return read_off(factor, pivots, g, q, F, k)

    monkeypatch.setattr(eig, "_factor", factor_spy)
    monkeypatch.setattr(eig, "_reach_solver", reach_spy)
    monkeypatch.setattr(eig, "_read_off", read_off_spy)
    mesh = GAMMA0_FACTOR_MESHES[case]()
    system = assemble_global(mesh, StabilizationSpec())
    if case == "t5-10":
        assert system.A.nnz == system.A.count_nonzero()
    assert solve_steklov(system, k).path == path
    order = system.dof_order
    x, y = mesh.vertices.T
    assert np.array_equal(order, np.lexsort((x, y)))
    matrix = seen["matrix"]
    assert matrix.format == "csc"
    fresh = sps.csc_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    assert fresh.has_canonical_format
    entries = matrix.tocoo()
    Ahat = system.Ahat
    assert np.array_equal(entries.data,
                          np.asarray(Ahat[order[entries.row], order[entries.col]]).ravel())
    assert np.count_nonzero(entries.data) == Ahat.count_nonzero()
    n, g = system.n_dofs, system.gamma0_dofs
    A, m = system.A.tocoo(), len(g) if path == "schur" else 0
    expected = stored_pattern(np.concatenate((A.row, np.repeat(g, m))),
                              np.concatenate((A.col, np.tile(g, m))), n)
    assert np.array_equal(stored_pattern(order[entries.row], order[entries.col], n),
                          expected)
    # gamma0 in the dof order: ascending positions, each dof at its own
    assert np.all(np.diff(seen["g"]) > 0)
    assert np.array_equal(np.sort(order[seen["g"]]), system.gamma0_dofs)


def renumbered(mesh, seed):
    """The same mesh with its vertices renumbered by a seeded permutation."""
    new_id = np.random.default_rng(seed).permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    return build_mesh(vertices, [new_id[c].tolist() for c in mesh.cells],
                      [(int(new_id[a]), int(new_id[b]), marker)
                       for a, b, marker in mesh.boundary_edges])


@pytest.mark.parametrize("family,N", [("t5", 8), ("t6", 8)])
def test_lambdas_invariant_under_vertex_renumbering(family, N):
    mesh = FAMILIES[family](N)
    ref = solve_steklov(assemble_global(mesh, StabilizationSpec()), 6).lambdas
    for seed in (1, 2, 3):
        system = assemble_global(renumbered(mesh, seed), StabilizationSpec())
        np.testing.assert_allclose(solve_steklov(system, 6).lambdas, ref,
                                   rtol=1e-10)


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
def test_lambdas_scale_as_inverse_length(s):
    # A is invariant under x -> s x in 2D and B scales by s, so s lambda(s)
    # = lambda(1); 1/mu - 1 loses up to 2e-8 of it, the Rayleigh quotient
    # does not
    mesh = FAMILIES["t5"](8)
    ref = solve_steklov(assemble_global(mesh, StabilizationSpec()), 3).lambdas
    scaled = build_mesh(s * mesh.vertices, mesh.cells, mesh.boundary_edges)
    lambdas = solve_steklov(assemble_global(scaled, StabilizationSpec()), 3).lambdas
    np.testing.assert_allclose(s * lambdas, ref, rtol=1e-10)


@functools.cache
def unmoved_lambdas(family):
    return solve_steklov(system_for(family, 8), 6).lambdas


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(FAMILIES)),
       theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_lambdas_invariant_under_rigid_motion(family, theta, shift):
    # the shoelace sums run on coordinates relative to each cell's first
    # vertex, so a shift by 1e3 costs no digits of |K|; on absolute
    # coordinates such shifts moved lambda by up to 1.7e-10 here.  Near 1e6
    # the input coordinates themselves round at about 1e-10 absolute
    mesh = FAMILIES[family](8)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = build_mesh(mesh.vertices @ rot.T + np.array(shift), mesh.cells,
                       mesh.boundary_edges)
    lambdas = solve_steklov(assemble_global(moved, StabilizationSpec()), 6).lambdas
    np.testing.assert_allclose(lambdas, unmoved_lambdas(family), rtol=1e-10)


def test_solve_allocates_no_dense_n_by_m_block():
    # t5 N=30: n = 4690 dofs, m = 234 gamma0 dofs.  The solver's own arrays
    # are the LU factors and the L, U copies behind the SPD pivot check (tens
    # of doubles per dof here; Ahat goes to SuperLU as the CSC view of its
    # own CSR arrays), a dozen n x (k + 1) blocks and a few m x m ones; a
    # dense n x m array alone exceeds that sum.
    system = system_for("t5", 30)
    n, m, k = system.n_dofs, len(system.gamma0_dofs), 6
    bound = 8 * (60 * n + 12 * n * (k + 1) + 4 * m * m)
    assert 8 * n * m > bound
    solve_steklov(system, k)
    tracemalloc.start()
    try:
        solve_steklov(system, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_solve_frees_the_lu_before_the_pack():
    # t2 N=32: 8,321 dofs, nnz(L+U) = 308,214.  The L and U copies that the
    # SPD pivot check caches on the factor take about 3.5 MiB and packing
    # the k + 1 vectors peaks near 3.4 MiB.  Freed before the pack, the LU
    # leaves a tracemalloc peak of 4.5 MiB; held through it, 7.0 MiB.
    system = system_for("t2", 32)
    solve_steklov(system, 6)
    tracemalloc.start()
    try:
        solve_steklov(system, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_solve_holds_no_dense_gamma0_block():
    # t5 N=62: 18,722 dofs, m = 474 gamma0 dofs.  A dense m x m Cholesky
    # factor and the m x m gamma0 block it was taken from are 1.7 MiB each;
    # with them the traced peak is 12.8 MiB, with the sparse edge factor F
    # of the gamma0 mass 11.2 MiB.
    system = system_for("t5", 62)
    solve_steklov(system, 6)
    tracemalloc.start()
    try:
        solve_steklov(system, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def refined_t6_mesh():
    """t6 N=32 after two corner-refinement sweeps, the cli-lshape mesh."""
    mesh = FAMILIES["t6"](32)
    for level in (1, 2):
        mesh = refine_lshape_corner(mesh, level, 32)
    return mesh


GAMMA0_FACTOR_MESHES = {
    **{f"{family}-8": functools.partial(FAMILIES[family], 8) for family in FAMILIES},
    "t6-32-refined-2": refined_t6_mesh,
    "t5-8-permuted": lambda: permuted_mesh(),
    # n = 675, m = 84, and 4 couplings whose cell contributions cancel
    "t5-10": functools.partial(FAMILIES["t5"], 10),
}


@pytest.mark.parametrize("case", sorted(GAMMA0_FACTOR_MESHES))
def test_gamma0_factor_reproduces_the_mass_block(case):
    # one row per gamma0 edge with its two ends, one row per gamma0 dof
    mesh = GAMMA0_FACTOR_MESHES[case]()
    system = assemble_global(mesh, StabilizationSpec())
    g = system.gamma0_dofs
    B_gg = system.B[g][:, g]
    F = eig._gamma0_factor(B_gg)
    n_edges = len(mesh.gamma0_edges())
    assert F.shape == (n_edges + len(g), len(g))
    assert np.array_equal(np.diff(F.indptr), [2] * n_edges + [1] * len(g))
    error = np.abs((F.T @ F - B_gg).toarray()).max()
    assert error <= 1e-15 * np.abs(B_gg.data).max()


@pytest.mark.parametrize("B_gg", [
    [[2.0, -1.0], [-1.0, 2.0]],     # positive definite, but a negative coupling
    [[1.0, 1.0], [1.0, 1.0]],       # a dof whose couplings use up its diagonal
])
def test_gamma0_factor_needs_edge_mass_structure(B_gg):
    with pytest.raises(RankDeficientGamma0Mass):
        eig._gamma0_factor(sps.csr_matrix(B_gg))


def test_dense_oracle_counts_rank_of_b():
    system = system_for("t1", 4)
    result = dense_reference_solve(system)
    # one nonzero mu is consumed by the constant mode
    assert len(result.lambdas) == len(system.gamma0_dofs) - 1


@pytest.mark.parametrize("n,eps", [(4, 1e-11), (8, 1e-11), (16, 1e-12)])
def test_dense_oracle_proves_rank_on_tiny_gamma0_edges(n, eps):
    # valid meshes whose m-th largest mu is near 6e-13 (6e-14 at eps =
    # 1e-12): counting mu above 1e-12 found 21 of 28, 44 of 60 and 64 of
    # 124 and raised RankDeficientGamma0Mass.  Both solvers are backward
    # stable to 1e-16 here, but 1e-11 edges leave lambda conditioned to
    # about 1e-5 only, so they agree to criterion 8's 1e-4
    system = assemble_global(uniform_square_mesh(n, eps), StabilizationSpec())
    oracle = dense_reference_solve(system)
    assert oracle.zero_mode_detected
    assert len(oracle.lambdas) == len(system.gamma0_dofs) - 1
    np.testing.assert_allclose(solve_steklov(system, 6).lambdas,
                               oracle.lambdas[:6], rtol=1e-4)


def test_dense_oracle_rejects_large_systems():
    system = system_for("t2", 32)
    with pytest.raises(TooLarge):
        dense_reference_solve(system)


def test_lambdas_sorted_positive_and_residuals_small():
    system = system_for("t2", 8)
    result = solve_steklov(system, 6)
    assert np.all(result.lambdas > 0.0)
    assert np.all(np.diff(result.lambdas) > 0.0)
    assert np.all(result.residuals <= 1e-8 * (1.0 + result.lambdas))


def test_b_orthogonality():
    system = system_for("t2", 8)
    result = solve_steklov(system, 6)
    U = result.vectors
    M = U.T @ (system.B @ U)
    off = M - np.diag(np.diag(M))
    assert np.abs(off).max() < 1e-8


def test_repeated_solves_bitwise_identical():
    system = system_for("t2", 8)
    first, second = solve_steklov(system, 6), solve_steklov(system, 6)
    assert np.array_equal(first.lambdas, second.lambdas)
    assert np.array_equal(first.vectors, second.vectors)


def test_indefinite_ahat_rejected():
    system = system_for("t2", 4)
    indefinite = dataclasses.replace(system, A=system.A - 2.0 * system.shift * system.B)
    with pytest.raises(NotSPD):
        solve_steklov(indefinite, 3)


@pytest.mark.parametrize("error, expected", [
    (RuntimeError("SUPERLU_MALLOC fails for expanders"), FactorizationOutOfMemory),
    (RuntimeError("Not enough memory to perform factorization."), FactorizationOutOfMemory),
    (MemoryError("Out of memory."), FactorizationOutOfMemory),
    (RuntimeError("Factor is exactly singular"), NotSPD),
])
def test_factorization_failure_classified_by_message(monkeypatch, error, expected):
    # an allocation failure inside SuperLU says nothing about definiteness
    def failing_splu(*args, **kwargs):
        raise error

    monkeypatch.setattr(eig.spla, "splu", failing_splu)
    with pytest.raises(SolverError) as info:
        solve_steklov(system_for("t2", 4), 3)
    assert type(info.value) is expected
    assert str(error) in str(info.value)


def test_singular_gamma0_mass_rejected():
    # zeroing the row and column of one gamma0 dof leaves B rank m - 1
    system = system_for("t2", 4)
    keep = sps.diags((np.arange(system.n_dofs) != system.gamma0_dofs[0]).astype(float))
    singular = dataclasses.replace(system, B=(keep @ system.B @ keep).tocsr())
    with pytest.raises(RankDeficientGamma0Mass):
        solve_steklov(singular, 3)
    with pytest.raises(RankDeficientGamma0Mass):
        dense_reference_solve(singular)


def test_residuals_are_scale_invariant_backward_errors():
    mesh = FAMILIES["t5"](8)
    system = assemble_global(mesh, StabilizationSpec())
    result = solve_steklov(system, 6)
    # a power-of-two scale is exact in floating point, so the scaled solve
    # repeats the same arithmetic; ||A u - lambda B u|| / ||u|| would grow
    # by the scale factor, the backward error must not move at all
    c = 2.0 ** 20
    scaled = solve_steklov(dataclasses.replace(
        system, A=c * system.A, B=c * system.B), 6)
    assert np.array_equal(scaled.lambdas, result.lambdas)
    assert np.array_equal(scaled.residuals, result.residuals)
    assert np.all(result.residuals <= 1e-14)
    # the mesh scaled by c: A is unchanged, B and 1 / shift scale by c
    # exactly, so Ahat is the same to the bit and c lambda(c) = lambda(1)
    big = build_mesh(c * mesh.vertices, mesh.cells, mesh.boundary_edges)
    enlarged = solve_steklov(assemble_global(big, StabilizationSpec()), 6)
    assert np.array_equal(c * enlarged.lambdas, result.lambdas)
    assert np.array_equal(enlarged.residuals, result.residuals)


def test_constant_mode_always_filtered():
    for family, N in [("t1", 4), ("t6", 8)]:
        system = system_for(family, N)
        result = solve_steklov(system, 3)
        assert result.zero_mode_detected
        assert result.lambdas[0] > 1e-3


# ---------------------------------------------------------------------------
# eigenfunction extraction


def test_eigenfunction_sign_and_scale_convention():
    mesh = FAMILIES["t1"](8)
    system = assemble_global(mesh, StabilizationSpec())
    result = solve_steklov(system, 2)
    field = eigenfunction_field(result, 0)
    assert np.abs(field).max() == pytest.approx(1.0)
    assert field[np.argmax(np.abs(field))] > 0.0
    flipped = result.__class__(lambdas=result.lambdas, vectors=-result.vectors,
                               zero_mode_detected=result.zero_mode_detected,
                               residuals=result.residuals)
    np.testing.assert_allclose(eigenfunction_field(flipped, 0), field)
    assert field.max() - field.min() > 1e-6


@pytest.mark.parametrize("i", [-1, 2], ids=["negative", "k"])
def test_eigenfunction_field_rejects_out_of_range_index(i):
    # k = 2 modes, numbered 0 and 1
    result = solve_steklov(assemble_global(FAMILIES["t1"](4), StabilizationSpec()), 2)
    with pytest.raises(IndexError, match="out of range"):
        eigenfunction_field(result, i)


def test_first_sloshing_mode_trace_is_cosine():
    mesh = FAMILIES["t1"](32)
    system = assemble_global(mesh, StabilizationSpec())
    result = solve_steklov(system, 1)
    field = eigenfunction_field(result, 0)
    top = mesh.gamma0_vertices()
    xs = mesh.vertices[top, 0]
    ref = np.cos(math.pi * xs)
    corr = abs(np.corrcoef(field[top], ref)[0, 1])
    assert corr >= 0.999


# ---------------------------------------------------------------------------
# edges at rounding level


@pytest.mark.parametrize("n,eps", [(4, None), (16, None), (4, 1e-8), (8, 1e-8)])
def test_degenerate_pairs_come_out_ascending(n, eps):
    # the square's symmetric pairs are equal to rounding (1e-8 edges split
    # them by ~1e-9): their Rayleigh quotients need not follow the order
    # of mu, so the result is sorted on lambda itself
    system = assemble_global(uniform_square_mesh(n, eps), StabilizationSpec())
    lambdas = solve_steklov(system, 6).lambdas
    assert np.all(np.diff(lambdas) >= 0.0)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("eps", [1e-10, 1e-11])
def test_tiny_edges_keep_spectrum_and_zero_mode(n, eps):
    clean = solve_steklov(
        assemble_global(uniform_square_mesh(n), StabilizationSpec()), 6)
    split = solve_steklov(
        assemble_global(uniform_square_mesh(n, eps), StabilizationSpec()), 6)
    assert split.zero_mode_detected
    np.testing.assert_allclose(split.lambdas, clean.lambdas, rtol=1e-4)
    assert np.all(split.residuals <= 1e-10)


@pytest.mark.parametrize("n", [8, 16])
def test_read_off_lifts_every_mode_of_small_gamma0_edges(n):
    # a 1e-3 gamma0 edge in every boundary cell: at k = m - 1 the read-off
    # returns modes up to lambda ~ 1.7e4, where mu is 7e4 times below its
    # largest value.  It lifts T^{-1} z; lifting F'w = B_gg T'z instead
    # scales the error of z along each other mode j by mu_j / mu, and the
    # worst backward error was 5.7e-10 at n = 8
    system = assemble_global(uniform_square_mesh(n, 1e-3), StabilizationSpec())
    k = len(system.gamma0_dofs) - 1
    result = solve_steklov(system, k)
    assert result.path == "schur" and result.lambdas[-1] > 1e4
    assert result.residuals.max() <= 1e-11
    np.testing.assert_allclose(result.lambdas, dense_reference_solve(system).lambdas[:k],
                               rtol=1e-10)
