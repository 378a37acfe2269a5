"""Acceptance gate: headline quantitative targets, one pass/fail line each.

Each test prints a single summary line (directly to the terminal, past
pytest's capture) before asserting, so the final report always shows the
verdict for every criterion.
"""

import sys

import numpy as np
import pytest

from steklovem.analysis import (
    LSHAPE_LAMBDA1_REF,
    exact_square_eigenvalue,
    extrapolate,
    fit_order,
    run_study,
)
from steklovem.eig import dense_reference_solve, solve_steklov
from steklovem.mesh import GAMMA0, _edge_arrays, build_mesh
from steklovem.meshgen import FAMILIES, gen_lshape_uniform, refine_lshape_corner
from steklovem.vem import (
    StabilizationSpec,
    assemble_global,
)
from meshes import uniform_square_mesh
from vem_reference import local_operators, total_area

TABLE_T2_N64 = np.array([3.1308, 6.2907, 9.4503, 12.6275, 15.8287, 19.0608])
EXACT6 = np.array([exact_square_eigenvalue(n) for n in range(1, 7)])
SWEEP_ALPHAS = (0.5, 0.75, 1.0, 1.25, 1.5)


def verdict(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def lambda1(mesh, spec=None):
    system = assemble_global(mesh, spec or StabilizationSpec())
    return solve_steklov(system, 1).lambdas[0]


# ---------------------------------------------------------------------------
# shared heavy computations


@pytest.fixture(scope="module")
def sweep_studies():
    return {alpha: run_study("t2", [8, 16, 32, 64], 6,
                             StabilizationSpec(alpha=alpha))
            for alpha in SWEEP_ALPHAS}


@pytest.fixture(scope="module")
def t2_study(sweep_studies):
    return sweep_studies[1.0]


@pytest.fixture(scope="module")
def t1_study():
    return run_study("t1", [8, 16, 32, 64], 6)


# ---------------------------------------------------------------------------
# 1. square sloshing exactness


def test_criterion_1_square_exactness(t2_study):
    computed = t2_study.eigenvalues[-1]          # N = 64 level
    table_diff = np.abs(computed - TABLE_T2_N64)
    exact_rel = np.abs(computed - EXACT6) / EXACT6
    ok = bool(np.all(table_diff <= 5e-3) and np.all(exact_rel <= 3.5e-3))
    verdict(1, ok,
            f"t2 N=64 vs table max|diff| = {table_diff.max():.2e} "
            f"(limit 5e-3), vs exact max rel = {exact_rel.max():.2e} "
            f"(limit 3.5e-3)")


# ---------------------------------------------------------------------------
# 2. quadratic order on smooth problems


def test_criterion_2_quadratic_orders(t1_study, t2_study):
    orders = np.concatenate([t1_study.orders, t2_study.orders])
    ok = bool(np.all((orders >= 1.85) & (orders <= 2.15)))
    verdict(2, ok,
            f"t1+t2 fitted orders in [{orders.min():.3f}, {orders.max():.3f}] "
            "(required [1.85, 2.15])")


# ---------------------------------------------------------------------------
# 3. stabilization sweep


def test_criterion_3_stabilization_sweep(sweep_studies):
    problems = []
    for alpha, study in sweep_studies.items():
        if study.orders[0] < 1.7:
            problems.append(f"alpha={alpha}: order1 {study.orders[0]:.2f}")
        coarse = np.abs(study.eigenvalues[0] - EXACT6) / EXACT6
        fine = np.abs(study.eigenvalues[-1] - EXACT6) / EXACT6
        if coarse.max() > 0.35:
            problems.append(f"alpha={alpha}: N=8 max rel {coarse.max():.2f}")
        if fine.max() > 0.02:
            problems.append(f"alpha={alpha}: N=64 max rel {fine.max():.3f}")
        if not np.all(np.diff(study.eigenvalues, axis=1) > 0.0):
            problems.append(f"alpha={alpha}: ordering broken")
    verdict(3, not problems,
            "; ".join(problems) if problems
            else "orders >= 1.7, modes within 35%/2% bands, ordering intact")


# ---------------------------------------------------------------------------
# 4. singular-domain order


def test_criterion_4_rotated_t_order():
    study = run_study("t5", [16, 30, 62, 130], 1)
    order = float(study.orders[0])
    lam_star = float(study.references[0])
    ok = 1.25 <= order <= 1.55 and abs(lam_star - 0.5130) <= 2e-3
    verdict(4, ok,
            f"rotated-T lambda1 fitted order {order:.3f} "
            f"(required [1.25, 1.55]), extrapolated {lam_star:.5f} "
            "(required 0.5130 +- 2e-3)")


# ---------------------------------------------------------------------------
# 5. L-shape corner refinement payoff


def test_criterion_5_lshape_refinement():
    uniform_err = abs(lambda1(gen_lshape_uniform(128)) - LSHAPE_LAMBDA1_REF)
    mesh = gen_lshape_uniform(32)
    for level in range(1, 5):
        mesh = refine_lshape_corner(mesh, level, 32)
    refined_err = abs(lambda1(mesh) - LSHAPE_LAMBDA1_REF)
    ok = (refined_err <= uniform_err
          and refined_err <= 1.5 * 8.3700903e-4
          and refined_err >= 8.3700903e-4 / 1.5
          and uniform_err <= 1.5 * 9.4471094e-4
          and uniform_err >= 9.4471094e-4 / 1.5)
    verdict(5, ok,
            f"refined ({mesh.n_vertices} dofs) err {refined_err:.3e} <= "
            f"uniform (12545 dofs) err {uniform_err:.3e}; "
            "targets 8.4e-4 / 9.4e-4 within factor 1.5")


# ---------------------------------------------------------------------------
# 6. sparse/dense oracle equivalence


def test_criterion_6_oracle_equivalence():
    meshes = [FAMILIES[f](N) for f, N in
              [("t1", 2), ("t1", 8), ("t2", 1), ("t2", 8), ("t3", 4),
               ("t3", 8), ("t4", 4), ("t5", 4), ("t6", 4), ("t6", 16),
               ("t6", 32)]]
    meshes.append(refine_lshape_corner(gen_lshape_uniform(32), 1, 32))
    worst = 0.0
    for mesh in meshes:
        assert mesh.n_vertices <= 2000
        system = assemble_global(mesh, StabilizationSpec())
        k = min(6, len(system.gamma0_dofs) - 1)
        fast = solve_steklov(system, k).lambdas
        slow = dense_reference_solve(system).lambdas[:k]
        worst = max(worst, float(np.max(np.abs(fast - slow) / slow)))
    ok = worst <= 1e-9
    verdict(6, ok, f"{len(meshes)} meshes <= 2000 dofs, worst rel "
                   f"disagreement {worst:.2e} (limit 1e-9)")


# ---------------------------------------------------------------------------
# 7. property suite


def scaled_lambda_ratio(scale):
    base = FAMILIES["t2"](4)
    scaled = build_mesh(base.vertices * scale, base.cells,
                        base.boundary_edges)
    return lambda1(base) / lambda1(scaled)


def test_criterion_7_property_suite():
    problems = []
    rng = np.random.default_rng(0)

    # P1 reproduction on an irregular polygon
    verts = np.array([[0, 0], [1.3, -0.1], [1.5, 0.9], [0.7, 1.4],
                      [-0.2, 0.8]])
    bnd = [(i, (i + 1) % 5, GAMMA0) for i in range(5)]
    pentagon = build_mesh(verts, [[0, 1, 2, 3, 4]], bnd)
    coords, area = pentagon.vertices[pentagon.cells[0]], total_area(pentagon)
    ops = local_operators(coords, StabilizationSpec())
    G, P = ops.G, ops.P
    w = 0.7 + 1.1 * coords[:, 0] - 2.3 * coords[:, 1]
    if not (np.allclose(G @ w, [1.1, -2.3], atol=1e-13)
            and np.allclose(P @ w, w, atol=1e-13)):
        problems.append("P1 reproduction")

    # patch test
    A = ops.A_K
    wl = 0.5 * coords[:, 0] + 2.0 * coords[:, 1]
    if abs(wl @ A @ wl - area * (0.25 + 4.0)) > 1e-12 * area * 4.25:
        problems.append("patch test")

    # triangle = P1 FEM (cot formula)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    bnd3 = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 0, GAMMA0)]
    triangle = build_mesh(tri, [[0, 1, 2]], bnd3)
    At = local_operators(triangle.vertices[triangle.cells[0]], StabilizationSpec()).A_K
    fem = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            ei = tri[(i + 2) % 3] - tri[(i + 1) % 3]
            ej = tri[(j + 2) % 3] - tri[(j + 1) % 3]
            fem[i, j] = np.dot(ei, ej) / (4.0 * total_area(triangle))
    if not np.allclose(At, fem, atol=1e-12):
        problems.append("triangle FEM equivalence")

    # global kernel, SPD shift, stabilization PSD
    for family in sorted(FAMILIES):
        for N in (8, 16):
            system = assemble_global(FAMILIES[family](N),
                                     StabilizationSpec())
            if np.abs(system.A @ np.ones(system.n_dofs)).max() > 1e-10:
                problems.append(f"A·1=0 ({family}, N={N})")
            try:
                np.linalg.cholesky(system.Ahat.toarray())
            except np.linalg.LinAlgError:
                problems.append(f"Ahat Cholesky ({family}, N={N})")
    eigs = np.linalg.eigvalsh(ops.S_K)
    if eigs.min() < -1e-10 * eigs.max() or np.abs(
            ops.S_K @ np.ones(5)).max() > 1e-12:
        problems.append("S_K PSD/kernel")

    # exact scaling law lambda(s*Omega) = lambda(Omega)/s
    for s in (0.5, 2.0):
        if abs(scaled_lambda_ratio(s) - s) > 1e-10 * s:
            problems.append(f"scaling law s={s}")

    # B-orthogonality
    system = assemble_global(FAMILIES["t2"](8), StabilizationSpec())
    U = solve_steklov(system, 6).vectors
    M = U.T @ (system.B @ U)
    if np.abs(M - np.diag(np.diag(M))).max() > 1e-8:
        problems.append("B-orthogonality")

    # extrapolation round trip
    hs = 0.25 * 2.0 ** -np.arange(5)
    lam, c, a = extrapolate(hs, 1.7 + 0.9 * hs ** 1.3)
    if abs(lam - 1.7) > 1e-6 or abs(a - 1.3) > 1e-5:
        problems.append("extrapolate round trip")

    verdict(7, not problems,
            "; ".join(problems) if problems else "all property checks hold")


# ---------------------------------------------------------------------------
# 8. small-edge robustness


@pytest.mark.parametrize("n", [8, 16])
def test_rounding_level_flat_vertex_mesh_builds(n):
    # each boundary cell gains a flat vertex 1e-14 from a corner, so the edge
    # after it starts 1e-14 from that corner on the same line; the crossing
    # check's on-segment slack is the zero-edge floor ZERO_EDGE_REL_TOL * h_K,
    # so the corner no longer counts as lying on that edge
    mesh = uniform_square_mesh(n, eps=1e-14)
    assert mesh.n_vertices == (n + 1) ** 2 + 4 * (n - 1)


def test_criterion_8_small_edge_robustness():
    problems = []
    rels = []
    for n in (8, 16):
        clean = lambda1(uniform_square_mesh(n))
        split = lambda1(uniform_square_mesh(n, eps=1e-8))
        rels.append(abs(split - clean) / clean)
    if max(rels) >= 1e-4:
        problems.append(f"lambda1 shift {max(rels):.2e} >= 1e-4")

    # property checks on the perturbed mesh; tolerances scale with the
    # matrix norm because 1e-8 edges put 1e8 entries into the
    # stabilization, so contractions carry O(norm * machine eps) noise
    mesh = uniform_square_mesh(8, eps=1e-8)
    system = assemble_global(mesh, StabilizationSpec())
    a_scale = np.abs(system.A).max()
    if np.abs(system.A @ np.ones(system.n_dofs)).max() > 1e-12 * a_scale:
        problems.append("A·1=0 on perturbed mesh")
    try:
        np.linalg.cholesky(system.Ahat.toarray())
    except np.linalg.LinAlgError:
        problems.append("Ahat Cholesky on perturbed mesh")
    for cell, ids in enumerate(mesh.cells):
        if len(ids) == 4:
            continue
        coords = mesh.vertices[ids]
        ops = local_operators(coords, StabilizationSpec())
        G, P = ops.G, ops.P
        w = 1.0 + 2.0 * coords[:, 0] - 0.5 * coords[:, 1]
        if not (np.allclose(G @ w, [2.0, -0.5], atol=1e-10)
                and np.allclose(P @ w, w, atol=1e-10)):
            problems.append(f"P1 reproduction on tiny-edge cell {cell}")
            break
        A = ops.A_K
        energy = w @ A @ w
        noise = np.abs(A).max() * np.abs(w).max() ** 2 * 1e-14
        area = 0.5 * np.sum(_edge_arrays(*coords.T)[-1])
        if abs(energy - area * 4.25) > 1e-9 + noise:
            problems.append(f"patch test on tiny-edge cell {cell}")
            break

    verdict(8, not problems,
            "; ".join(problems) if problems
            else f"1e-8 edge insertions shift lambda1 by at most "
                 f"{max(rels):.2e} (limit 1e-4); properties intact")
