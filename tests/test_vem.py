"""Local virtual element operators and global assembly."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from steklovem.errors import DegenerateElement
from steklovem.mesh import GAMMA0, GAMMA1, build_mesh, element_geometry, mesh_to_dict
from steklovem.meshgen import FAMILIES
from steklovem.vem import (
    StabilizationSpec,
    assemble_global,
    boundary_mass_edge,
    local_operators,
    local_projector,
    local_stiffness,
    stability_matrix,
    triple_norm,
)

SQRT2 = math.sqrt(2.0)


def single_cell(verts, gamma0_edges=()):
    verts = np.asarray(verts, dtype=float)
    n = len(verts)
    bnd = [(i, (i + 1) % n, GAMMA0 if (i, (i + 1) % n) in gamma0_edges
            else GAMMA1) for i in range(n)]
    if not gamma0_edges:
        bnd = [(i, (i + 1) % n, GAMMA0) for i in range(n)]
    return build_mesh(verts, [list(range(n))], bnd)


def geom_of(verts):
    return element_geometry(single_cell(verts), 0)


UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


# ---------------------------------------------------------------------------
# projector


def test_projector_reproduces_x_on_square():
    g = geom_of(UNIT_SQUARE)
    G, mean_row, P = local_projector(g)
    w = np.array([0.0, 1.0, 1.0, 0.0])       # dofs of v(x, y) = x
    np.testing.assert_allclose(G @ w, [1.0, 0.0], atol=1e-14)
    assert mean_row @ w == pytest.approx(0.5)
    np.testing.assert_allclose(P @ w, w, atol=1e-14)


def test_projector_kills_gradient_of_constants():
    g = geom_of([[0, 0], [2, 0.3], [1.7, 1.9], [0.2, 1.4]])
    G, _, P = local_projector(g)
    w = 3.25 * np.ones(4)
    np.testing.assert_allclose(G @ w, [0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(P @ w, w, atol=1e-13)


def test_projector_p1_reproduction_general_polygon():
    g = geom_of([[0, 0], [1.3, -0.1], [1.5, 0.9], [0.7, 1.4], [-0.2, 0.8]])
    G, _, P = local_projector(g)
    for a, b, c in [(1.0, 2.0, -0.5), (0.0, -1.0, 3.0)]:
        w = a + b * g.coords[:, 0] + c * g.coords[:, 1]
        np.testing.assert_allclose(G @ w, [b, c], atol=1e-13)
        np.testing.assert_allclose(P @ w, w, atol=1e-13)


def test_projector_matches_quadrature_oracle():
    # independent oracle: build the 3x3 normal equations of the projector
    # from high-resolution boundary quadrature of the piecewise-linear trace
    mesh = FAMILIES["t2"](2)
    rng = np.random.default_rng(7)
    for cell in range(0, mesh.n_cells, 3):
        g = element_geometry(mesh, cell)
        w = rng.standard_normal(g.n_vertices)

        nq = 2000
        pts, vals, wts = [], [], []
        for e in range(g.n_vertices):
            i, j = g.edge_nodes[e]
            t = (np.arange(nq) + 0.5) / nq
            pts.append(g.coords[i][None, :] * (1 - t[:, None])
                       + g.coords[j][None, :] * t[:, None])
            vals.append(w[i] * (1 - t) + w[j] * t)
            wts.append(np.full(nq, g.edge_lengths[e] / nq))
        pts = np.vstack(pts)
        vals = np.concatenate(vals)
        wts = np.concatenate(wts)

        # gradient: a(v, q) = ∮ v ∂_n q for harmonic q in P1
        grad = np.zeros(2)
        for e in range(g.n_vertices):
            i, j = g.edge_nodes[e]
            grad += g.edge_normals[e] * g.edge_lengths[e] * 0.5 * (w[i] + w[j])
        grad /= g.area
        vbar = np.sum(wts * vals) / g.boundary_length

        G, mean_row, P = local_projector(g)
        np.testing.assert_allclose(G @ w, grad, atol=1e-12)
        assert mean_row @ w == pytest.approx(vbar, abs=1e-9)
        proj_bar = np.sum(
            wts * (vbar + (pts - np.array(g.boundary_centroid)) @ grad)
        ) / g.boundary_length
        assert proj_bar == pytest.approx(vbar, abs=1e-9)


# ---------------------------------------------------------------------------
# stabilization


def test_stability_matrix_unit_square_closed_form():
    S = stability_matrix(geom_of(UNIT_SQUARE), StabilizationSpec(alpha=1.0))
    expected = SQRT2 * np.array([[2, -1, 0, -1],
                                 [-1, 2, -1, 0],
                                 [0, -1, 2, -1],
                                 [-1, 0, -1, 2]], dtype=float)
    np.testing.assert_allclose(S, expected, atol=1e-13)


def test_stability_annihilates_constants():
    g = geom_of([[0, 0], [2, 0], [2.4, 1.1], [0.5, 1.7]])
    S = stability_matrix(g, StabilizationSpec(alpha=1.5))
    np.testing.assert_allclose(S @ np.ones(4), 0.0, atol=1e-12)


def test_stability_small_edge_psd():
    eps = 1e-8
    g = geom_of([[0, 0], [eps, 0], [1, 0], [1, 1], [0, 1]])
    S = stability_matrix(g, StabilizationSpec())
    assert S[0, 1] == pytest.approx(-SQRT2 / eps, rel=1e-12)
    eigs = np.linalg.eigvalsh(S)
    assert eigs.min() >= -1e-10 * np.abs(eigs).max()


def test_stabilization_spec_validates_alpha():
    with pytest.raises(ValueError):
        StabilizationSpec(alpha=0.1)
    with pytest.raises(ValueError):
        StabilizationSpec(alpha=2.5)


# ---------------------------------------------------------------------------
# local stiffness


def fem_p1_stiffness(tri):
    """Cotangent-formula P1 stiffness for a triangle (oracle)."""
    tri = np.asarray(tri, dtype=float)
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    K = np.zeros((3, 3))
    # gradient of barycentric basis i is perpendicular to the opposite edge
    for i in range(3):
        for j in range(3):
            ei = tri[(i + 2) % 3] - tri[(i + 1) % 3]
            ej = tri[(j + 2) % 3] - tri[(j + 1) % 3]
            K[i, j] = np.dot(ei, ej) / (4.0 * area)
    return K


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_triangle_equals_p1_fem(alpha):
    tri = [[0.1, -0.2], [1.4, 0.3], [0.5, 1.2]]
    A = local_stiffness(geom_of(tri), StabilizationSpec(alpha=alpha))
    np.testing.assert_allclose(A, fem_p1_stiffness(tri), atol=1e-12)


def test_patch_test_energy_of_linears():
    g = geom_of([[0, 0], [1.1, 0.1], [1.3, 0.9], [0.4, 1.2], [-0.1, 0.6]])
    A = local_stiffness(g, StabilizationSpec())
    for b, c in [(1.0, 0.0), (0.3, -2.0), (1.5, 1.5)]:
        w = b * g.coords[:, 0] + c * g.coords[:, 1]
        assert w @ A @ w == pytest.approx(g.area * (b * b + c * c), rel=1e-12)


def test_local_stiffness_symmetric_psd_kernel_constants():
    g = geom_of([[0, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 1]])
    A = local_stiffness(g, StabilizationSpec())
    np.testing.assert_allclose(A, A.T, atol=1e-13)
    np.testing.assert_allclose(A @ np.ones(5), 0.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-10 * eigs.max()
    assert np.sum(eigs < 1e-10 * eigs.max()) == 1   # kernel is span{1}


def test_local_stiffness_unit_square_symbolic():
    # |K| G^T G has rank 2; on the unit square G maps to the average of
    # opposite-edge differences, and (I - P) S (I - P) supplies the rest
    g = geom_of(UNIT_SQUARE)
    ops = local_operators(g, StabilizationSpec())
    consistency = g.area * ops.G.T @ ops.G
    IP = np.eye(4) - ops.P
    np.testing.assert_allclose(
        ops.A_K, consistency + IP.T @ ops.S_K @ IP, atol=1e-13)
    expected_consistency = 0.25 * np.array([[2, 0, -2, 0],
                                            [0, 2, 0, -2],
                                            [-2, 0, 2, 0],
                                            [0, -2, 0, 2]], dtype=float)
    np.testing.assert_allclose(consistency, expected_consistency, atol=1e-13)


# ---------------------------------------------------------------------------
# boundary mass


def test_boundary_mass_closed_forms():
    np.testing.assert_allclose(boundary_mass_edge(1.0),
                               [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
    np.testing.assert_allclose(boundary_mass_edge(2.0),
                               [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)
    L = 0.37
    assert np.ones(2) @ boundary_mass_edge(L) @ np.ones(2) == pytest.approx(L)


# ---------------------------------------------------------------------------
# triple norm


def test_triple_norm_constants_and_homogeneity():
    # t2 has one vertex count, t5 several
    for mesh in (FAMILIES["t2"](2), FAMILIES["t5"](4)):
        assert triple_norm(mesh, np.ones(mesh.n_vertices),
                           StabilizationSpec()) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(mesh.n_vertices)
        base = triple_norm(mesh, v, StabilizationSpec())
        assert triple_norm(mesh, -2.5 * v,
                           StabilizationSpec()) == pytest.approx(2.5 * base,
                                                                 rel=1e-12)
        # per-cell loop over the single-cell operators as the reference
        total = 0.0
        for c in range(mesh.n_cells):
            g = element_geometry(mesh, c)
            ops = local_operators(g, StabilizationSpec())
            w = v[g.vertex_ids]
            grad = ops.G @ w
            dev = w - ops.mean_row @ w
            total += g.area * (grad @ grad) + dev @ ops.S_K @ dev
        assert base == pytest.approx(math.sqrt(total), rel=1e-13, abs=0)


def test_triple_norm_of_x_on_unit_square():
    mesh = single_cell(UNIT_SQUARE)
    w = mesh.vertices[:, 0].copy()
    # consistency part: |K| |grad x|^2 = 1; mean-deviation part:
    # S(x - 1/2, x - 1/2) with the closed-form square S of the tests above
    S = stability_matrix(element_geometry(mesh, 0), StabilizationSpec())
    dev = w - 0.5
    expected = math.sqrt(1.0 + dev @ S @ dev)
    assert triple_norm(mesh, w, StabilizationSpec()) == pytest.approx(
        expected, rel=1e-12)


# ---------------------------------------------------------------------------
# global assembly


def test_assemble_single_square_cell():
    mesh = build_mesh(np.asarray(UNIT_SQUARE, dtype=float), [[0, 1, 2, 3]],
                      [(0, 1, GAMMA1), (1, 2, GAMMA1), (2, 3, GAMMA0),
                       (3, 0, GAMMA1)])
    system = assemble_global(mesh, StabilizationSpec())
    np.testing.assert_allclose(
        system.A.toarray(),
        local_stiffness(element_geometry(mesh, 0), StabilizationSpec()),
        atol=1e-13)
    B = system.B.toarray()
    np.testing.assert_allclose(B[np.ix_([2, 3], [2, 3])],
                               boundary_mass_edge(1.0), atol=1e-15)
    assert np.abs(B).sum() == pytest.approx(np.abs(B[np.ix_([2, 3],
                                                            [2, 3])]).sum())
    assert sorted(system.gamma0_dofs) == [2, 3]


def per_cell_assembly(mesh, spec):
    """Reference scatter: one local matrix per cell, one mass per gamma0 edge."""
    n = mesh.n_vertices
    A, B = np.zeros((n, n)), np.zeros((n, n))
    for c in range(mesh.n_cells):
        g = element_geometry(mesh, c)
        A[np.ix_(g.vertex_ids, g.vertex_ids)] += local_stiffness(g, spec)
    for i, j in mesh.gamma0_edges():
        length = float(np.linalg.norm(mesh.vertices[j] - mesh.vertices[i]))
        B[np.ix_([i, j], [i, j])] += boundary_mass_edge(length)
    return A, B


def assert_matches_per_cell(mesh, system, spec):
    """Batched scatter (cells grouped by vertex count) equals the per-cell one."""
    A_ref, B_ref = per_cell_assembly(mesh, spec)
    assert np.abs(system.A.toarray() - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
    np.testing.assert_array_equal(system.B.toarray(), B_ref)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_assembly_invariants(family):
    mesh = FAMILIES[family](8)
    system = assemble_global(mesh, StabilizationSpec())
    ones = np.ones(system.n_dofs)
    assert np.abs(system.A @ ones).max() < 1e-10
    gamma0_len = sum(np.linalg.norm(mesh.vertices[j] - mesh.vertices[i])
                     for i, j, m in mesh.boundary_edges if m == GAMMA0)
    assert ones @ (system.B @ ones) == pytest.approx(gamma0_len, rel=1e-12)
    assert_matches_per_cell(mesh, system, StabilizationSpec())
    geoms = [element_geometry(mesh, c) for c in range(mesh.n_cells)]
    assert mesh.max_diameter() == max(g.diameter for g in geoms)
    assert mesh.total_area() == pytest.approx(sum(g.area for g in geoms), rel=1e-13, abs=0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("N", [8, 16])
def test_ahat_positive_definite(family, N):
    system = assemble_global(FAMILIES[family](N), StabilizationSpec())
    np.linalg.cholesky(system.Ahat.toarray())


def permuted_t5_mesh():
    """The benchmark's renumbered, rotated and reordered t5 mesh (seed 1)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    data = mesh_to_dict(FAMILIES["t5"](8))
    return build_mesh(*workloads.permuted_mesh_data(data, 1))


def test_assembly_order_independent():
    mesh = permuted_t5_mesh()
    assert sorted({len(c) for c in mesh.cells}) == [4, 6, 7, 8, 9]
    reversed_mesh = build_mesh(mesh.vertices, mesh.cells[::-1],
                               mesh.boundary_edges)
    spec = StabilizationSpec(alpha=0.75)
    for m in (mesh, reversed_mesh):
        assert_matches_per_cell(m, assemble_global(m, spec), spec)


# ---------------------------------------------------------------------------
# degenerate elements

SLIVER = [[0, 0], [1, 0], [0.5, 1e-15]]


def test_sliver_triangle_passes_validation_but_not_assembly():
    # area 5e-16 is above build_mesh's (1e-14 h)^2 but below 1e-14 h^2
    mesh = single_cell(SLIVER)
    with pytest.raises(DegenerateElement):
        assemble_global(mesh, StabilizationSpec())
    with pytest.raises(DegenerateElement):
        local_operators(element_geometry(mesh, 0), StabilizationSpec())


def sliver_sandwich(order):
    """A unit square between a sliver triangle below and a sliver
    quadrilateral above, with the cells listed in the given order."""
    eps = 2e-15
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, -1e-15],
                      [0.7, 1 + eps], [0.3, 1 + eps]])
    cells = {"square": [0, 1, 2, 3], "triangle": [0, 4, 1], "quad": [3, 2, 5, 6]}
    bnd = [(0, 4, GAMMA1), (4, 1, GAMMA1), (1, 2, GAMMA1), (3, 0, GAMMA1),
           (2, 5, GAMMA1), (5, 6, GAMMA0), (6, 3, GAMMA1)]
    return build_mesh(verts, [cells[k] for k in order], bnd)


@pytest.mark.parametrize("order", [("quad", "square", "triangle"),
                                   ("triangle", "square", "quad"),
                                   ("square", "quad", "triangle")])
def test_degenerate_cell_among_regular_cells(order):
    # vertex-count groups are computed separately, yet the error must name
    # the first offending cell in cell order, as a per-cell loop would
    mesh = sliver_sandwich(order)
    first = next(c for c, name in enumerate(order) if name != "square")
    with pytest.raises(DegenerateElement) as info:
        assemble_global(mesh, StabilizationSpec())
    reported = float(str(info.value).split()[2])
    assert reported == pytest.approx(element_geometry(mesh, first).area, rel=1e-12, abs=0)
