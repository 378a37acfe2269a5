"""Local virtual element operators and global assembly."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from steklovem.errors import DegenerateElement, NonSimplePolygon, ZeroLengthEdge
from steklovem.mesh import (
    GAMMA0,
    GAMMA1,
    PolygonalMesh,
    _diameter,
    _edge_arrays,
    build_mesh,
    quality_report,
)
from steklovem.meshgen import FAMILIES, refine_lshape_corner
from steklovem.vem import (
    StabilizationSpec,
    assemble_global,
    boundary_mass_edge,
    triple_norm,
)
from meshes import permuted_mesh
from vem_reference import local_operators, total_area

SQRT2 = math.sqrt(2.0)


def single_cell(verts, gamma0_edges=()):
    verts = np.asarray(verts, dtype=float)
    n = len(verts)
    bnd = [(i, (i + 1) % n, GAMMA0 if (i, (i + 1) % n) in gamma0_edges
            else GAMMA1) for i in range(n)]
    if not gamma0_edges:
        bnd = [(i, (i + 1) % n, GAMMA0) for i in range(n)]
    return build_mesh(verts, [list(range(n))], bnd)


def coords_of(verts):
    """The CCW vertex coordinates of ``verts`` validated as a single cell."""
    mesh = single_cell(verts)
    return mesh.vertices[mesh.cells[0]]


def edge_geometry(coords):
    """Area, edge lengths and outward unit edge normals (ty, -tx) / |e| of one
    CCW cell, by the shoelace and edge kernel of the mesh module."""
    tx, ty, lengths, *_, cross = _edge_arrays(coords[:, 0], coords[:, 1])
    return 0.5 * np.sum(cross), lengths, np.column_stack((ty, -tx)) / lengths[:, None]


UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


# ---------------------------------------------------------------------------
# projector


def test_projector_reproduces_x_on_square():
    ops = local_operators(coords_of(UNIT_SQUARE))
    G, mean_row, P = ops.G, ops.mean_row, ops.P
    w = np.array([0.0, 1.0, 1.0, 0.0])       # dofs of v(x, y) = x
    np.testing.assert_allclose(G @ w, [1.0, 0.0], atol=1e-14)
    assert mean_row @ w == pytest.approx(0.5)
    np.testing.assert_allclose(P @ w, w, atol=1e-14)


def test_projector_kills_gradient_of_constants():
    ops = local_operators(coords_of([[0, 0], [2, 0.3], [1.7, 1.9], [0.2, 1.4]]))
    G, P = ops.G, ops.P
    w = 3.25 * np.ones(4)
    np.testing.assert_allclose(G @ w, [0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(P @ w, w, atol=1e-13)


def test_projector_p1_reproduction_general_polygon():
    coords = coords_of([[0, 0], [1.3, -0.1], [1.5, 0.9], [0.7, 1.4], [-0.2, 0.8]])
    ops = local_operators(coords)
    G, P = ops.G, ops.P
    for a, b, c in [(1.0, 2.0, -0.5), (0.0, -1.0, 3.0)]:
        w = a + b * coords[:, 0] + c * coords[:, 1]
        np.testing.assert_allclose(G @ w, [b, c], atol=1e-13)
        np.testing.assert_allclose(P @ w, w, atol=1e-13)


def test_projector_matches_quadrature_oracle():
    # independent oracle: build the 3x3 normal equations of the projector
    # from high-resolution boundary quadrature of the piecewise-linear trace
    mesh = FAMILIES["t2"](2)
    rng = np.random.default_rng(7)
    for cell in range(0, mesh.n_cells, 3):
        coords = mesh.vertices[mesh.cells[cell]]
        area, lengths, normals = edge_geometry(coords)
        n = len(coords)
        w = rng.standard_normal(n)

        nq = 2000
        pts, vals, wts = [], [], []
        for e in range(n):
            i, j = e, (e + 1) % n
            t = (np.arange(nq) + 0.5) / nq
            pts.append(coords[i][None, :] * (1 - t[:, None])
                       + coords[j][None, :] * t[:, None])
            vals.append(w[i] * (1 - t) + w[j] * t)
            wts.append(np.full(nq, lengths[e] / nq))
        pts = np.vstack(pts)
        vals = np.concatenate(vals)
        wts = np.concatenate(wts)
        boundary_length = np.sum(lengths)
        # the boundary centroid by the same quadrature, exact for linear traces
        boundary_centroid = wts @ pts / np.sum(wts)

        # gradient: a(v, q) = ∮ v ∂_n q for harmonic q in P1
        grad = np.zeros(2)
        for e in range(n):
            i, j = e, (e + 1) % n
            grad += normals[e] * lengths[e] * 0.5 * (w[i] + w[j])
        grad /= area
        vbar = np.sum(wts * vals) / boundary_length

        ops = local_operators(coords)
        G, mean_row, P = ops.G, ops.mean_row, ops.P
        np.testing.assert_allclose(G @ w, grad, atol=1e-12)
        assert mean_row @ w == pytest.approx(vbar, abs=1e-9)
        proj_bar = np.sum(
            wts * (vbar + (pts - boundary_centroid) @ grad)
        ) / boundary_length
        assert proj_bar == pytest.approx(vbar, abs=1e-9)


# ---------------------------------------------------------------------------
# stabilization


def test_stability_matrix_unit_square_closed_form():
    S = local_operators(coords_of(UNIT_SQUARE), StabilizationSpec(alpha=1.0)).S_K
    expected = SQRT2 * np.array([[2, -1, 0, -1],
                                 [-1, 2, -1, 0],
                                 [0, -1, 2, -1],
                                 [-1, 0, -1, 2]], dtype=float)
    np.testing.assert_allclose(S, expected, atol=1e-13)


def test_stability_annihilates_constants():
    coords = coords_of([[0, 0], [2, 0], [2.4, 1.1], [0.5, 1.7]])
    S = local_operators(coords, StabilizationSpec(alpha=1.5)).S_K
    np.testing.assert_allclose(S @ np.ones(4), 0.0, atol=1e-12)


def test_stability_small_edge_psd():
    eps = 1e-8
    coords = coords_of([[0, 0], [eps, 0], [1, 0], [1, 1], [0, 1]])
    S = local_operators(coords, StabilizationSpec()).S_K
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
    A = local_operators(coords_of(tri), StabilizationSpec(alpha=alpha)).A_K
    np.testing.assert_allclose(A, fem_p1_stiffness(tri), atol=1e-12)


def test_patch_test_energy_of_linears():
    coords = coords_of([[0, 0], [1.1, 0.1], [1.3, 0.9], [0.4, 1.2], [-0.1, 0.6]])
    A = local_operators(coords, StabilizationSpec()).A_K
    area = edge_geometry(coords)[0]
    for b, c in [(1.0, 0.0), (0.3, -2.0), (1.5, 1.5)]:
        w = b * coords[:, 0] + c * coords[:, 1]
        assert w @ A @ w == pytest.approx(area * (b * b + c * c), rel=1e-12)


def test_local_stiffness_symmetric_psd_kernel_constants():
    A = local_operators(coords_of([[0, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 1]]),
                        StabilizationSpec()).A_K
    np.testing.assert_allclose(A, A.T, atol=1e-13)
    np.testing.assert_allclose(A @ np.ones(5), 0.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-10 * eigs.max()
    assert np.sum(eigs < 1e-10 * eigs.max()) == 1   # kernel is span{1}


def test_local_stiffness_unit_square_symbolic():
    # |K| G^T G has rank 2; on the unit square G maps to the average of
    # opposite-edge differences, and (I - P) S (I - P) supplies the rest
    coords = coords_of(UNIT_SQUARE)
    ops = local_operators(coords, StabilizationSpec())
    consistency = edge_geometry(coords)[0] * ops.G.T @ ops.G
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


@pytest.mark.parametrize("call,error", [
    (lambda: boundary_mass_edge([1.0, -2.0]), ZeroLengthEdge),
    (lambda: triple_norm(FAMILIES["t2"](2), np.ones(1)), ValueError),
], ids=["negative-edge-length", "triple-norm-dof-length"])
def test_public_entry_points_reject_bad_input(call, error):
    with pytest.raises(error):
        call()


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
        for ids in mesh.cells:
            coords = mesh.vertices[ids]
            ops = local_operators(coords, StabilizationSpec())
            w = v[ids]
            grad = ops.G @ w
            dev = w - ops.mean_row @ w
            total += edge_geometry(coords)[0] * (grad @ grad) + dev @ ops.S_K @ dev
        assert base == pytest.approx(math.sqrt(total), rel=1e-13, abs=0)


def test_triple_norm_of_x_on_unit_square():
    mesh = single_cell(UNIT_SQUARE)
    w = mesh.vertices[:, 0].copy()
    # consistency part: |K| |grad x|^2 = 1; mean-deviation part:
    # S(x - 1/2, x - 1/2) with the closed-form square S of the tests above
    S = local_operators(mesh.vertices[mesh.cells[0]], StabilizationSpec()).S_K
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
        local_operators(mesh.vertices[mesh.cells[0]], StabilizationSpec()).A_K,
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
    for ids in mesh.cells:
        A[np.ix_(ids, ids)] += local_operators(mesh.vertices[ids], spec).A_K
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
    cells = [mesh.vertices[ids] for ids in mesh.cells]
    assert mesh.max_diameter() == max(_diameter(*coords.T) for coords in cells)
    assert total_area(mesh) == pytest.approx(sum(edge_geometry(coords)[0] for coords in cells),
                                           rel=1e-13, abs=0)


@pytest.mark.parametrize("family", ["t3", "t4", "t5"])
def test_assembly_stores_no_exact_zero(family):
    # at N=10 some couplings of t3-t5 get two cell contributions that cancel
    # to 0.0 (2, 4 and 4 of them); A drops them, so it stores the couplings
    # of Ahat and the LU factors no entry that is known to be zero
    mesh = FAMILIES[family](10)
    system = assemble_global(mesh, StabilizationSpec())
    assert system.A.nnz == system.A.count_nonzero()
    assert system.A.nnz == system.Ahat.nnz
    assert_matches_per_cell(mesh, system, StabilizationSpec())


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("N", [8, 16])
def test_ahat_positive_definite(family, N):
    system = assemble_global(FAMILIES[family](N), StabilizationSpec())
    np.linalg.cholesky(system.Ahat.toarray())


def test_assembly_order_independent():
    mesh = permuted_mesh()
    assert sorted({len(c) for c in mesh.cells}) == [4, 6, 7, 8, 9]
    reversed_mesh = build_mesh(mesh.vertices, mesh.cells[::-1],
                               mesh.boundary_edges)
    spec = StabilizationSpec(alpha=0.75)
    for m in (mesh, reversed_mesh):
        assert_matches_per_cell(m, assemble_global(m, spec), spec)


def test_assembly_peak_memory_is_a_small_multiple_of_its_output():
    # t2 N=32: 8,321 dofs, 4,096 hexagons.  Assembly keeps the (C, n) planes
    # of the cells, the COO triplets (an int32 row and column and a double
    # per block entry), one (C, n, n) scratch block and the CSR results; its
    # tracemalloc peak is 2.5 times the bytes of A, B and Ahat.  The
    # projector form's batched P, I - P and S_K with int64 triplets peaked
    # at 5.1 times.
    mesh = FAMILIES["t2"](32)
    system = assemble_global(mesh)
    output = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                 for m in (system.A, system.B, system.Ahat))
    tracemalloc.start()
    try:
        assemble_global(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * output


# ---------------------------------------------------------------------------
# degenerate elements

SLIVER = [[0, 0], [1, 0], [0.5, 1e-15]]


def test_sliver_triangle_rejected_by_validation_and_assembly():
    # area 5e-16 is below 1e-14 h^2, the one cutoff of build_mesh and assembly
    with pytest.raises(NonSimplePolygon, match="vanishing area"):
        single_cell(SLIVER)
    with pytest.raises(DegenerateElement):
        local_operators(SLIVER, StabilizationSpec())


def sliver_sandwich(order):
    """A unit square between a sliver triangle below and a sliver
    quadrilateral above, with the cells listed in the given order.

    build_mesh rejects both slivers, so the mesh is put together from CSR
    arrays directly to reach assembly's own check."""
    eps = 2e-15
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, -1e-15],
                      [0.7, 1 + eps], [0.3, 1 + eps]])
    cells = {"square": [0, 1, 2, 3], "triangle": [0, 4, 1], "quad": [3, 2, 5, 6]}
    bnd = [(0, 4, GAMMA1), (4, 1, GAMMA1), (1, 2, GAMMA1), (3, 0, GAMMA1),
           (2, 5, GAMMA1), (5, 6, GAMMA0), (6, 3, GAMMA1)]
    cycles = [cells[k] for k in order]
    ptr = np.cumsum([0] + [len(c) for c in cycles])
    return PolygonalMesh(verts, ptr, np.concatenate(cycles), bnd)


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
    area = edge_geometry(mesh.vertices[mesh.cells[first]])[0]
    assert reported == pytest.approx(area, rel=1e-12, abs=0)


# SHA-256 of the assembled matrices (data, indices and indptr of A, B and Ahat,
# in that order) and of quality_report's star_ratio and min_edge_ratio, per
# mesh: the geometry kernels and assembly are pinned to the bit, so a rewrite
# of the plane kernels cannot move a rounding unnoticed.  ("t6", 32, 2) is t6
# N=32 after two corner-refinement sweeps
PINNED_SYSTEMS = {
    ("t1", 8, 0): "7912eb274b610ceeda424c50e430102c795f37fc435260d4b5602bf223fc9cbc",
    ("t2", 16, 0): "303bb2a5689f5a02a53dc13d00ecc164fd0742668971bd1bba06b64e66488cd9",
    ("t3", 8, 0): "6e9d688149050d552a92d50f5b6494b8bb101c9be834fb80be780670ecfe9b17",
    ("t4", 8, 0): "069b306871382992709a4029c98f54b762155ca0cf10d44c4de7fbc50879feba",
    ("t5", 8, 0): "4c10bf04d971a5db6def7021959306f1fcd90c54602eb00620afa57da03bbc3e",
    ("t6", 8, 0): "6c25de7499668ddde234e2941745793f471007fccc8f4a471894120df961f4d9",
    ("t6", 32, 2): "577bbb94aea31bb234b108a0b636da484b4d530e098f9b064cbde194c58d0066",
}


def system_sha256(mesh):
    system, report = assemble_global(mesh), quality_report(mesh)
    digest = hashlib.sha256()
    for m in (system.A, system.B, system.Ahat):
        for part in (m.data, m.indices, m.indptr):
            digest.update(np.ascontiguousarray(part).tobytes())
    digest.update(report.star_ratio.tobytes())
    digest.update(report.min_edge_ratio.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("family, N, levels", sorted(PINNED_SYSTEMS))
def test_assembled_system_pinned(family, N, levels):
    mesh = FAMILIES[family](N)
    for level in range(1, levels + 1):
        mesh = refine_lshape_corner(mesh, level, N)
    assert system_sha256(mesh) == PINNED_SYSTEMS[family, N, levels]
