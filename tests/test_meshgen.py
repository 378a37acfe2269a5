"""Mesh family generators: structure, areas, small edges, refinement."""

import hashlib
import json
import math

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from steklovem import meshgen
from steklovem.errors import InvalidN, MeshError, NonConforming
from steklovem.mesh import (
    GAMMA0,
    _area_centroid,
    _edge_arrays,
    _validate_csr,
    edge_table,
    mesh_to_dict,
    quality_report,
)
from steklovem.meshgen import (
    FAMILIES,
    _conformalize,
    _mark_boundary,
    _merge_points,
    _quad_grid,
    gen_lshape_uniform,
    gen_rotated_t,
    gen_square_glued,
    gen_square_perturbed_triangles,
    refine_lshape_corner,
)
from vem_reference import total_area


# ---------------------------------------------------------------------------
# glued square grids


def test_glued_square_n2_hand_count():
    # upper grid: 2x1 cells on (0,1)x(0.6,1)   -> 3x2 = 6 vertices
    # lower grid: 3x2 cells on (0,1)x(0,0.6)   -> 4x3 = 12 vertices
    # interface shares only the two domain corners (0,0.6), (1,0.6)
    mesh = gen_square_glued(2)
    assert mesh.n_vertices == 16
    assert mesh.n_cells == 8


def test_glued_square_area_and_marking():
    for N in (2, 5, 8):
        mesh = gen_square_glued(N)
        assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)
        for i, j, marker in mesh.boundary_edges:
            on_top = (mesh.vertices[i, 1] == 1.0 and mesh.vertices[j, 1] == 1.0)
            assert (marker == GAMMA0) == on_top


def test_glued_square_interface_cells_have_small_edges():
    # the N vs N+1 column mismatch leaves interface edges of length down to
    # 1/(N(N+1)), an order h shorter than regular cell edges
    minima = []
    for N in (8, 16):
        mesh = gen_square_glued(N)
        edge_ratio = quality_report(mesh).min_edge_ratio   # min_e |e| / h_K
        interface, interior = [], []
        for ids, ratio in zip(mesh.cells, edge_ratio):
            touches = np.any(np.abs(mesh.vertices[ids, 1] - 0.6) < 1e-12)
            (interface if touches else interior).append(ratio)
        assert min(interface) < 0.2 * np.median(interior)
        minima.append(min(interface))
    assert minima[1] < 0.6 * minima[0]   # relative size shrinks with N


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), n2=st.integers(1, 12), rows=st.integers(1, 3),
       rows2=st.integers(1, 3))
def test_glued_grids_validate_exactly_when_conformalized(n, n2, rows, rows2):
    # two quad grids glued at y = 0.6 as in t1, with n and n2 columns: the
    # validator rejects the interface's one-sided hanging nodes, even with
    # every once-edge marked, by the rule the conforming join inserts them by
    assume(n != n2)
    patches = [_quad_grid(0.0, 1.0, 0.6, 1.0, n, rows),
               _quad_grid(0.0, 1.0, 0.0, 0.6, n2, rows2)]
    verts, ids = _merge_points(np.concatenate([p.reshape(-1, 2) for p in patches]))

    def validate(ptr, flat):
        table = edge_table(ptr, flat)[:2]
        return _validate_csr(verts, ptr, flat, _mark_boundary(verts, *table, "top"),
                             table=table)

    ptr = np.arange(0, len(ids) + 1, 4)
    with pytest.raises(NonConforming, match="overlap"):
        validate(ptr, ids)
    mesh = validate(*_conformalize(verts, ptr, ids)[:2])
    # each side takes the other's interior interface points it lacks
    assert len(mesh.cell_vertices) - len(ids) == n + n2 - 2 * math.gcd(n, n2)


def test_glued_square_rejects_small_n():
    with pytest.raises(InvalidN):
        gen_square_glued(1)


# ---------------------------------------------------------------------------
# perturbed-edge hexagon family


def test_hexagon_family_n1_enumeration():
    # one unit square cut into four triangles by both diagonals: 4 corners
    # + crossing point + one inserted point on each of the 8 sub-edges
    mesh = gen_square_perturbed_triangles(1)
    assert mesh.n_cells == 4
    assert mesh.n_vertices == 13
    assert all(len(c) == 6 for c in mesh.cells)


def test_hexagon_family_all_cells_hexagons():
    mesh = gen_square_perturbed_triangles(4)
    assert all(len(c) == 6 for c in mesh.cells)


def test_hexagon_family_edge_point_placement():
    # every triangle edge of length h_e carries an inserted point at arc
    # distance h_e^2 from the lexicographically smaller endpoint
    N = 4
    mesh = gen_square_perturbed_triangles(N)
    lengths = np.concatenate([_edge_arrays(*mesh.vertices[ids].T)[2] for ids in mesh.cells])
    short = sorted(set(np.round(lengths, 12)))[:2]
    he_diag = math.sqrt(2.0) / (2.0 * N)
    he_axis = 1.0 / N
    assert short[0] == pytest.approx(he_diag ** 2, rel=1e-9)
    assert short[1] == pytest.approx(he_axis ** 2, rel=1e-9)


def test_hexagon_family_area_and_gamma0():
    mesh = gen_square_perturbed_triangles(8)
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)
    for i, j, marker in mesh.boundary_edges:
        on_top = (mesh.vertices[i, 1] == 1.0 and mesh.vertices[j, 1] == 1.0)
        assert (marker == GAMMA0) == on_top


# ---------------------------------------------------------------------------
# rotated-T families


@pytest.mark.parametrize("variant", [3, 4, 5])
def test_rotated_t_area_and_full_gamma0(variant):
    mesh = gen_rotated_t(16, variant)
    assert total_area(mesh) == pytest.approx(1.0, abs=1e-12)
    assert all(marker == GAMMA0 for _, _, marker in mesh.boundary_edges)


def test_rotated_t_interface_small_edges():
    mesh = gen_rotated_t(16, 3)
    ratios = quality_report(mesh).min_edge_ratio   # min_e |e| / h_K per cell
    assert ratios.min() < 0.1 * np.median(ratios)


def test_rotated_t_rejects_small_n():
    with pytest.raises(InvalidN):
        gen_rotated_t(2, 3)


@pytest.mark.parametrize("call", [
    lambda: gen_square_perturbed_triangles(0),
    lambda: gen_rotated_t(8, 6),
    lambda: refine_lshape_corner(gen_lshape_uniform(8), 0, 8),
], ids=["perturbed-N0", "rotated-t-variant-6", "refine-level-0"])
def test_generators_reject_invalid_arguments(call):
    with pytest.raises(InvalidN):
        call()


# ---------------------------------------------------------------------------
# L-shape and corner refinement


def test_lshape_cell_and_vertex_counts():
    assert gen_lshape_uniform(4).n_cells == 12
    mesh = gen_lshape_uniform(32)
    assert mesh.n_cells == 768
    assert mesh.n_vertices == 833


def test_lshape_area():
    for N in (4, 8, 32):
        assert total_area(gen_lshape_uniform(N)) == pytest.approx(0.75,
                                                                  abs=1e-12)


def test_lshape_rejects_odd_n():
    with pytest.raises(InvalidN):
        gen_lshape_uniform(5)


def test_corner_refinement_dof_counts():
    # published counts are 1181, 1529, 1877, 2232; the last level depends on
    # the region-membership convention, so it is held to 2%
    targets = [1181, 1529, 1877, 2232]
    mesh = gen_lshape_uniform(32)
    for level, want in enumerate(targets, start=1):
        mesh = refine_lshape_corner(mesh, level, 32)
        assert abs(mesh.n_vertices - want) <= 0.02 * want


def test_corner_refinement_preserves_area_and_markers():
    mesh = gen_lshape_uniform(16)
    for level in (1, 2):
        mesh = refine_lshape_corner(mesh, level, 16)
        assert total_area(mesh) == pytest.approx(0.75, abs=1e-12)
        assert all(marker == GAMMA0 for _, _, marker in mesh.boundary_edges)


def test_corner_refinement_localized():
    base = gen_lshape_uniform(32)
    refined = refine_lshape_corner(base, 1, 32)
    half = 6.0 / 32.0   # refinement half-width at level 1
    for ids in refined.cells:
        x, y = refined.vertices[ids].T
        bary = np.array(_area_centroid(x, y))
        if np.max(np.abs(bary - 0.5)) > half + 0.1:
            # far away from the corner region the original cell sizes survive
            area = 0.5 * np.sum(_edge_arrays(x, y)[-1])
            assert area == pytest.approx((1.0 / 32.0) ** 2, rel=1e-9)


def test_corner_refinement_rejects_flat_vertices_no_other_cell_keeps():
    # the pieces of a patch cell leave out its flat-angle vertices; a t2
    # hexagon's edge points on the domain boundary belong to no other cell
    with pytest.warns(UserWarning, match="3 corners"), \
            pytest.raises(MeshError, match="belongs to no cell"):
        refine_lshape_corner(FAMILIES["t2"](4), 1, 4)


# ---------------------------------------------------------------------------
# vertex merge


def test_points_straddling_a_rounding_boundary_merge():
    # 5.6e-17 apart, yet rounding to 10 decimals sends them to different keys;
    # the vertex keeps the number and coordinates of its first occurrence
    x = 0.30000000005
    pts = np.array([[x, 0.0], [np.nextafter(x, 1.0), 0.0], [1.0, 0.0], [x, 0.0]])
    verts, ids = _merge_points(pts)
    assert ids.tolist() == [0, 0, 1, 0]
    np.testing.assert_array_equal(verts, pts[[0, 2]])


def kd_tree_merge(pts):
    """Reference merge: kd-tree pairs within 1e-10 and scipy's components,
    numbered by first occurrence."""
    pairs = cKDTree(pts).query_pairs(1e-10, output_type="ndarray")
    graph = sps.coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(len(pts),) * 2)
    _, first, inverse = np.unique(connected_components(graph, directed=False)[1],
                                  return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return pts[np.sort(first)], rank[inverse]


@pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)])
def test_points_straddling_a_bucket_boundary_merge(axes):
    # a grid of buckets (span + 2e-10) 2^-24 wide from 1e-10 below the lowest
    # point, as a bucket search would lay over this point set; the pair sits
    # 1e-15 apart across the edge of bucket 1000 along the given axes
    origin, width = -1e-10, (1.0 + 2e-10) * 2.0**-24
    edge = origin + 1000 * width
    near = [x for x in edge + 1e-16 * np.arange(-20, 20)
            if (x - origin) // width < (x + 1e-15 - origin) // width]
    assert near, "no straddling pair found: the grid above is out of date"
    a = np.full(2, 0.3)
    a[list(axes)] = near[0]
    pts = np.array([[0.0, 0.0], [1.0, 1.0], a, a + 1e-15])
    verts, ids = _merge_points(pts)
    assert ids.tolist() == [0, 1, 2, 2]
    np.testing.assert_array_equal(verts, pts[:3])


def test_merge_is_transitive():
    # a-b and b-c are within 1e-10, a-c is not: still one vertex, at a
    a = np.array([0.3, 0.7])
    pts = np.array([[1.0, 0.0], a + [1.2e-10, 0.0], a, a + [0.6e-10, 0.0]])
    verts, ids = _merge_points(pts)
    assert ids.tolist() == [0, 1, 1, 1]
    np.testing.assert_array_equal(verts, pts[:2])


def test_merge_is_transitive_along_y():
    # a-b and b-c are within 1e-10 along y, a-c is not: one vertex
    a = np.array([0.3, 0.7])
    pts = np.array([[1.0, 0.0], a + [0.0, 1.2e-10], a, a + [0.0, 0.6e-10], [0.3, 0.2]])
    verts, ids = _merge_points(pts)
    assert ids.tolist() == [0, 1, 1, 1, 2]
    np.testing.assert_array_equal(verts, pts[[0, 1, 4]])
    np.testing.assert_array_equal(kd_tree_merge(pts)[1], ids)


@pytest.mark.parametrize("dy", [0.0, 0.5e-10, 1e-3])
def test_merge_close_x_values_share_an_x_run(dy):
    # two distinct x 0.5e-10 apart are one x-run, and the pair merges exactly
    # when it is close in y too
    pts = np.array([[1.0, 0.0], [0.3 + 0.5e-10, 0.7 + dy], [0.3, 0.7], [0.3, 0.2]])
    verts, ids = _merge_points(pts)
    ref_verts, ref_ids = kd_tree_merge(pts)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(verts, ref_verts)
    assert ids.tolist() == ([0, 1, 1, 2] if dy < 1e-10 else [0, 1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       planted=st.integers(0, 300), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_merge_y_duplicates_match_kd_tree(seed, n, planted, scale):
    # a cloud on 20 columns of x, near-duplicates of it displaced along y only
    # (exact, jittered, chained) and a shuffle: every x-run holds one x value
    rng = np.random.default_rng(seed)
    pts = np.column_stack((0.1 * scale * rng.integers(-10, 10, n),
                           rng.uniform(-scale, scale, n)))
    for _ in range(planted):
        src = pts[rng.integers(len(pts))]
        step = rng.choice([0.0, 1e-12, 0.7e-10, 0.99e-10]) * rng.choice([-1.0, 1.0])
        pts = np.vstack((pts, src + [0.0, step]))
    pts = pts[rng.permutation(len(pts))]
    verts, ids = _merge_points(pts)
    ref_verts, ref_ids = kd_tree_merge(pts)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(verts, ref_verts)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       planted=st.integers(0, 300), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_merge_across_close_x_columns_matches_kd_tree(seed, n, planted, scale):
    # a cloud on 20 clusters of three x-columns 0.8e-10 apart, so one x-run
    # holds three x values 1.6e-10 wide; near-duplicates planted one column
    # over or in place and chained along y, and a shuffle.  The planted p, q
    # and r lie in one run with q between p and r in y: p and r are close,
    # q is 1.6e-10 off in x and close to neither, so the sweep must pair
    # points two places apart
    rng = np.random.default_rng(seed)
    column = 0.8e-10 * np.arange(-1, 2)
    pts = np.column_stack((0.1 * scale * rng.integers(-10, 10, n) + rng.choice(column, n),
                           rng.uniform(-scale, scale, n)))
    p = pts[rng.integers(n)]
    pts = np.vstack((pts, p + [1.6e-10, 0.3e-10], p + [0.8e-10, 0.5 * scale],
                     p + [0.0, 0.6e-10]))
    for _ in range(planted):
        src = pts[rng.integers(len(pts))]
        step = rng.choice([0.0, 1e-12, 0.4e-10, 0.7e-10, 0.99e-10]) * rng.choice([-1.0, 1.0])
        pts = np.vstack((pts, src + [rng.choice(column), step]))
    pts = pts[rng.permutation(len(pts))]
    verts, ids = _merge_points(pts)
    ref_verts, ref_ids = kd_tree_merge(pts)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(verts, ref_verts)


GENERATOR_MERGES = {
    **{family: (lambda family=family: FAMILIES[family](30))
       for family in ("t2", "t3", "t4", "t5")},
    "t6-N16-refined-twice": lambda: refine_lshape_corner(
        refine_lshape_corner(FAMILIES["t6"](16), 1, 16), 2, 16),
    "t4-N8": lambda: FAMILIES["t4"](8),
    "t5-N12": lambda: FAMILIES["t5"](12),
}
# rounding leaves distinct points within 1e-10 of each other in these cases,
# so the merge labels components from close pairs
CLOSE_PAIR_MERGES = {"t4-N8", "t5-N12"}


@pytest.mark.parametrize("case", sorted(GENERATOR_MERGES))
def test_merge_matches_kd_tree_on_generator_points(case, monkeypatch):
    # the last point set the generator or refinement hands to the merge.  On
    # t2 and t5 rounding leaves 8 and 5 steps between distinct x values in
    # (0, 1e-10], so some x-runs hold two x values; elsewhere each holds one
    seen = []

    def record(pts):
        seen.append(pts)
        return _merge_points(pts)

    monkeypatch.setattr(meshgen, "_merge_points", record)
    GENERATOR_MERGES[case]()
    if case in CLOSE_PAIR_MERGES:
        assert len(cKDTree(np.unique(seen[-1], axis=0)).query_pairs(1e-10))
    verts, ids = _merge_points(seen[-1])
    ref_verts, ref_ids = kd_tree_merge(seen[-1])
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(verts, ref_verts)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       planted=st.integers(0, 300), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_merge_matches_kd_tree(seed, n, planted, scale):
    # a cloud, near-duplicates of it within 1e-10 (exact, jittered, chained)
    # and a shuffle; same vertices and ids as the kd-tree, first occurrence kept
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, (n, 2))
    for _ in range(planted):
        src = pts[rng.integers(len(pts))]
        step = rng.choice([0.0, 1e-12, 0.7e-10, 0.99e-10])
        angle = rng.uniform(0.0, 2.0 * np.pi)
        pts = np.vstack((pts, src + step * np.array([np.cos(angle), np.sin(angle)])))
    pts = pts[rng.permutation(len(pts))]
    verts, ids = _merge_points(pts)
    ref_verts, ref_ids = kd_tree_merge(pts)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(verts, ref_verts)
    first = np.unique(ids, return_index=True)[1]
    assert np.all(np.diff(first) > 0)
    np.testing.assert_array_equal(verts, pts[first])


# ---------------------------------------------------------------------------
# cross-family invariants


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_deterministic(family):
    a, b = FAMILIES[family](8), FAMILIES[family](8)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    assert a.cells == b.cells
    assert a.boundary_edges == b.boundary_edges


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_doubling_n_halves_h(family):
    coarse = FAMILIES[family](8).max_diameter()
    fine = FAMILIES[family](16).max_diameter()
    assert 1.6 < coarse / fine < 2.4


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_all_families_pass_quality_report(family):
    report = quality_report(FAMILIES[family](8))
    assert report.min_star_ratio > 0.0
    assert not report.empty_kernel_cells


# SHA-256 of json.dumps(mesh_to_dict(mesh)) per family and N: generator output
# is pinned to the byte, so a rewrite of the generators cannot move a vertex,
# renumber one or reorder a cycle unnoticed.  The larger level of each family
# has more hanging nodes and edge points for the conforming join to place
PINNED = {
    "t1": {8: "51650ab984fe43a18ef0fabf08d6ae6a5714384de28670bdc073e8a15473e76c",
           17: "7a68b17d2db9c1807544f211d8b5705529d2b9d66e8d5d1a005727677f53cbf2"},
    "t2": {8: "21131903bc705514a0084ad65d2fb2c50cd73262a33dc6f1554105ca58877829",
           16: "36403310a777c098793a9b521084a2b5691e46ee6daf306ef0cd16ed41ece9a1"},
    "t3": {8: "e5a9bcea66b9bbbca77bdea440b0cbea2b52dd56289d8903ba243f6e26b45de4",
           16: "25297a7d8f3352fd16e8a0c1f9565f30cede813caa25b0ebfb2057ebafb17f29"},
    "t4": {8: "38801b3529208b45c94d975242e900c002122d9803b3dcd82b066c9ab530ac20",
           16: "50bfe92c42369e2b122277fca7b570696d9264c860fdbcab5613c1df0de08641"},
    "t5": {8: "598d585994e7246efdf03ccaa3158e78e04fa62905548a89c5e60a85682e00c3",
           16: "04c955d464a8eb03518533ba0aeb06ac97b48945699a9be1f76b12be0e724a1d"},
    "t6": {8: "215ee2fcf9c2bdc5af0d67f6b6af6a9d4bea7434e9f8c7d5fc74a1b746510492"},
}
# refinement sweeps 1, 2, ... of (family, N): the cli-lshape mesh is t6 N=32
# at levels 1-2; t1 cells carry flat-angle vertices on the glued interface
PINNED_REFINED = {
    ("t6", 16): ["322cb4dde808bf0ba074861d4c4267361bebeaff93f05ca646f99c3ede364b45",
                 "c08b2b64e8c5aa410d110cc36d54d081d9bbd29f27e9a3c0de2517631c0b3bf6",
                 "4026af583fdf3431978701adf667b54332c477958b1c7a1afb51a43086e20ecb",
                 "5bdc196d31017ca54dc0643a44d75e7da326448b706e4e6c45ecdd507633dec9"],
    ("t6", 32): ["cf0750ff8a5a4197360d38f539aed7e354fab3905edf8e6c75faf4f268f9445a",
                 "7227b5e9e19828716d155b67964944e2f6d4d0ab6e05d9bd01f217c6773f1e71"],
    ("t1", 8): ["82d4965072d69aff454f0d75823ca1b6a21b0ef2464e5d437a8ed83f7161e311",
                "51a911c0b6c3984057e62bef0206925a724fbbf351cc712e37380c7a5da7a8ee"],
}


def json_sha256(mesh):
    return hashlib.sha256(json.dumps(mesh_to_dict(mesh)).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(PINNED))
def test_generator_output_pinned(family):
    for N, want in PINNED[family].items():
        assert json_sha256(FAMILIES[family](N)) == want, N


def test_corner_refinement_output_pinned():
    for (family, N), pins in PINNED_REFINED.items():
        mesh = FAMILIES[family](N)
        for level, want in enumerate(pins, start=1):
            mesh = refine_lshape_corner(mesh, level, N)
            assert json_sha256(mesh) == want, (family, N, level)
