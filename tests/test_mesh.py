"""Mesh data structure, validation, geometry, and quality diagnostics."""

import collections
import functools
import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from steklovem import mesh as mesh_module
from steklovem.errors import (
    EmptyGamma0,
    MeshError,
    NonConforming,
    NonSimplePolygon,
    UnmarkedBoundaryEdge,
    ZeroLengthEdge,
)
from steklovem.mesh import (
    GAMMA0,
    GAMMA1,
    ZERO_EDGE_REL_TOL,
    build_mesh,
    edge_table,
    load_mesh_json,
    quality_report,
    save_mesh_json,
)
from steklovem.meshgen import FAMILIES
from vem_reference import local_operators, total_area

SQUARE_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_BND = [(0, 1, GAMMA1), (1, 2, GAMMA1), (2, 3, GAMMA0), (3, 0, GAMMA1)]


def unit_square_mesh():
    return build_mesh(SQUARE_VERTS, [[0, 1, 2, 3]], SQUARE_BND)


def cell_planes(mesh, c):
    """The x and y planes of cell c's CCW vertex cycle."""
    return mesh.vertices[mesh.cells[c]].T


def edge_geometry(x, y):
    """Area, edge lengths and outward unit edge normals (ty, -tx) / |e| of one
    CCW cell, by the shoelace and edge kernel, as quality_report takes them."""
    tx, ty, lengths, *_, cross = mesh_module._edge_arrays(x, y)
    return 0.5 * np.sum(cross), lengths, np.column_stack((ty, -tx)) / lengths[:, None]


# ---------------------------------------------------------------------------
# build_mesh validation


def test_single_cell_square_valid():
    mesh = unit_square_mesh()
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 1
    assert len(mesh.boundary_edges) == 4
    assert len(mesh.gamma0_edges()) == 1


def test_two_triangles_share_diagonal():
    cells = [[0, 1, 2], [0, 2, 3]]
    bnd = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 3, GAMMA0), (3, 0, GAMMA0)]
    mesh = build_mesh(SQUARE_VERTS, cells, bnd)
    assert mesh.n_cells == 2
    assert len(mesh.boundary_edges) == 4


def test_clockwise_cycle_is_reoriented():
    mesh = build_mesh(SQUARE_VERTS, [[3, 2, 1, 0]], SQUARE_BND)
    assert edge_geometry(*cell_planes(mesh, 0))[0] == pytest.approx(1.0)


def test_hanging_node_in_one_cycle_only_is_nonconforming():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1],
                      [1, 0.5]], dtype=float)
    cells = [[0, 1, 6, 2, 3], [1, 4, 5, 2]]
    bnd = [(0, 1, GAMMA0), (1, 4, GAMMA0), (4, 5, GAMMA0), (5, 2, GAMMA0),
           (2, 3, GAMMA0), (3, 0, GAMMA0)]
    with pytest.raises(NonConforming):
        build_mesh(verts, cells, bnd)


def test_bowtie_rejected():
    verts = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    bnd = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 3, GAMMA0), (3, 0, GAMMA0)]
    with pytest.raises(NonSimplePolygon):
        build_mesh(verts, [[0, 1, 2, 3]], bnd)


def test_zero_length_edge_rejected():
    verts = np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    bnd = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 3, GAMMA0), (3, 4, GAMMA0),
           (4, 0, GAMMA0)]
    with pytest.raises(ZeroLengthEdge):
        build_mesh(verts, [[0, 1, 2, 3, 4]], bnd)


def test_empty_gamma0_rejected():
    bnd = [(a, b, GAMMA1) for a, b, _ in SQUARE_BND]
    with pytest.raises(EmptyGamma0):
        build_mesh(SQUARE_VERTS, [[0, 1, 2, 3]], bnd)


def test_unmarked_boundary_edge_rejected():
    with pytest.raises(UnmarkedBoundaryEdge):
        build_mesh(SQUARE_VERTS, [[0, 1, 2, 3]], SQUARE_BND[:3])


# ---------------------------------------------------------------------------
# rejection table: every validation path, asserting the exception class, the
# cell named in the message (None for mesh-level faults) and a message fragment

STRIP_VERTS = [[0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1], [2, 1], [3, 1]]
STRIP_CELLS = [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6]]
STRIP_BND = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 3, GAMMA0), (3, 7, GAMMA0),
             (7, 6, GAMMA0), (6, 5, GAMMA0), (5, 4, GAMMA0), (4, 0, GAMMA0)]
# extra points: one for a spike pentagon, a duplicate of vertex 1 for a
# zero-length edge, and one above the strip for a bowtie with nonzero area
EXTRA_VERTS = STRIP_VERTS + [[1.5, 0], [1, 0], [1, 2]]     # ids 8, 9, 10


def strip_with(**replaced):
    cells = [list(c) for c in STRIP_CELLS]
    for key, cyc in replaced.items():
        cells[int(key[1:])] = cyc
    return EXTRA_VERTS, cells, STRIP_BND


SPIKE = [1, 2, 8, 6, 5]           # 1 -> 2 -> 1.5 folds back at (2, 0)
BOWTIE = [1, 6, 2, 10]            # edges (1,6) and (2,10) cross at (5/3, 2/3)
ZERO_EDGE = [1, 9, 2, 6, 5]       # vertex 9 sits on vertex 1
OUT_OF_RANGE = [2, 3, 7, 99]
REPEATED = [2, 3, 7, 3]

REJECTIONS = {
    "fewer_than_3": (SQUARE_VERTS, [[0, 1]], SQUARE_BND,
                     NonSimplePolygon, 0, "fewer than 3"),
    "index_out_of_range": (SQUARE_VERTS, [[0, 1, 2, 4]], SQUARE_BND,
                           MeshError, 0, "out of range"),
    "negative_index": (SQUARE_VERTS, [[0, 1, 2, -1]], SQUARE_BND,
                       MeshError, 0, "out of range"),
    "index_beyond_int64": (SQUARE_VERTS, [[0, 1, 2, 3], [0, 1, 2, 10**30]], SQUARE_BND,
                           MeshError, 1, "out of range"),
    "repeated_vertex": (SQUARE_VERTS, [[0, 1, 2, 1]], SQUARE_BND,
                        NonSimplePolygon, 0, "repeated vertex"),
    "vanishing_area": ([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]],
                       [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 0, GAMMA0)],
                       NonSimplePolygon, 0, "vanishing area"),
    # collinear: the shoelace area is rounding noise (1.7e-18), at most
    # 1e-14 h_K^2, the cutoff assembly applies too
    "collinear_triangle": ([[0, 0], [0.03, 0.27], [0.07, 0.63]], [[0, 1, 2]],
                           [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 0, GAMMA0)],
                           NonSimplePolygon, 0, "vanishing area"),
    "symmetric_bowtie_has_no_area": ([[0, 0], [1, 1], [1, 0], [0, 1]], [[0, 1, 2, 3]],
                                     SQUARE_BND, NonSimplePolygon, 0, "vanishing area"),
    "zero_length_edge": ([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3, 4]],
                         [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 3, GAMMA0),
                          (3, 4, GAMMA0), (4, 0, GAMMA0)],
                         ZeroLengthEdge, 0, "edge shorter"),
    "fold_back_spike": (*strip_with(c1=SPIKE),
                        NonSimplePolygon, 1, "fold back at local vertex 1"),
    "bowtie": (*strip_with(c1=BOWTIE), NonSimplePolygon, 1, "edges 0 and 2 intersect"),
    "clockwise_bowtie": (*strip_with(c1=BOWTIE[::-1]), NonSimplePolygon, 1, "intersect"),
    # a vertex 1e-13 h_K from vertex 0, just below the square: its short edge
    # back to 0 is above the zero-edge floor, but edge 3 now steps across edge 0
    "short_edge_crossing": ([[0, 0], [1, 0], [1, 1], [0, 1], [1e-13, -1e-13]],
                            [[0, 1, 2, 3, 4]],
                            [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 3, GAMMA0),
                             (3, 4, GAMMA0), (4, 0, GAMMA0)],
                            NonSimplePolygon, 0,
                            "edges 0 and 3 intersect; shortest edge 1.0e-13 h_K"),
    "edge_shared_by_three_cells": (
        SQUARE_VERTS.tolist() + [[0.5, -1], [0.5, -2]],
        [[0, 1, 2, 3], [0, 4, 1], [0, 5, 1]],
        [(1, 2, GAMMA0), (2, 3, GAMMA0), (3, 0, GAMMA0), (0, 4, GAMMA0), (4, 1, GAMMA0),
         (0, 5, GAMMA0), (5, 1, GAMMA0)],
        NonConforming, None, "more than two cells"),
    "hanging_node_on_one_side": (
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 0.5]],
        [[0, 1, 6, 2, 3], [1, 4, 5, 2]],
        [(0, 1, GAMMA0), (1, 4, GAMMA0), (4, 5, GAMMA0), (5, 2, GAMMA0),
         (2, 3, GAMMA0), (3, 0, GAMMA0)],
        NonConforming, None, "overlap"),
    # declaring the faulty interface as boundary does not hide the hanging node
    "hanging_node_with_declared_interface": (
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 0.5]],
        [[0, 1, 6, 2, 3], [1, 4, 5, 2]],
        [(0, 1, GAMMA0), (1, 4, GAMMA0), (4, 5, GAMMA0), (5, 2, GAMMA0),
         (2, 3, GAMMA0), (3, 0, GAMMA0), (1, 6, GAMMA1), (6, 2, GAMMA1), (1, 2, GAMMA1)],
        NonConforming, None, "overlap"),
    # the hanging node 1e-13 |ab| from an end of edge ab = (1, 2): its short
    # edge (1, 6) is above the zero-edge floor, so the node is inside ab too
    "hanging_node_near_edge_end": (
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 1e-13]],
        [[0, 1, 6, 2, 3], [1, 4, 5, 2]],
        [(0, 1, GAMMA0), (1, 4, GAMMA0), (4, 5, GAMMA0), (5, 2, GAMMA0),
         (2, 3, GAMMA0), (3, 0, GAMMA0)],
        NonConforming, None, "overlap"),
    "hanging_node_near_edge_end_with_declared_interface": (
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1], [1, 1e-13]],
        [[0, 1, 6, 2, 3], [1, 4, 5, 2]],
        [(0, 1, GAMMA0), (1, 4, GAMMA0), (4, 5, GAMMA0), (5, 2, GAMMA0),
         (2, 3, GAMMA0), (3, 0, GAMMA0), (1, 6, GAMMA1), (6, 2, GAMMA1), (1, 2, GAMMA1)],
        NonConforming, None, "overlap"),
    # two copies of one cell leave no once-edge: every declared edge is a phantom
    "coincident_cells": (SQUARE_VERTS, [[0, 1, 2], [0, 2, 1]],
                         [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 0, GAMMA0)],
                         MeshError, None, "not a boundary edge"),
    "boundary_edge_declared_twice": (SQUARE_VERTS, [[0, 1, 2, 3]],
                                     SQUARE_BND + [(1, 0, GAMMA0)],
                                     MeshError, None, "declared twice"),
    "unknown_marker": (SQUARE_VERTS, [[0, 1, 2, 3]], SQUARE_BND[:3] + [(3, 0, "gamma2")],
                       MeshError, None, "unknown boundary marker"),
    "phantom_boundary_edge": (SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]],
                              SQUARE_BND + [(0, 2, GAMMA1)],
                              MeshError, None, "not a boundary edge"),
    "unmarked_boundary_edge": (SQUARE_VERTS, [[0, 1, 2, 3]], SQUARE_BND[:3],
                               UnmarkedBoundaryEdge, None, "carries no marker"),
    "empty_gamma0": (SQUARE_VERTS, [[0, 1, 2, 3]],
                     [(a, b, GAMMA1) for a, b, _ in SQUARE_BND],
                     EmptyGamma0, None, "gamma0"),
    "empty_cell_list": (SQUARE_VERTS, [], SQUARE_BND, MeshError, None, "empty"),
    "non_finite_vertex": ([[0, 0], [1, 0], [1, np.inf], [0, 1]], [[0, 1, 2, 3]], SQUARE_BND,
                          MeshError, None, "finite"),
    "fractional_index": (SQUARE_VERTS, [[0, 1, 2, 3.7]], SQUARE_BND,
                         MeshError, 0, "integer vertex indices"),
    "string_cycle": (SQUARE_VERTS, ["0123"], SQUARE_BND, MeshError, 0, "integer vertex"),
    "number_for_a_cycle": (SQUARE_VERTS, [[0, 1, 2, 3], 7], SQUARE_BND,
                           MeshError, 1, "integer vertex"),
    "bool_index": (SQUARE_VERTS, [[False, 1, 2, 3]], SQUARE_BND,
                   MeshError, 0, "integer vertex"),
    "fractional_boundary_index": (SQUARE_VERTS, [[0, 1, 2, 3]],
                                  [(0, 1.9, GAMMA1)] + SQUARE_BND[1:],
                                  MeshError, None, "not an integer"),
    "orphan_vertex": (SQUARE_VERTS.tolist() + [[5, 5]], [[0, 1, 2, 3]], SQUARE_BND,
                      MeshError, None, "vertex 4 belongs to no cell"),
    "component_without_gamma0": (
        SQUARE_VERTS.tolist() + [[2, 0], [3, 0], [3, 1], [2, 1]],
        [[0, 1, 2, 3], [4, 5, 6, 7]],
        SQUARE_BND + [(4, 5, GAMMA1), (5, 6, GAMMA1), (6, 7, GAMMA1), (7, 4, GAMMA1)],
        MeshError, None, "vertex 4 lies in a part of the mesh with no gamma0 edge"),
    # several faulty cells: the lowest cell index wins, whatever the faults
    "geometric_before_later_structural": (*strip_with(c1=SPIKE, c2=OUT_OF_RANGE),
                                          NonSimplePolygon, 1, "fold back"),
    "structural_before_later_geometric": (*strip_with(c1=REPEATED, c2=BOWTIE),
                                          NonSimplePolygon, 1, "repeated vertex"),
    "range_before_later_crossing": (*strip_with(c0=OUT_OF_RANGE, c2=BOWTIE),
                                    MeshError, 0, "out of range"),
    "quad_crossing_before_later_pentagon_spike": (*strip_with(c1=BOWTIE, c2=SPIKE),
                                                  NonSimplePolygon, 1, "intersect"),
    "pentagon_spike_before_later_quad_crossing": (*strip_with(c1=SPIKE, c2=BOWTIE),
                                                  NonSimplePolygon, 1, "fold back"),
    "zero_edge_before_later_crossing": (*strip_with(c1=ZERO_EDGE, c2=BOWTIE),
                                        ZeroLengthEdge, 1, "edge shorter"),
    "cell_fault_before_edge_fault": (*strip_with(c2=BOWTIE),
                                     NonSimplePolygon, 2, "intersect"),
    # one faulty cell with several faults: the earlier check wins
    "fewer_than_3_before_range": (SQUARE_VERTS, [[0, 9]], SQUARE_BND,
                                  NonSimplePolygon, 0, "fewer than 3"),
    "range_before_repeat": (SQUARE_VERTS, [[0, 1, 9, 1]], SQUARE_BND,
                            MeshError, 0, "out of range"),
    "vanishing_area_before_zero_edge": ([[0, 0], [1, 0], [1, 0], [2, 0]], [[0, 1, 2, 3]],
                                        SQUARE_BND, NonSimplePolygon, 0, "vanishing area"),
    "zero_edge_before_crossing": (*strip_with(c1=[1, 9, 6, 2, 10]),
                                  ZeroLengthEdge, 1, "edge shorter"),
    "spike_before_crossing": (*strip_with(c1=[1, 2, 8, 10, 6]),   # stored reversed
                              NonSimplePolygon, 1, "fold back at local vertex 3"),
}


def cell_named(exc):
    found = re.search(r"\bcell (\d+)", str(exc))
    return int(found.group(1)) if found else None


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_table(case):
    verts, cells, bnd, kind, cell, fragment = REJECTIONS[case]
    with pytest.raises(MeshError) as info:
        build_mesh(np.asarray(verts, dtype=float), cells, bnd)
    assert type(info.value) is kind, info.value
    assert cell_named(info.value) == cell, info.value
    assert fragment in str(info.value)


# vertex lists that numpy cannot read as one float array, or reads with the
# wrong shape; kept out of REJECTIONS, whose CSR-validator twin converts the
# vertices itself
MALFORMED_VERTICES = {
    "dict_coordinate": ([[0, 0], [1, {}], [1, 1], [0, 1]], "vertex 1: not two real numbers"),
    "empty_coordinate": ([[0, 0], [1, []], [1, 1], [0, 1]], "vertex 1: not two real numbers"),
    "string_coordinate": ([[0, 0], [1, 0], [1, "x"], [0, {}]],
                          "vertex 2: not two real numbers"),
    "nested_coordinate": ([[0, 0], [1, [2]], [1, 1], [0, 1]], "vertex 1: not two real numbers"),
    # numpy reads "1" and True as 1.0, but a coordinate is a real number
    "numeric_string_coordinate": ([[0, 0], [1, 0], ["1", 1], [0, 1]],
                                  "vertex 2: not two real numbers"),
    "boolean_coordinate": ([[0, 0], [1, 0], [1, 1], [0, True]], "vertex 3: not two real numbers"),
    "three_columns": ([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                      "vertices must be a non-empty (n, 2) array"),
    "no_vertices": ([], "vertices must be a non-empty (n, 2) array"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VERTICES))
def test_malformed_vertices_rejected(case):
    verts, message = MALFORMED_VERTICES[case]
    with pytest.raises(MeshError) as info:
        build_mesh(verts, [[0, 1, 2, 3]], SQUARE_BND)
    assert type(info.value) is MeshError, info.value
    assert str(info.value) == message


def csr(cells):
    """The integer cycles ``cells`` as ``(cell_ptr, cell_vertices)``."""
    ptr = np.cumsum([0] + [len(cyc) for cyc in cells])
    return ptr, np.array([v for cyc in cells for v in cyc], dtype=np.intp)


def csr_validate(verts, cells, bnd):
    """The validator the generators call, on ``cells`` packed by :func:`csr`."""
    return mesh_module._validate_csr(np.asarray(verts, dtype=float), *csr(cells), bnd)


def is_int_cycle(cyc):
    return isinstance(cyc, list) and all(type(v) is int and abs(v) < 2**62 for v in cyc)


@pytest.mark.parametrize("case", sorted(case for case, row in REJECTIONS.items()
                                        if all(map(is_int_cycle, row[1]))))
def test_rejection_table_csr_validator(case):
    verts, cells, bnd, kind, cell, fragment = REJECTIONS[case]
    with pytest.raises(MeshError) as info:
        csr_validate(verts, cells, bnd)
    assert type(info.value) is kind, info.value
    assert cell_named(info.value) == cell, info.value
    assert fragment in str(info.value)


def rotated(verts, theta):
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return np.asarray(verts, dtype=float) @ rot.T


def is_point_array(verts):
    v = np.asarray(verts, dtype=float)
    return v.ndim == 2 and v.shape[1:] == (2,) and len(v) > 0 and bool(np.all(np.isfinite(v)))


def test_rejection_verdicts_invariant_under_rotation():
    # rotated vertices are collinear only up to rounding: a spike must still
    # fold back, and a chain of flat vertices must not turn into a crossing
    for case, (verts, cells, bnd, kind, cell, _) in sorted(REJECTIONS.items()):
        if not is_point_array(verts):
            continue
        for theta in np.linspace(0.1, 6.2, 13):
            assert verdict(rotated(verts, theta), cells, bnd) == (kind.__name__, cell), (
                case, theta)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rotated_generated_meshes_validate(family):
    # t4 and t5 cells carry chains of flat vertices, which rounding bends
    # both ways once rotated about the origin
    mesh = FAMILIES[family](8)
    for theta in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
        build_mesh(rotated(mesh.vertices, theta), mesh.cells, mesh.boundary_edges)


def test_rejection_table_strip_is_valid():
    mesh = build_mesh(np.asarray(STRIP_VERTS, dtype=float), STRIP_CELLS, STRIP_BND)
    assert total_area(mesh) == pytest.approx(3.0)


def test_numpy_integer_indices_accepted():
    bnd = [(np.int32(i), np.int64(j), m) for i, j, m in SQUARE_BND]
    mesh = build_mesh(SQUARE_VERTS, np.array([[0, 1, 2, 3]], dtype=np.uint16), bnd)
    assert mesh.cells == [[0, 1, 2, 3]]
    assert all(type(v) is int for e in mesh.boundary_edges for v in e[:2])


def test_corner_touching_parts_are_one_piece():
    # two squares sharing only vertex 2: A couples them through that dof,
    # so gamma0 on the first square suffices
    verts = SQUARE_VERTS.tolist() + [[2, 1], [2, 2], [1, 2]]
    bnd = SQUARE_BND + [(2, 4, GAMMA1), (4, 5, GAMMA1), (5, 6, GAMMA1), (6, 2, GAMMA1)]
    mesh = build_mesh(verts, [[0, 1, 2, 3], [2, 4, 5, 6]], bnd)
    assert mesh.n_cells == 2


def scipy_labels(n, edges):
    graph = sps.coo_matrix((np.ones(len(edges)), tuple(np.reshape(edges, (-1, 2)).T)),
                           shape=(n, n))
    return connected_components(graph, directed=False)[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), density=st.floats(0.0, 2.0))
def test_component_labels_match_scipy_on_random_graphs(seed, n, density):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, (int(density * n), 2))   # loops and repeats included
    np.testing.assert_array_equal(mesh_module._component_labels(n, edges),
                                  scipy_labels(n, edges))


@pytest.mark.parametrize("numbering", ["identity", "reversed", "random", "interleaved"])
@pytest.mark.parametrize("shape", ["path", "strip"])
def test_component_labels_match_scipy_on_long_graphs(shape, numbering):
    # 100k vertices: a path, or a 2 x 50k ladder with rungs on its first
    # quarter only and its top row cut where the rungs end, so in two parts
    n = 100_000
    if shape == "path":
        edges = np.column_stack((np.arange(n - 1), np.arange(1, n)))
    else:
        grid = np.arange(n).reshape(2, -1)
        edges = np.vstack([np.column_stack((grid[:, :-1].ravel(), grid[:, 1:].ravel())),
                           grid.T[: n // 4]])
        edges = edges[edges.max(axis=1) != grid[0, n // 4]]
    relabel = {"identity": np.arange(n), "reversed": np.arange(n)[::-1],
               "random": np.random.default_rng(7).permutation(n),
               "interleaved": np.argsort(np.r_[0:n:2, 1:n:2])}[numbering]
    edges = relabel[edges]
    labels = mesh_module._component_labels(n, edges)
    assert labels.max() == (shape == "strip")
    np.testing.assert_array_equal(labels, scipy_labels(n, edges))


@pytest.mark.parametrize("family, N", [("t1", 5), ("t2", 4), ("t5", 4)])
def test_edge_table_matches_per_cell_count(family, N):
    mesh = FAMILIES[family](N)
    count = collections.Counter(tuple(sorted((cyc[k - 1], cyc[k])))
                                for cyc in mesh.cells for k in range(len(cyc)))
    edges, counts, _ = edge_table(mesh.cell_ptr, mesh.cell_vertices)
    assert list(map(tuple, edges.tolist())) == sorted(count)
    assert counts.tolist() == [count[e] for e in sorted(count)]
    assert sorted(map(tuple, np.sort(edges[counts == 1], axis=1).tolist())) == sorted(
        tuple(sorted(e[:2])) for e in mesh.boundary_edges)


# ---------------------------------------------------------------------------
# the verdict on a mutated mesh is invariant under renumbering and rotation


@functools.lru_cache(maxsize=None)
def small_mesh(family, N):
    mesh = FAMILIES[family](N)
    return mesh.vertices, tuple(map(tuple, mesh.cells)), tuple(mesh.boundary_edges)


def mutate(family, N, kind, c, k):
    verts, cells, bnd = small_mesh(family, N)
    verts, cells, bnd = verts.copy(), [list(cyc) for cyc in cells], list(bnd)
    c %= len(cells)
    cyc = cells[c]
    k %= len(cyc)
    nxt = (k + 1) % len(cyc)
    if kind == "swap":
        cyc[k], cyc[nxt] = cyc[nxt], cyc[k]
    elif kind == "drop":
        del cyc[k]
    elif kind == "repeat":
        cyc[k] = cyc[nxt]
    elif kind == "out_of_range":
        cyc[k] = len(verts)
    elif kind == "collapse":
        verts[cyc[k]] = verts[cyc[nxt]]
    elif kind == "triple":
        cells.append(list(cyc))
    elif kind == "unmark":
        del bnd[k % len(bnd)]
    elif kind == "redeclare":
        i, j, m = bnd[k % len(bnd)]
        bnd.append((j, i, m))
    elif kind == "marker":
        i, j, _ = bnd[k % len(bnd)]
        bnd[k % len(bnd)] = (i, j, "gamma2")
    elif kind == "phantom":
        bnd.append((cyc[0], cyc[2], GAMMA1))
    elif kind == "reverse":
        cyc.reverse()
    return verts, cells, bnd


def renumbered(verts, cells, bnd, rng):
    new_id = rng.permutation(len(verts))
    new_verts = np.empty_like(verts)
    new_verts[new_id] = verts
    out_cells = []
    for cyc in cells:
        cyc = [int(new_id[v]) if 0 <= v < len(verts) else v for v in cyc]
        shift = int(rng.integers(len(cyc)))
        cyc = cyc[shift:] + cyc[:shift]
        out_cells.append(cyc[::-1] if rng.random() < 0.5 else cyc)
    out_bnd = [(int(new_id[i]), int(new_id[j]), m) for i, j, m in bnd]
    return new_verts, out_cells, out_bnd


def verdict(verts, cells, bnd):
    try:
        build_mesh(verts, cells, bnd)
    except MeshError as exc:
        return type(exc).__name__, cell_named(exc)
    return "accepted", None


MUTATIONS = ["swap", "drop", "repeat", "out_of_range", "collapse", "triple", "unmark",
             "redeclare", "marker", "phantom", "reverse"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mesh=st.sampled_from([("t1", 2), ("t1", 3), ("t6", 2), ("t6", 4)]),
       kind=st.sampled_from(MUTATIONS), c=st.integers(0, 10**6), k=st.integers(0, 10**6),
       seed=st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_renumbering_and_rotation(mesh, kind, c, k, seed):
    data = mutate(*mesh, kind, c, k)
    expected = verdict(*data)
    assert verdict(*renumbered(*data, np.random.default_rng(seed))) == expected


def outcome(validate, verts, cells, bnd):
    """Verdict, named cell and message, or the stored cycles of an accepted mesh."""
    try:
        mesh = validate(verts, cells, bnd)
    except MeshError as exc:
        return type(exc).__name__, cell_named(exc), str(exc)
    return "accepted", None, mesh.cells


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mesh=st.sampled_from([("t1", 2), ("t1", 3), ("t6", 2), ("t6", 4)]),
       kind=st.sampled_from(MUTATIONS), c=st.integers(0, 10**6), k=st.integers(0, 10**6),
       seed=st.integers(0, 2**32 - 1))
def test_csr_validator_verdict_matches_list_path(mesh, kind, c, k, seed):
    # every mutation keeps the cells integer cycles, so the CSR validator
    # takes them all; it agrees with build_mesh and its verdict is invariant
    data = mutate(*mesh, kind, c, k)
    moved = renumbered(*data, np.random.default_rng(seed))
    expected = outcome(csr_validate, *data)
    assert expected == outcome(build_mesh, *data)
    assert outcome(csr_validate, *moved) == outcome(build_mesh, *moved)
    assert outcome(csr_validate, *moved)[:2] == expected[:2]


def reference_crossings(coords):
    """Crossing mask and first crossing edge pair of CCW ``(C, n, 2)`` cycles,
    found pair by pair with ``(..., 2)`` points and the on-segment test as an
    ``all`` over the x/y axis: the formulation the validator's coordinate-plane
    kernel must reproduce."""
    n = coords.shape[1]
    # on-segment slack: the zero-edge floor ZERO_EDGE_REL_TOL * h_K
    h_k = np.max(np.linalg.norm(coords[:, :, None] - coords[:, None], axis=-1), axis=(1, 2))
    coord_eps = (ZERO_EDGE_REL_TOL * h_k)[:, None]

    def orient(p, q, r):
        # no turn where |cross| <= ZERO_EDGE_REL_TOL times the sum of |its terms|
        terms = np.stack(((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]),
                          -(q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])))
        v, eps = terms[0] + terms[1], ZERO_EDGE_REL_TOL * np.abs(terms).sum(axis=0)
        return (v > eps).astype(int) - (v < -eps)

    pairs = [(i, j) for i in range(n) for j in range(i + 2, n) if (j + 1) % n != i]
    first_pair = np.full(len(coords), -1)
    for k, (i, j) in enumerate(pairs):
        p1, p2, p3, p4 = (coords[:, m % n] for m in (i, i + 1, j, j + 1))
        turns = ((p1, p2, p3), (p1, p2, p4), (p3, p4, p1), (p3, p4, p2))
        o = [orient(a, b, r) for a, b, r in turns]
        hit = (o[0] != o[1]) & (o[2] != o[3]) & (o[0] != 0) & (o[2] != 0)
        for o_r, (a, b, r) in zip(o, turns):
            hit |= (o_r == 0) & np.all((np.minimum(a, b) - coord_eps <= r)
                                       & (r <= np.maximum(a, b) + coord_eps), axis=1)
        first_pair[hit & (first_pair < 0)] = k
    return first_pair >= 0, np.array(pairs + [(-1, -1)], dtype=int)[first_pair]


@settings(max_examples=180, deadline=None, derandomize=True)
@given(n=st.integers(3, 11), seed=st.integers(0, 2**32 - 1), grid=st.booleans(),
       scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
def test_crossing_check_matches_pairwise_reference(n, seed, grid, scale):
    # integer-grid vertices make collinear, touching and overlapping edges;
    # x moved by a few 1e-14 keeps horizontal edges collinear and puts their
    # ends within rounding of each other, where the on-segment slack decides
    rng = np.random.default_rng(seed)
    if grid:
        coords = rng.integers(0, 4, (500, n, 2)).astype(float)
        coords[..., 0] += 1e-14 * rng.integers(-4, 5, (500, n))
    else:
        coords = rng.random((500, n, 2))
    verts = scale * coords.reshape(-1, 2)
    cycles = np.arange(500 * n).reshape(500, n)
    cycles, masks, _, crossing = mesh_module._check_group(verts, cycles)
    want_mask, want_crossing = reference_crossings(verts[cycles])
    np.testing.assert_array_equal(masks[3], want_mask)
    np.testing.assert_array_equal(crossing, want_crossing)


# ---------------------------------------------------------------------------
# the on-segment rule and the bucket join under it


def reference_near_segment(a, b, points):
    """``(segment, point, t)`` of the on-segment rule over dense (S, P) arrays
    of all pairs: the formulation the bucket join of ``_near_segment`` must
    reproduce, in its order (segment, then point)."""
    (ax, ay), (bx, by), (qx, qy) = a, b, points
    dx, dy = (bx - ax)[:, None], (by - ay)[:, None]
    px, py = qx[None] - ax[:, None], qy[None] - ay[:, None]
    l2 = dx * dx + dy * dy
    t = (px * dx + py * dy) / l2
    near = (np.abs(px * dy - py * dx) / l2 < 1e-9) & (np.abs(t - 0.5) <= 0.5 + 1e-9)
    seg, point = np.nonzero(near)
    return seg, point, t[near]


def exact_box_join(points, lo, hi):
    """``(box, point)`` pairs of exactly the points inside each box."""
    (px, py), (x0, y0), (x1, y1) = points, lo, hi
    return np.nonzero((x0[:, None] <= px) & (px <= x1[:, None])
                      & (y0[:, None] <= py) & (py <= y1[:, None]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_seg=st.integers(1, 40),
       scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
def test_near_segment_matches_dense_reference(seed, n_seg, scale):
    # segment lengths over three decades, so long ones are cut into pieces;
    # points on the segments, at and just beyond their ends, 1e-10 ... 1e-8
    # |ab| off their lines, and anywhere
    rng = np.random.default_rng(seed)
    a = scale * rng.random((n_seg, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, n_seg)
    d = scale * 10.0 ** rng.uniform(-3.0, 0.0, n_seg)[:, None] * np.column_stack(
        (np.cos(angle), np.sin(angle)))
    b = a + d
    m = 400
    which = rng.integers(0, n_seg, m)
    t = rng.random(m)
    t[: m // 2] = rng.choice([0.0, 1.0, 0.5, -1e-12, 1.0 + 1e-12, -2e-9, 1.0 + 2e-9], m // 2)
    s = rng.choice([0.0, 0.0, 1e-10, -1e-10, 5e-10, -9e-10, 2e-9, -1e-8, 1e-8], m)
    normal = np.column_stack((-d[:, 1], d[:, 0]))      # |normal| = |ab|
    pts = a[which] + t[:, None] * (b - a)[which] + s[:, None] * normal[which]
    pts = np.vstack((pts, a, b, scale * rng.random((50, 2))))
    want = reference_near_segment(a.T, b.T, pts.T)
    assert want[0].size >= n_seg      # every segment holds its own ends
    got = mesh_module._near_segment(tuple(a.T), tuple(b.T), tuple(pts.T))
    # the buckets hold more than the boxes; joined on the boxes alone, the
    # padded pieces must still cover every hit
    with mock.patch.object(mesh_module, "_bucket_join", exact_box_join):
        tight = mesh_module._near_segment(tuple(a.T), tuple(b.T), tuple(pts.T))
    for g, h, w in zip(got, tight, want):
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(h, w)


def test_hanging_node_check_stays_linear_next_to_long_edges():
    # a half-disk fan: 2000 arc edges and two radii 637 times longer.  Buckets
    # as wide as a radius would put all arc points in a few buckets, 2e6
    # candidate pairs; radii cut into pieces keep the join linear
    n = 2000
    theta = np.linspace(0.0, np.pi, n + 1)
    verts = np.vstack(([[0.0, 0.0]], np.column_stack((np.cos(theta), np.sin(theta)))))
    cells = [[0, k, k + 1] for k in range(1, n + 1)]
    bnd = [(k, k + 1, GAMMA0) for k in range(1, n + 1)] + [(0, 1, GAMMA1), (n + 1, 0, GAMMA1)]
    join, sizes = mesh_module._bucket_join, []

    def counted(*args):
        pairs = join(*args)
        sizes.append(len(pairs[0]))
        return pairs

    with mock.patch.object(mesh_module, "_bucket_join", counted):
        build_mesh(verts, cells, bnd)
    assert len(sizes) == 1 and sizes[0] < 4 * (n + 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_bucket_join_finds_every_point_of_every_box_once(seed, scale):
    rng = np.random.default_rng(seed)
    lo = scale * rng.random((40, 2))
    hi = lo + scale * 10.0 ** rng.uniform(-4.0, -0.5, (40, 2))
    pts = np.vstack((lo[:10], hi[10:20], scale * rng.random((200, 2))))   # corners too
    box, found = mesh_module._bucket_join(tuple(pts.T), tuple(lo.T), tuple(hi.T))
    pairs = set(zip(box.tolist(), found.tolist()))
    assert len(pairs) == len(box)
    inside = exact_box_join(tuple(pts.T), tuple(lo.T), tuple(hi.T))
    assert set(zip(*(i.tolist() for i in inside))) <= pairs


# ---------------------------------------------------------------------------
# element geometry


def test_square_geometry():
    mesh = unit_square_mesh()
    area, lengths, _ = edge_geometry(*cell_planes(mesh, 0))
    coords = mesh.vertices[mesh.cells[0]]
    assert area == pytest.approx(1.0)
    assert mesh.max_diameter() == pytest.approx(math.sqrt(2.0))
    assert np.sum(lengths) == pytest.approx(4.0)
    assert local_operators(coords).mean_row @ coords == pytest.approx((0.5, 0.5))


def test_triangle_geometry():
    verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    bnd = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 0, GAMMA0)]
    mesh = build_mesh(verts, [[0, 1, 2]], bnd)
    area, lengths, _ = edge_geometry(*cell_planes(mesh, 0))
    assert area == pytest.approx(0.5)
    assert mesh.max_diameter() == pytest.approx(math.sqrt(2.0))
    assert np.sum(lengths) == pytest.approx(2.0 + math.sqrt(2.0))


def test_flat_vertex_does_not_change_geometry():
    t = 1e-6
    verts = np.array([[0, 0], [t, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    bnd = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 3, GAMMA0), (3, 4, GAMMA0),
           (4, 0, GAMMA0)]
    mesh = build_mesh(verts, [[0, 1, 2, 3, 4]], bnd)
    area, lengths, _ = edge_geometry(*cell_planes(mesh, 0))
    assert area == pytest.approx(1.0)
    assert mesh.max_diameter() == pytest.approx(math.sqrt(2.0))
    assert len(lengths) == 5
    assert lengths.min() == pytest.approx(t)


def test_geometry_translation_invariance():
    mesh = FAMILIES["t2"](2)
    shifted = build_mesh(mesh.vertices + np.array([3.0, -7.0]),
                         mesh.cells, mesh.boundary_edges)
    for c in range(mesh.n_cells):
        a, b = cell_planes(mesh, c), cell_planes(shifted, c)
        (area_a, lengths_a, _), (area_b, lengths_b, _) = edge_geometry(*a), edge_geometry(*b)
        assert area_a == pytest.approx(area_b, rel=1e-12)
        assert mesh_module._diameter(*a) == pytest.approx(mesh_module._diameter(*b), rel=1e-12)
        np.testing.assert_allclose(lengths_a, lengths_b, rtol=1e-12)
        np.testing.assert_allclose(
            np.subtract(mesh_module._area_centroid(*b), mesh_module._area_centroid(*a)),
            [3.0, -7.0], atol=1e-12)


def test_outward_normals_point_away_from_centroid():
    mesh = FAMILIES["t6"](4)
    for c in range(mesh.n_cells):
        x, y = cell_planes(mesh, c)
        coords, normals = np.column_stack((x, y)), edge_geometry(x, y)[2]
        centroid = np.array(mesh_module._area_centroid(x, y))
        n = len(coords)
        for e in range(n):
            i, j = e, (e + 1) % n
            mid = 0.5 * (coords[i] + coords[j])
            assert np.dot(normals[e], mid - centroid) > 0.0


# ---------------------------------------------------------------------------
# star-shapedness


def star_ratio(mesh):
    """Star ratio of the first cell, as the quality report gives it."""
    return quality_report(mesh).star_ratio[0]


def test_star_ratio_square():
    assert star_ratio(unit_square_mesh()) == pytest.approx(
        0.5 / math.sqrt(2.0), abs=1e-9)


def test_star_ratio_equilateral_triangle():
    verts = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    bnd = [(0, 1, GAMMA0), (1, 2, GAMMA0), (2, 0, GAMMA0)]
    mesh = build_mesh(verts, [[0, 1, 2]], bnd)
    assert star_ratio(mesh) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-9)


def single_cell_mesh(verts):
    verts = np.asarray(verts, dtype=float)
    n = len(verts)
    return build_mesh(verts, [list(range(n))], [(i, (i + 1) % n, GAMMA0) for i in range(n)])


def grid_search_clearance(mesh, xs, ys):
    """Brute force: the largest clearance from all edge lines of the single
    cell over the grid points ``xs x ys``."""
    x, y = cell_planes(mesh, 0)
    normals = edge_geometry(x, y)[2]
    cx, cy = np.meshgrid(xs, ys, indexing="ij")
    offsets = np.sum(normals * np.column_stack((x, y)), axis=1)
    clearance = np.min(offsets - cx[..., None] * normals[:, 0]
                       - cy[..., None] * normals[:, 1], axis=-1)
    return float(clearance.max())


L_HEXAGON = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]


def test_star_ratio_lshaped_hexagon_vs_grid_search():
    mesh = single_cell_mesh(L_HEXAGON)

    # brute force: largest disk centered in the kernel (intersection of the
    # inner half-planes of all six edges)
    xs = np.linspace(0.0, 2.0, 401)
    best = grid_search_clearance(mesh, xs, xs)
    assert star_ratio(mesh) == pytest.approx(best / mesh.max_diameter(), abs=1e-3)


@pytest.mark.parametrize("n", range(3, 13))
def test_star_ratio_regular_polygon_closed_form(n):
    radius, phase = 1.7, 0.3
    theta = phase + 2.0 * math.pi * np.arange(n) / n
    mesh = single_cell_mesh(radius * np.column_stack((np.cos(theta), np.sin(theta))))
    inradius = radius * math.cos(math.pi / n)
    diameter = 2.0 * radius * (1.0 if n % 2 == 0 else math.cos(math.pi / (2 * n)))
    assert star_ratio(mesh) == pytest.approx(inradius / diameter, rel=1e-13)


def test_star_ratio_many_sided_cell_in_bounded_memory():
    # one regular 64-gon holds C(64, 3) * 64 = 2.7 million (triple, edge)
    # entries; its triples go in chunks of at most _KERNEL_CHUNK entries, so
    # the report's traced peak stays at a few MiB (48.9 MiB unchunked).  The
    # 96-gon's C(96, 3) triple table takes 3.3 MiB as one integer array; with
    # a Python tuple per triple the report peaked at 17.5 MiB.
    for n, bound_mib in ((64, 12), (96, 8)):
        theta = 0.3 + 2.0 * math.pi * np.arange(n) / n
        mesh = single_cell_mesh(1.7 * np.column_stack((np.cos(theta), np.sin(theta))))
        tracemalloc.start()
        try:
            ratio = star_ratio(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ratio == pytest.approx(0.5 * math.cos(math.pi / n), rel=1e-13), n
        assert peak < bound_mib * 2**20, (n, peak)


# the edges on y = 0, y = x and y = -x confine the kernel to the origin
POINT_KERNEL = [[1, 0], [3, 0], [3, 3], [2, 2], [-2, 2], [-3, 3], [-3, -3]]
# staircase octagon: one wall demands x >= 2, another x <= 1
STAIRCASE = [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 2], [0, 2]]


def test_star_ratio_invariant_under_rigid_motion_and_scale():
    rng = np.random.default_rng(7)
    t5 = FAMILIES["t5"](4)
    polygons = [
        L_HEXAGON,
        # a square with a hanging node on every edge: flat-angle vertices
        [[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 2], [0, 2], [0, 1]],
        t5.vertices[t5.cells[5]],
    ]
    for verts in map(np.asarray, polygons):
        base = star_ratio(single_cell_mesh(verts))
        for s in (1.0, 1e-6, 1e6):
            for _ in range(5):
                a = rng.uniform(0.0, 2.0 * math.pi)
                rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                moved = s * (verts @ rot.T + rng.uniform(-3.0, 3.0, 2))
                assert star_ratio(single_cell_mesh(moved)) == pytest.approx(base, rel=1e-12)


def test_star_ratio_random_polygons_vs_grid_search():
    rng = np.random.default_rng(2012)
    for _ in range(12):
        # radial perturbation of a circle: star-shaped about the origin
        n = int(rng.integers(5, 11))
        theta = 2.0 * math.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
        radii = 1.0 + 0.4 * rng.uniform(-1.0, 1.0, n)
        mesh = single_cell_mesh(radii[:, None] * np.column_stack((np.cos(theta),
                                                                  np.sin(theta))))
        rho = star_ratio(mesh) * mesh.max_diameter()
        xs = np.linspace(-1.5, 1.5, 301)
        best = grid_search_clearance(mesh, xs, xs)
        # clearance is 1-Lipschitz: the optimum lies within half a grid
        # diagonal of some grid point
        assert best - 1e-12 <= rho <= best + (xs[1] - xs[0]) / math.sqrt(2.0)
    for _ in range(12):
        # thick C-shaped arc spanning more than half a turn: two inner edges
        # face opposite ways, so no point sees the whole cell
        m = int(rng.integers(4, 8))
        theta = rng.uniform(0.0, 2.0 * math.pi) + np.linspace(
            0.0, rng.uniform(1.3, 1.8) * math.pi, m)
        arc = np.column_stack((np.cos(theta), np.sin(theta)))
        outer = rng.uniform(0.9, 1.1, m)[:, None] * arc
        inner = rng.uniform(0.4, 0.6, m)[:, None] * arc
        mesh = single_cell_mesh(np.concatenate((outer, inner[::-1])))
        xs = np.linspace(-1.2, 1.2, 241)
        assert grid_search_clearance(mesh, xs, xs) < 0.0
        assert np.isnan(star_ratio(mesh))


# ---------------------------------------------------------------------------
# quality report


def test_quality_report_matches_per_cell_ratio(monkeypatch):
    # a small chunk splits every vertex-count group of the batched kernel
    # into chunks of a cell or a few; the ratios must not move by a bit
    meshes = [FAMILIES["t5"](4), FAMILIES["t2"](8), FAMILIES["t6"](16)]
    whole = [quality_report(mesh).star_ratio for mesh in meshes]
    monkeypatch.setattr(mesh_module, "_KERNEL_CHUNK", 100)
    for mesh, ratio in zip(meshes, whole):
        np.testing.assert_array_equal(quality_report(mesh).star_ratio, ratio, strict=True)


def test_quality_axis_aligned_squares():
    report = quality_report(FAMILIES["t6"](4))
    assert report.global_min_edge_ratio == pytest.approx(1.0 / math.sqrt(2.0))


def test_quality_small_edges_decay_linearly():
    ratios = [quality_report(FAMILIES["t2"](N)).global_min_edge_ratio
              for N in (8, 16, 32)]
    assert ratios[0] / ratios[1] == pytest.approx(2.0, rel=1e-6)
    assert ratios[1] / ratios[2] == pytest.approx(2.0, rel=1e-6)


def test_quality_smallest_edge_matches_he_squared():
    for N in (4, 8):
        mesh = FAMILIES["t2"](N)
        shortest = min(edge_geometry(*cell_planes(mesh, c))[1].min()
                       for c in range(mesh.n_cells))
        he = math.sqrt(2.0) / (2.0 * N)   # half-diagonal sub-edge length
        assert shortest == pytest.approx(he ** 2, rel=1e-12)


def test_quality_flags_non_star_cell():
    for verts in (STAIRCASE, POINT_KERNEL):
        report = quality_report(single_cell_mesh(verts))
        assert report.empty_kernel_cells == [0]
        assert np.isnan(report.star_ratio[0])


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(tmp_path):
    mesh = FAMILIES["t1"](4)
    path = tmp_path / "mesh.json"
    save_mesh_json(mesh, path)
    streamed = io.StringIO()   # the streaming encoder writes the same bytes
    json.dump(mesh_module.mesh_to_dict(mesh), streamed)
    assert path.read_text() == streamed.getvalue() + "\n"
    back = load_mesh_json(path)
    np.testing.assert_allclose(back.vertices, mesh.vertices)
    assert back.cells == mesh.cells
    assert back.boundary_edges == mesh.boundary_edges


@pytest.mark.parametrize("entry", [[2, 3, GAMMA0, "extra"], [2, 3]])
def test_json_boundary_entry_has_exactly_three_fields(entry):
    data = {"vertices": SQUARE_VERTS.tolist(), "cells": [[0, 1, 2, 3]],
            "boundary": [list(e) for e in SQUARE_BND]}
    data["boundary"][2] = entry
    with pytest.raises(MeshError) as info:
        mesh_module.mesh_from_dict(data)
    assert str(info.value) == "boundary entry 2: not [i, j, marker]"


@pytest.mark.parametrize("entry", [(0, 1), 5, (0, 1, GAMMA1, GAMMA0), "01g"])
def test_build_mesh_boundary_entry_has_exactly_three_fields(entry):
    # the entries are checked first: a bad entry is named even next to bad vertices
    for verts in (SQUARE_VERTS, None):
        with pytest.raises(MeshError) as info:
            build_mesh(verts, [[0, 1, 2, 3]], [entry] + SQUARE_BND[1:])
        assert str(info.value) == "boundary entry 0: not [i, j, marker]"


@pytest.mark.parametrize("boundary", [None, 7, set(SQUARE_BND)], ids=["None", "7", "set"])
def test_build_mesh_boundary_is_a_list(boundary):
    with pytest.raises(MeshError, match="boundary must be a list"):
        build_mesh(SQUARE_VERTS, [[0, 1, 2, 3]], boundary)


def test_json_rejects_invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]], '
                    '"cells": [[0,1,2,3]], "boundary": []}')
    with pytest.raises(MeshError):
        load_mesh_json(path)
