"""Deterministic generators for the benchmark domains and mesh families.

Every generator runs the same array pipeline, with the cells in CSR form
(``cell_ptr``, ``cell_vertices``, as in :mod:`steklovem.mesh`) throughout:

1. each structured patch emits its cells as one ``(C, n, 2)`` array of
   vertex coordinates, in cycle order;
2. one merge numbers the points of all patches (:func:`_merge_points`):
   points within ``_MERGE_TOL`` = 1e-10 of each other are one vertex, which
   keeps the number and coordinates of its first occurrence.  The distinct
   points are swept in (x-run, y) order, an x-run being distinct x values
   chained by steps of at most ``_MERGE_TOL``: close points share a run,
   and the sweep pairs each point with the points after it in its run
   whose y lies within ``_MERGE_TOL``.  The close pairs are labelled as
   components, one per vertex, and every input is numbered by that one
   rule: a point with no close partner is a component of its own;
3. one join makes the composite conforming (:func:`_conformalize`): the
   once-edge endpoints (an edge of a single cell is the only kind that can
   hold a hanging node) lying inside a once-edge, by the on-segment rule of
   :mod:`steklovem.mesh` that the validator checks too, are inserted into
   their cells as flat-angle vertices by one sort.  It returns the edge
   table of the cells it returns; when it finds no hanging node (t2, and
   t6 before refinement), those are its input cells and the table is the
   one it searched;
4. the boundary edges of that edge table are marked, and the CSR validator
   of :mod:`steklovem.mesh` checks the arrays as they are, with the same
   edge table and no round trip through Python lists.

The merge sorts coordinates and the join sorts grid bucket keys
(:func:`steklovem.mesh._bucket_join`), so generation needs only numpy.
Points, boxes and edges go through them as x and y planes, under the rule of
:mod:`steklovem.mesh`: no reduction over an axis of length 2, the two
components written out instead.  Corner refinement
(:func:`refine_lshape_corner`) runs the same steps on the parent's vertices
plus the pieces of all patch cells, which it builds in one array pass; the
join puts the patch cells' flat-angle vertices back into the pieces.

Families
--------
square_glued            two quad grids glued at y = 0.6 (small interface edges)
square_perturbed_tri    triangles with an extra edge point at distance h_e^2
rotated_t (variants 3-5)  the rotated-T domain glued at x = 0
lshape_uniform          uniform square grid on the L-shape
refine_lshape_corner    corner-patch refinement producing hanging nodes
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InvalidN
from .mesh import (
    GAMMA0,
    GAMMA1,
    PolygonalMesh,
    _area_centroid,
    _component_labels,
    _diameter,
    _hanging_nodes,
    _near_segment,
    _validate_csr,
    cycle_edges,
    edge_table,
)

# the gamma0 side of the square families
_TOP_Y = 1.0
# points closer than this are one vertex.  The floor is absolute, not
# relative to the mesh size: generator coordinates must be O(1), and an edge
# of a generated mesh is never shorter than 1e-10
_MERGE_TOL = 1e-10


def _grid_corners(xs, ys):
    """Lower-left, lower-right, upper-right and upper-left corners of the
    cells of the tensor grid of ``xs`` and ``ys``, each ``(ny, nx, 2)``."""
    p = np.stack(np.meshgrid(xs, ys), axis=-1)
    return p[:-1, :-1], p[:-1, 1:], p[1:, 1:], p[1:, :-1]


def _quads(xs, ys) -> np.ndarray:
    """``(C, 4, 2)`` CCW quads of the tensor grid of ``xs`` and ``ys``, row by row."""
    return np.stack(_grid_corners(xs, ys), axis=2).reshape(-1, 4, 2)


def _quad_grid(x0, x1, y0, y1, nx, ny) -> np.ndarray:
    return _quads(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))


def _perturbed_triangle_grid(x0, x1, y0, y1, nx, ny, split_fraction=None) -> np.ndarray:
    """Criss-cross triangulated quad grid with one extra point per edge.

    Each square is split into four triangles by both diagonals and every
    edge gains an additional point, turning each triangle into a hexagon;
    the result is ``(C, 6, 2)``.  With ``split_fraction=None`` the point sits
    at arc distance h_e^2 from the lexicographically smaller endpoint; a
    numeric fraction (e.g. 0.5 for midpoints) places it at that fraction
    instead.
    """
    a, b, c, d = _grid_corners(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    o = 0.5 * (a + c)
    fans = ((a, b, o), (b, c, o), (c, d, o), (d, a, o))
    tri = np.stack([np.stack(t, axis=2) for t in fans], axis=2).reshape(-1, 3, 2)
    start, end = tri, np.roll(tri, -1, axis=1)
    swap = ((start[..., 0] > end[..., 0])
            | ((start[..., 0] == end[..., 0]) & (start[..., 1] > end[..., 1])))[..., None]
    u = np.where(swap, end, start)                  # lexicographic on (x, y)
    uv = np.where(swap, start, end) - u
    if split_fraction is None:
        # arc distance h_e^2 from u, i.e. fraction h_e of the edge; math.hypot,
        # not np.hypot: the two differ in the last bit on some edges.  Fall
        # back to the midpoint when h_e >= 1 (degenerate at N=1)
        h = np.reshape(list(map(math.hypot, *uv.reshape(-1, 2).T.tolist())), uv.shape[:-1])
        t = np.where(h < 1.0, h, 0.5)
    else:
        t = np.full(uv.shape[:-1], split_fraction)
    return np.stack((start, u + t[..., None] * uv), axis=2).reshape(-1, 6, 2)


def _merge_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and the vertex id of each of the ``(P, 2)`` points.

    Points within ``_MERGE_TOL`` of each other (transitively) are one vertex;
    vertices are numbered in order of first occurrence and sit at their
    first point.

    One lexsort on (x, y) collapses exact duplicates, and one sweep finds
    every close pair of distinct points.  The sorted distinct x values are
    cut into x-runs wherever a step between them exceeds ``_MERGE_TOL``, so
    two close points lie in one run: their x difference is the sum of the
    steps between them.  With the points ordered by (run, y), each point is
    paired with the points d = 1, 2, ... places after it, and the sweep stops
    at the first offset d at which no pair lies in one run within
    ``_MERGE_TOL`` in y.  That stop is exact: if p and the point d' > d
    places after it share a run, so does the point d places after p, and its
    y lies between theirs.  Each offset is one pass over the points; on the
    generator and refinement points of every family at N <= 64 the sweep
    stops at d = 1 or 2.

    One rule numbers the vertices of every input.  The pairs that pass the
    distance test are labelled as components
    (:func:`steklovem.mesh._component_labels`); with no such pair, each
    distinct point is its own component.  The lexsort is stable, so the
    first occurrence of a distinct point is its first place in ``order``;
    that of a component is the least first occurrence of its distinct
    points.  Vertices are ranked by the first occurrence of their component:
    ``head`` marks the first occurrences among the points, and its running
    count is the rank.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # column gathers and integer indices: at generator sizes the row gather
    # pts[order] and boolean-mask indexing cost a tenth of the merge more
    x, y = pts[:, 0][order], pts[:, 1][order]
    new = np.concatenate(([True], (x[1:] != x[:-1]) | (y[1:] != y[:-1])))
    start = np.flatnonzero(new)
    x, y = x[start], y[start]
    run = np.concatenate(([0], np.cumsum(np.diff(x) > _MERGE_TOL)))
    by = np.lexsort((y, run))
    run, ry = run[by], y[by]
    # offset d adds the pairs (by[k], by[k + d]); by[:0] starts both lists
    # with an empty index array, for inputs with no pair at d = 1
    i, j, d = [by[:0]], [by[:0]], 1
    while len(k := np.flatnonzero((run[d:] == run[:-d]) & (ry[d:] - ry[:-d] <= _MERGE_TOL))):
        i.append(by[k])
        j.append(by[k + d])
        d += 1
    i, j = np.concatenate(i), np.concatenate(j)
    dx, dy = x[i] - x[j], y[i] - y[j]
    close = dx * dx + dy * dy <= _MERGE_TOL ** 2
    labels = _component_labels(len(x), np.column_stack((i[close], j[close])))
    first = np.full(labels.max() + 1, len(pts))
    np.minimum.at(first, labels, order[start])
    head = np.zeros(len(pts), dtype=bool)
    head[first] = True
    ids = np.empty(len(pts), dtype=np.intp)
    ids[order] = (np.cumsum(head) - 1)[first[labels]][np.cumsum(new) - 1]
    return pts[head], ids


def _finish(patches, gamma0_rule: str) -> PolygonalMesh:
    """Merge the points of ``(C, n, 2)`` patch arrays into one conforming,
    marked and validated mesh."""
    verts, ids = _merge_points(np.concatenate([p.reshape(-1, 2) for p in patches]))
    sizes = np.concatenate([np.full(len(p), p.shape[1]) for p in patches])
    ptr, flat, table = _conformalize(verts, np.concatenate(([0], np.cumsum(sizes))), ids)
    return _validate_csr(verts, ptr, flat, _mark_boundary(verts, *table, gamma0_rule),
                         table=table)


def _conformalize(verts: np.ndarray, cell_ptr, cell_vertices):
    """Insert vertices lying in the interior of a cell edge into that cell;
    returns the new ``(cell_ptr, cell_vertices)`` and their edge table
    ``(edges, counts)`` of :func:`steklovem.mesh.edge_table`.

    Makes glued patches conforming: a hanging node becomes a flat-angle
    vertex of every cell whose edge it sits on.  Only an edge that occurs in
    one cell (a once-edge of :func:`steklovem.mesh.edge_table`) can hold one:
    the two cells sharing an edge cover both of its sides, so a third cell
    with a vertex inside that edge would overlap one of them, and the patches
    do not overlap.  For the same reason only once-edge endpoints can be
    hanging: a vertex p inside the once-edge ab of cell K is a corner of the
    cells across ab, and their edges along ab from p lie against K, so no
    second cell shares them.  The hanging nodes are the ones
    :func:`steklovem.mesh._hanging_nodes` finds, with t in
    (``ZERO_EDGE_REL_TOL``, 1 - ``ZERO_EDGE_REL_TOL``) along the edge, under
    the rule the validator rejects them by, so a vertex missed here fails
    validation as non-conforming.  One lexsort on (edge slot, t, vertex) puts
    them after the start vertex of their edge.  When there is none, the
    input cells come back as they are, with the table built to find them.
    """
    ia, ib = cycle_edges(cell_ptr, cell_vertices).T
    edges, counts, row = edge_table(cell_ptr, cell_vertices)
    once = np.flatnonzero(counts[row] == 1)
    edge, hanging, t = _hanging_nodes(verts, ia[once], ib[once])
    # kept for speed, not correctness: the general insertion below returns the
    # same cells, but at t2 N=32 it takes 4.0 ms (one BLAS thread, 2 vCPUs)
    # where this return takes 2.0 ms, about 5% of a t2 study repetition
    if not edge.size:
        return cell_ptr, cell_vertices, (edges, counts)
    slot = np.concatenate((np.arange(len(ia)), once[edge]))
    vertex = np.concatenate((ia, hanging))
    order = np.lexsort((vertex, np.concatenate((np.full(len(ia), -1.0), t)), slot))
    n_cells = len(cell_ptr) - 1
    cell = np.repeat(np.arange(n_cells), np.diff(cell_ptr))[slot]
    sizes = np.bincount(cell, minlength=n_cells)
    ptr, flat = np.concatenate(([0], np.cumsum(sizes))), vertex[order]
    return ptr, flat, edge_table(ptr, flat)[:2]


def _mark_boundary(verts, edges, counts, gamma0_rule: str) -> list[tuple[int, int, str]]:
    """Assign markers to the boundary edges of the cell complex, given its
    edge table ``(edges, counts)``.

    ``gamma0_rule``: ``"all"`` marks everything gamma0; ``"top"`` marks
    the edges with both endpoints on y = 1 and the rest gamma1.
    """
    once = edges[counts == 1]
    if gamma0_rule == "all":
        on_top = np.ones(len(once), dtype=bool)
    elif gamma0_rule == "top":
        on_top = np.logical_and(*(np.abs(verts[once, 1] - _TOP_Y) < 1e-12).T)
    else:
        raise ValueError(f"unknown gamma0 rule {gamma0_rule!r}")
    return [(i, j, GAMMA0 if top else GAMMA1)
            for (i, j), top in zip(once.tolist(), on_top.tolist())]


# ---------------------------------------------------------------------------
# square domain families

def gen_square_glued(N: int) -> PolygonalMesh:
    """Unit square meshed by two quad grids glued at y = 0.6.

    The upper grid has N columns, the lower one N + 1, so the interface
    vertices interleave with gaps down to 1/(N(N+1)); the cells on both
    sides absorb the opposite side's interface vertices as flat-angle
    vertices, which is exactly the small-edge regime under study.
    Gamma0 is the top side y = 1.
    """
    if N < 2:
        raise InvalidN("square_glued requires N >= 2")
    return _finish([_quad_grid(0.0, 1.0, 0.6, 1.0, N, max(1, math.ceil(0.4 * N))),
                    _quad_grid(0.0, 1.0, 0.0, 0.6, N + 1, math.ceil(0.6 * N))], "top")


def gen_square_perturbed_triangles(N: int) -> PolygonalMesh:
    """Unit-square triangulation with a near-vertex point on every edge.

    Each grid square is split into four triangles by its diagonals;
    every edge of the triangulation gains a point at arc distance h_e^2
    from the lexicographically smaller endpoint, so each triangle becomes
    a hexagon whose shortest edge is h_e^2 while the diameter stays
    O(h_e).  Gamma0 is the top side y = 1.
    """
    if N < 1:
        raise InvalidN("square_perturbed_tri requires N >= 1")
    return _finish([_perturbed_triangle_grid(0.0, 1.0, 0.0, 1.0, N, N)], "top")


# ---------------------------------------------------------------------------
# rotated-T domain

def gen_rotated_t(N: int, variant: int = 3) -> PolygonalMesh:
    """Rotated-T domain meshed by two sub-meshes glued at x = 0.

    The domain is (-0.5, 0.5) x (-0.5, 0) union (-0.25, 0.25) x (0, 1)
    with gamma0 the full boundary.  The left half is resolved with target
    step 1/N and the right half with 1/(N + 1), so the interface at x = 0
    carries hanging nodes with arbitrarily small edge fractions.
    Variants: 3 = quads on both halves, 4 = right half split into
    hexagons via edge midpoints, 5 = right half hexagons with the
    h_e^2 perturbed edge point.
    """
    if N < 4:
        raise InvalidN("rotated_t requires N >= 4")
    if variant not in (3, 4, 5):
        raise InvalidN(f"unknown rotated-T variant {variant}")

    def half(x_in, x_bar, x_stem, n):
        # bar: (x_bar, x_in) x (-0.5, 0); stem: (x_stem, x_in) x (0, 1)
        nx_bar = math.ceil(0.5 * n)
        ny_bar = math.ceil(0.5 * n)
        nx_stem = math.ceil(0.25 * n)
        lo_bar, hi_bar = sorted((x_in, x_bar))
        lo_st, hi_st = sorted((x_in, x_stem))
        if x_in > x_bar or variant == 3:
            return [_quad_grid(lo_bar, hi_bar, -0.5, 0.0, nx_bar, ny_bar),
                    _quad_grid(lo_st, hi_st, 0.0, 1.0, nx_stem, n)]
        frac = 0.5 if variant == 4 else None
        return [_perturbed_triangle_grid(lo_bar, hi_bar, -0.5, 0.0, nx_bar, ny_bar, frac),
                _perturbed_triangle_grid(lo_st, hi_st, 0.0, 1.0, nx_stem, n, frac)]

    return _finish(half(0.0, -0.5, -0.25, N)          # left half, step ~ 1/N
                   + half(0.0, 0.5, 0.25, N + 1),     # right half, step ~ 1/(N+1)
                   "all")


# ---------------------------------------------------------------------------
# L-shaped domain

def gen_lshape_uniform(N: int) -> PolygonalMesh:
    """Uniform square grid on the L-shape (0,1)^2 minus [0.5,1) x [0.5,1).

    N is the number of elements along each unit edge and must be even so
    the re-entrant corner sits on the grid.  Gamma0 is the full boundary.
    """
    if N < 2 or N % 2 != 0:
        raise InvalidN("lshape_uniform requires even N >= 2")
    grid = np.arange(N + 1) * (1.0 / N)
    i, j = np.meshgrid(np.arange(N), np.arange(N))
    return _finish([_quads(grid, grid)[((i < N // 2) | (j < N // 2)).ravel()]], "all")


def _refinement_halfwidth(level: int, N: int) -> float:
    return (6.0 / N) * 2.0 ** (1 - level)


def refine_lshape_corner(mesh: PolygonalMesh, level: int, N: int) -> PolygonalMesh:
    """One corner-refinement sweep around the re-entrant corner (1/2, 1/2).

    Every cell whose barycenter lies in the square patch of half-width
    (6/N) 2^(1-l) around the corner is split by joining its barycenter to
    the midpoint of each primary edge (an edge between consecutive
    non-flat corners).  A square cell yields four sub-squares; neighbours
    outside the patch keep their shape and gain the new midpoints as
    flat-angle vertices.  Markers are inherited from the parent mesh.

    All patch cells are split in one array pass: piece r of a cell with
    corners c_0, ..., c_{m-1} is the quad (mid_{r-1}, c_r, mid_r, barycenter)
    with mid_r = (c_r + c_{r+1}) / 2, and the new points are numbered cell
    by cell, barycenter first.  A flat-angle vertex of a patch cell is left
    out of its pieces; :func:`_conformalize` puts it back as a hanging node,
    which requires it to be a vertex of another cell of the refined mesh (a
    cell outside the patch, or a corner of a patch cell).  Every mesh of
    :func:`gen_lshape_uniform` and of this function meets that; a flat
    vertex on the domain boundary does not, and the refined mesh then fails
    validation with :class:`~steklovem.errors.MeshError` (vertex of no cell).
    """
    if level < 1:
        raise InvalidN("refinement level must be >= 1")
    w = _refinement_halfwidth(level, N)
    bary, h = np.empty((mesh.n_cells, 2)), np.empty(mesh.n_cells)
    for cells, _, x, y in mesh.grouped_planes():
        bary[cells], h[cells] = np.column_stack(_area_centroid(x, y)), _diameter(x, y)
    inside = np.logical_and(*(np.abs(bary - 0.5) <= w + 1e-12).T)

    # corners = patch cell vertices where the boundary actually turns
    old_sizes = np.diff(mesh.cell_ptr)
    slot_cell = np.repeat(np.arange(mesh.n_cells), old_sizes)
    succ = cycle_edges(mesh.cell_ptr, np.arange(len(slot_cell)))[:, 1]
    xy = mesh.vertices[mesh.cell_vertices]
    v = xy[succ] - xy
    u = np.empty_like(v)
    u[succ] = v
    turn = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    corner = np.flatnonzero(inside[slot_cell] & (turn > 1e-12 * h[slot_cell] ** 2))
    cell = slot_cell[corner]
    n_corners = np.bincount(cell, minlength=mesh.n_cells)[inside]
    for m in n_corners[n_corners != 4].tolist():
        warnings.warn(
            f"refined cell has {m} corners, not a quad patch; "
            "fanning barycenter to all primary-edge midpoints")

    # piece r of each patch cell: (mid_{r-1}, c_r, mid_r, barycenter)
    c = xy[corner]
    nxt = cycle_edges(np.concatenate(([0], np.cumsum(n_corners))), np.arange(len(c)))[:, 1]
    mid = 0.5 * (c + c[nxt])
    mid_in = np.empty_like(mid)
    mid_in[nxt] = mid
    pieces = np.stack((mid_in, c, mid, bary[cell]), axis=1)
    # parent vertices, then per patch cell its barycenter and midpoints, then
    # the corners of the pieces, each of which meets a point already numbered
    patch = np.flatnonzero(inside)
    seeds = np.concatenate((bary[patch], mid))[
        np.argsort(np.concatenate((patch, cell)), kind="stable")]
    n_head = len(mesh.vertices) + len(seeds)
    verts, ids = _merge_points(np.concatenate((mesh.vertices, seeds, pieces.reshape(-1, 2))))

    # the kept cycles and the pieces, put back in parent cell order
    kept = ~inside
    parent = np.concatenate((np.flatnonzero(kept), cell))
    sizes = np.concatenate((old_sizes[kept], np.full(len(cell), 4)))
    flat = np.concatenate((ids[mesh.cell_vertices[kept[slot_cell]]], ids[n_head:]))
    flat = flat[np.argsort(np.repeat(parent, sizes), kind="stable")]
    ptr = np.concatenate(([0], np.cumsum(sizes[np.argsort(parent, kind="stable")])))
    ptr, flat, table = _conformalize(verts, ptr, flat)
    return _validate_csr(verts, ptr, flat, _inherit_markers(mesh, verts, *table),
                         table=table)


def _inherit_markers(parent: PolygonalMesh, verts, edges,
                     counts) -> list[tuple[int, int, str]]:
    """Mark the boundary of a refined mesh, given its edge table ``(edges,
    counts)``, from the parent's markers: each boundary edge takes the marker
    of the first parent boundary edge that holds its midpoint, by
    :func:`steklovem.mesh._near_segment` with t in [-1e-12, 1 + 1e-12] (a
    midpoint may sit on a parent vertex)."""
    start, end = np.array([(i, j) for i, j, _ in parent.boundary_edges]).T
    once = edges[counts == 1]
    mid = 0.5 * (verts[once[:, 0]] + verts[once[:, 1]])
    edge, k, t = _near_segment(parent.vertices[start].T, parent.vertices[end].T, mid.T)
    on = (-1e-12 <= t) & (t <= 1.0 + 1e-12)
    first = np.full(len(once), len(start))
    np.minimum.at(first, k[on], edge[on])
    stray = np.flatnonzero(first == len(start))
    if stray.size:
        raise RuntimeError("refined boundary edge ({}, {}) does not lie on the parent "
                           "boundary".format(*once[stray[0]]))
    markers = [m for _, _, m in parent.boundary_edges]
    return [(i, j, markers[f]) for (i, j), f in zip(once.tolist(), first.tolist())]


# ---------------------------------------------------------------------------
# registry used by the study harness and the CLI: each family's generator
# and the domain it meshes

FAMILIES = {
    "t1": lambda N: gen_square_glued(N),
    "t2": lambda N: gen_square_perturbed_triangles(N),
    "t3": lambda N: gen_rotated_t(N, 3),
    "t4": lambda N: gen_rotated_t(N, 4),
    "t5": lambda N: gen_rotated_t(N, 5),
    "t6": lambda N: gen_lshape_uniform(N),
}
FAMILY_DOMAIN = {"t1": "square", "t2": "square", "t3": "rotated-t",
                 "t4": "rotated-t", "t5": "rotated-t", "t6": "lshape"}
