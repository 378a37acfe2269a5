"""Polygonal mesh representation, validation and cell geometry.

A mesh is an array of vertices, its cells as counter-clockwise vertex
cycles in compressed sparse row form and a list of marked boundary edges:
``cell_vertices`` holds the cycles one after another and cell c is
``cell_vertices[cell_ptr[c]:cell_ptr[c + 1]]``.  Everything reads the flat
arrays: the cells of one vertex count are one ``(C, n)`` gather
(:func:`_size_groups`), the edges pair each cycle entry with its successor
(:func:`cycle_edges`) and one edge table counts them (:func:`edge_table`).
The list-of-lists ``cells`` is derived on demand for the JSON and VTK
writers.  Hanging nodes are always stored explicitly in both incident cells,
so a valid mesh is conforming by construction: an edge shared by two cells
is identical as a vertex pair, and a vertex sitting on a neighbour's edge
shows up in that neighbour's cycle as a flat-angle vertex.

Validation is batched like the geometry and runs on the CSR arrays
(:func:`_validate_csr`, which the generators call directly).  Raw input to
:func:`build_mesh` is checked in Python to be sequences of integer indices,
once per distinct cell and entry type, and is packed into CSR form.
Grouped by vertex count, the cycles are then checked for at least three
vertices, indices in range and distinct vertices, and each group's
orientation, area, edge lengths, fold-back spikes and edge crossings are
array computations on the group's coordinate planes, with the geometry
kernels below.  A cell whose area is at most
``VANISHING_AREA_REL_TOL * h_K**2`` is rejected here, with the cutoff
assembly applies.  The edge table gives every edge count: edges shared by
more than two cells, hanging nodes, unmarked or phantom boundary edges,
vertices in no cell and parts of the mesh without a gamma0 edge.  A hanging
node is an endpoint of a once-edge (an edge of one cell) strictly inside
another once-edge (:func:`_hanging_nodes`): a flat-angle vertex missing from
one incident cell, found by the one on-segment rule (:func:`_near_segment`)
that :mod:`steklovem.meshgen` also inserts hanging nodes and inherits
boundary markers by.  A faulty mesh raises for its first faulty cell in cell
order, and within that cell for the first failed check
(:func:`raise_first_fault`).

All geometry reads coordinate planes: the x and y of a group of cells are
two ``(C, n)`` arrays (an edge list is two endpoint columns).  Validation
gathers them from the raw cycles.  On a mesh,
:meth:`PolygonalMesh.grouped_planes` hands out the cell ids, the cycles and
their planes per vertex count, and :func:`quality_report`, the diameter and
area of the mesh, corner refinement and assembly all read it.  Each derives
what it needs from the same kernels: :func:`_edge_arrays` (tangents, lengths
and the shoelace terms of the area), :func:`_diameter` and, for refinement,
:func:`_area_centroid`.  Anything with two components is written out,
``dx * dx + dy * dy``, never a sum, sort, ``norm``, ``ptp`` or
``all``/``any`` over an axis of length 2.  numpy runs such a reduction as
one short inner loop per row: on a 2-vCPU host the squared lengths of
``(4096, 6, 2)`` take 505 us as a sum and 47 us written out on planes, and
``ptp`` over the vertex axis takes 570 us against 41 us for the same
extremes taken one vertex column at a time.  The written-out forms are
bit-identical: a two-term reduction is ``a[..., 0] + a[..., 1]``, and
``np.linalg.norm`` over x/y is ``np.sqrt(x * x + y * y)`` (``np.hypot``
is not).  Sums over the vertex axis (area, perimeter, centroid moments) are
``np.sum`` over the last axis of the planes: it adds from the first vertex on
below n = 8, and in numpy's unrolled pairwise order from n = 8 on.

Star-shapedness is reported, not enforced, and :func:`quality_report` is
its only interface: the star ratio of every cell, NaN where the kernel is
empty.  The radius of the largest disk in a cell's kernel is the clearance of
the kernel's Chebyshev center, a linear program in (x, y, r) whose optimum
has three active edge constraints (Boyd & Vandenberghe, *Convex
Optimization*, 2004, section 8.5.1).  It is found by vertex enumeration: per
vertex-count group, the 3x3 systems of all C(n, 3) edge triples are solved in
one batch and every candidate center is scored by its clearance from all
edge lines (:func:`_chebyshev_radius`).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import (
    EmptyGamma0,
    MeshError,
    NonConforming,
    NonSimplePolygon,
    UnmarkedBoundaryEdge,
    ZeroLengthEdge,
)

GAMMA0 = "gamma0"
GAMMA1 = "gamma1"

# duplicates-vs-small-edges cutoff: edges shorter than this fraction of the
# cell diameter are treated as input errors, anything longer is legitimate
ZERO_EDGE_REL_TOL = 1e-14
# a cell with |K| <= VANISHING_AREA_REL_TOL * h_K^2 is degenerate, for
# validation and assembly alike
VANISHING_AREA_REL_TOL = 1e-14
# a kernel whose largest inscribed disk has radius <= this times h_K has
# empty interior
EMPTY_KERNEL_REL_TOL = 1e-13
# edge triples whose normals span a triangle of doubled area at most this
# are singular (the normals are unit vectors, so the test is scale-free)
_SINGULAR_TRIPLE_TOL = 1e-13
# (cells x edge triples x edges) entries per chunk of the kernel computation
_KERNEL_CHUNK = 1 << 16
# a point within this fraction of |ab| of the line through a segment ab, and
# at most that far beyond its ends, is near it (:func:`_near_segment`)
_ON_SEGMENT_REL_TOL = 1e-9


@dataclass
class PolygonalMesh:
    """Validated conforming polygonal mesh with marked boundary."""

    vertices: np.ndarray                     # (n, 2)
    cell_ptr: np.ndarray                     # (C + 1,) cycle offsets in cell_vertices
    cell_vertices: np.ndarray                # CCW cycles, one after another
    boundary_edges: list[tuple[int, int, str]]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def cells(self) -> list[list[int]]:
        """The CCW cycles as lists, derived from the CSR arrays."""
        flat, ptr = self.cell_vertices.tolist(), self.cell_ptr.tolist()
        return [flat[a:b] for a, b in zip(ptr[:-1], ptr[1:])]

    def gamma0_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, m in self.boundary_edges if m == GAMMA0]

    def gamma0_vertices(self) -> np.ndarray:
        return _sorted_unique(np.array(self.gamma0_edges(), dtype=int).ravel())

    def grouped_planes(self) -> list[tuple[np.ndarray, ...]]:
        """``(cell ids, cycles, x, y)`` per vertex count n, ascending: the
        ``(C, n)`` CCW vertex cycles and their coordinate planes."""
        vx, vy = self.vertices[:, 0], self.vertices[:, 1]
        groups = [(ids, self.cell_vertices[slots]) for ids, slots in _size_groups(self.cell_ptr)]
        return [(ids, cycles, vx[cycles], vy[cycles]) for ids, cycles in groups]

    def max_diameter(self) -> float:
        return max(float(_diameter(x, y).max()) for *_, x, y in self.grouped_planes())


@dataclass
class MeshQualityReport:
    """Per-cell star-shapedness and smallest-edge diagnostics."""

    star_ratio: np.ndarray        # rho(K)/h_K, NaN where the kernel is empty
    min_edge_ratio: np.ndarray    # min_e |e| / h_K
    empty_kernel_cells: list[int]
    min_star_ratio: float
    global_min_edge_ratio: float


# ---------------------------------------------------------------------------
# geometry kernels and batched validation

def _diameter(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest vertex distance of ``(..., n)`` cycles given as coordinate
    planes: a maximum over the vertex pairs, one pair of vertex columns at a
    time so temporaries stay the size of one column."""
    cols = [(x[..., i], y[..., i]) for i in range(x.shape[-1])]
    sq = 0.0
    for (xi, yi), (xj, yj) in combinations(cols, 2):
        dx, dy = xj - xi, yj - yi
        sq = np.maximum(sq, dx * dx + dy * dy)
    return np.sqrt(sq)


def _edge_arrays(x: np.ndarray, y: np.ndarray):
    """Tangent planes, lengths and shoelace cross terms of the edges of
    ``(..., n)`` cycles, and the coordinate planes ``u, v`` relative to each
    cycle's first vertex; edge k runs from vertex k to vertex k + 1.

    This is the one shoelace rule of the package: the cross term of edge k is
    u_k v_{k+1} - u_{k+1} v_k = u_k ty_k - tx_k v_k on the relative planes, so
    area and centroid lose no digits when the mesh lies far from the origin.
    On absolute coordinates, shifting t1 N=8 by (358, 365) moved its
    eigenvalues by 1.7e-10 relative."""
    tx, ty = np.roll(x, -1, axis=-1) - x, np.roll(y, -1, axis=-1) - y
    u, v = x - x[..., :1], y - y[..., :1]
    return tx, ty, np.sqrt(tx * tx + ty * ty), u, v, u * ty - tx * v


def _area_centroid(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the area centroids of CCW ``(..., n)`` cycles given as
    coordinate planes: shoelace moments on the planes relative to each
    cycle's first vertex (:func:`_edge_arrays`), which is added back last."""
    u, v, cross = _edge_arrays(x, y)[3:]
    six_area = 6.0 * (0.5 * np.sum(cross, axis=-1))
    return tuple(c[..., 0] + np.sum((r + np.roll(r, -1, axis=-1)) * cross, axis=-1) / six_area
                 for c, r in ((x, u), (y, v)))


def _turn_sign(a, b):
    """Elementwise sign of the cross product a - b of two edge vectors, given
    its two products; 0 (no turn) where it is at most ``ZERO_EDGE_REL_TOL``
    times |a| + |b|, a sine below the zero-edge floor.  Rounding moves a - b
    by a few 1e-16 of |a| + |b| whatever the coordinates, so a nonzero sign
    is exact for the stored vertices: rounding cannot bend a rotated chain
    of collinear vertices into a crossing, or a rotated spike out of line."""
    v, eps = a - b, ZERO_EDGE_REL_TOL * (np.abs(a) + np.abs(b))
    return (v > eps).astype(int) - (v < -eps)


def _orient(p, q, r):
    """Elementwise sign of the turn p->q->r of points given as ``(x, y)``
    pairs of arrays (:func:`_turn_sign`)."""
    return _turn_sign((q[0] - p[0]) * (r[1] - p[1]), (q[1] - p[1]) * (r[0] - p[0]))


def raise_first_fault(faults) -> None:
    """Raise for the lowest flagged cell; within that cell the earliest fault wins.

    ``faults`` lists ``(mask over cells, cell -> exception)`` in priority order.
    """
    masks = np.array([np.ravel(mask) for mask, _ in faults], dtype=bool)
    flagged = np.flatnonzero(masks.any(axis=0))
    if flagged.size:
        cell = int(flagged[0])
        raise faults[int(np.argmax(masks[:, cell]))][1](cell)


def _is_index_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _is_index(v) -> bool:
    return _is_index_type(type(v))


def _is_real_type(t: type) -> bool:
    return _is_index_type(t) or issubclass(t, (float, np.floating))


def _is_point(v) -> bool:
    """Whether ``v`` is two real numbers, as :func:`build_mesh` reads a vertex."""
    try:
        return all(map(_is_real_type, map(type, v))) and np.asarray(v, dtype=float).shape == (2,)
    except (TypeError, ValueError, OverflowError):
        return False


def _size_groups(cell_ptr) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(cell ids, (C, n) positions of their cycles in the flat array)`` per
    vertex count n, ascending."""
    sizes = np.diff(cell_ptr)
    groups = []
    for n in _sorted_unique(sizes):
        ids = np.flatnonzero(sizes == n)
        groups.append((ids, cell_ptr[ids, None] + np.arange(n)))
    return groups


def _check_group(verts: np.ndarray, cycles: np.ndarray):
    """Orient a group of same-size cycles counter-clockwise and flag their
    geometric faults.

    Returns the CCW cycles, the masks ``(vanishing area, zero-length edge,
    fold-back spike, crossing)`` over the group, the local vertex of the first
    spike and the first crossing edge pair ``(i, j)`` in loop order.
    """
    vx, vy = verts[:, 0], verts[:, 1]
    x, y = vx[cycles], vy[cycles]
    tx, ty, lengths, u, v, cross = _edge_arrays(x, y)
    signed = 0.5 * np.sum(cross, axis=-1)
    del u, v, cross   # (C, n) planes the checks below do not read
    flip = signed < 0.0
    if flip.any():   # the edge arrays of the CCW copy
        cycles = np.where(flip[:, None], cycles[:, ::-1], cycles)
        x, y = vx[cycles], vy[cycles]
        tx, ty, lengths = _edge_arrays(x, y)[:3]
    h_k = _diameter(x, y)
    vanishing = np.abs(signed) <= VANISHING_AREA_REL_TOL * h_k ** 2
    zero_edge = np.any(lengths < (ZERO_EDGE_REL_TOL * h_k)[:, None], axis=1)

    n = cycles.shape[1]
    pts = [(x[:, m], y[:, m]) for m in range(n)]   # vertex columns
    # spikes: consecutive edges folding back onto each other at vertex k
    ux, uy = np.roll(tx, 1, axis=1), np.roll(ty, 1, axis=1)
    folds = (_turn_sign(ux * ty, uy * tx) == 0) & (ux * tx + uy * ty < 0.0)

    # crossings between non-adjacent edges, pair by pair over the whole group
    coord_eps = ZERO_EDGE_REL_TOL * h_k   # on-segment slack: the zero-edge floor
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n) if (j + 1) % n != i]
    first_pair = np.full(len(cycles), -1)
    for k, (i, j) in enumerate(pairs):
        p1, p2, p3, p4 = (pts[m % n] for m in (i, i + 1, j, j + 1))
        turns = ((p1, p2, p3), (p1, p2, p4), (p3, p4, p1), (p3, p4, p2))
        o = [_orient(a, b, r) for a, b, r in turns]
        hit = (o[0] != o[1]) & (o[2] != o[3]) & (o[0] != 0) & (o[2] != 0)
        for o_r, (a, b, r) in zip(o, turns):   # r collinear with and on the segment ab
            on = o_r == 0
            if on.any():
                for u, v, w in zip(a, b, r):   # x, then y
                    lo, hi = np.minimum(u, v) - coord_eps, np.maximum(u, v) + coord_eps
                    on &= (lo <= w) & (w <= hi)
            hit |= on
        first_pair[hit & (first_pair < 0)] = k
    masks = (vanishing, zero_edge, folds.any(axis=1), first_pair >= 0)
    # a cell without a crossing (first_pair -1) gets the (-1, -1) sentinel
    crossing = np.array(pairs + [(-1, -1)], dtype=int)[first_pair]
    return cycles, masks, np.argmax(folds, axis=1), crossing


def build_mesh(vertices, cells, boundary_spec) -> PolygonalMesh:
    """Validate raw mesh data and return a :class:`PolygonalMesh`.

    ``boundary_spec`` is a list or tuple of the boundary edges, each a list
    or tuple of exactly three fields ``(i, j, marker)`` with marker
    ``"gamma0"`` or ``"gamma1"``; its shape is checked first.  Cells with
    negative signed area are reversed so every stored cycle is
    counter-clockwise.

    The vertices and the cells are sequences.  The coordinates are real
    numbers, never ``bool`` or ``str``: their types are checked once per
    distinct type (not at all in a numeric array), and the vertices are
    converted to a float array in one call; only when either fails are they
    read one by one, to name the first that is not two real numbers.  The
    raw cells get the one check that needs Python objects: each is a
    sequence of integer vertex indices.  That check runs once per
    distinct cell type and once per distinct entry type, and cell by cell
    only when one of those fails.  The cells are then packed into CSR
    arrays, a cell that fails the check as an empty cycle, and
    :func:`_validate_csr` runs every other check on the arrays and raises the
    type faults with its own.  Raises the mesh error matching the first
    violated invariant: the first faulty cell in cell order, and within it
    the first failed check.
    """
    if not isinstance(boundary_spec, (list, tuple)):
        raise MeshError("boundary must be a list of [i, j, marker] entries")
    for k, entry in enumerate(boundary_spec):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise MeshError(f"boundary entry {k}: not [i, j, marker]")
    cell_types = (Sequence, np.ndarray)
    if not (isinstance(vertices, cell_types) and isinstance(cells, cell_types)):
        raise MeshError("vertices and cells must be sequences")
    try:
        real = (isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iuf"
                or all(map(_is_real_type, set(map(type, chain.from_iterable(vertices))))))
        verts = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError, OverflowError):
        real = False
    if not real:
        bad = next((k for k, v in enumerate(vertices) if not _is_point(v)), None)
        raise MeshError("vertices must be a non-empty (n, 2) array" if bad is None
                        else f"vertex {bad}: not two real numbers")
    # entries are read only once every cell type has passed: a cell that is
    # not a sequence need not be iterable
    if (all(issubclass(t, cell_types) for t in set(map(type, cells)))
            and all(map(_is_index_type, set(map(type, chain.from_iterable(cells)))))):
        untyped, cycles = np.zeros(len(cells), dtype=bool), cells
    else:   # name the first faulty cell
        untyped = np.array([not isinstance(cyc, cell_types)
                            or not all(map(_is_index, cyc)) for cyc in cells], dtype=bool)
        cycles = [() if bad else cyc for cyc, bad in zip(cells, untyped.tolist())]
    ptr = np.concatenate(([0], np.cumsum([len(cyc) for cyc in cycles], dtype=np.intp)))
    try:
        flat = np.fromiter(chain.from_iterable(cycles), dtype=np.intp, count=ptr[-1])
    except OverflowError:   # an index beyond intp is out of range; -1 is too
        flat = np.array(list(chain.from_iterable(cycles)), dtype=object).clip(
            -1, 2**62).astype(np.intp)
    return _validate_csr(verts, ptr, flat, boundary_spec, [
        (untyped, lambda c: MeshError(f"cell {c}: not a sequence of integer vertex indices"))])


def _validate_csr(verts: np.ndarray, cell_ptr, cell_vertices, boundary_spec,
                  faults=(), table=None) -> PolygonalMesh:
    """Validate a mesh given as a float ``(n, 2)`` vertex array and CSR cells.

    Each vertex-count group is checked with array masks: fewer than 3
    vertices, an index out of range, a repeated vertex (equal neighbours in
    the sorted rows), then the geometric faults of :func:`_check_group` on the
    rows that pass.  ``faults`` holds the caller's ``(mask, cell ->
    exception)`` pairs, which rank before these within a cell; one
    :func:`raise_first_fault` raises for all of them.  The edge table then
    gives conformity, the boundary markers and connectivity; ``table`` is
    ``(edges, counts)`` of :func:`edge_table` when the caller has built it
    already (reversing a cycle leaves the undirected edges as they are).  The
    returned mesh holds a counter-clockwise copy of the cycles.
    """
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) == 0:
        raise MeshError("vertices must be a non-empty (n, 2) array")
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    nc = len(cell_ptr) - 1
    if nc == 0:
        raise MeshError("cell list is empty")

    flat = np.array(cell_vertices, dtype=np.intp)
    # out of range, repeated vertex, then the four masks of _check_group
    flags = np.zeros((6, nc), dtype=bool)
    spike_at = np.zeros(nc, dtype=int)
    crossing = np.zeros((nc, 2), dtype=int)
    for ids, slots in _size_groups(cell_ptr):
        if slots.shape[1] < 3:
            continue
        rows = np.sort(flat[slots], axis=1)
        flags[0, ids] = (rows[:, 0] < 0) | (rows[:, -1] >= len(verts))
        flags[1, ids] = np.any(rows[:, 1:] == rows[:, :-1], axis=1)
        ok = ~flags[:2, ids].any(axis=0)
        ids, slots = ids[ok], slots[ok]
        flat[slots], flags[2:, ids], spike_at[ids], crossing[ids] = _check_group(
            verts, flat[slots])

    def shortest(c):   # the faulty cell's shortest edge, as _check_group sees it
        x, y = verts[flat[cell_ptr[c]:cell_ptr[c + 1]]].T
        return f"shortest edge {_edge_arrays(x, y)[2].min() / _diameter(x, y):.1e} h_K"

    raise_first_fault(list(faults) + [
        (np.diff(cell_ptr) < 3, lambda c: NonSimplePolygon(
            f"cell {c}: fewer than 3 vertices")),
        (flags[0], lambda c: MeshError(f"cell {c}: vertex index out of range")),
        (flags[1], lambda c: NonSimplePolygon(f"cell {c}: repeated vertex in cycle")),
        (flags[2], lambda c: NonSimplePolygon(f"cell {c}: vanishing area")),
        (flags[3], lambda c: ZeroLengthEdge(
            f"cell {c}: edge shorter than {ZERO_EDGE_REL_TOL} * h_K")),
        (flags[4], lambda c: NonSimplePolygon(
            f"cell {c}: edges fold back at local vertex {spike_at[c]}; "
            + shortest(c))),
        (flags[5], lambda c: NonSimplePolygon(
            "cell {}: edges {} and {} intersect; ".format(c, *crossing[c])
            + shortest(c))),
    ])

    edges, counts = table if table is not None else edge_table(cell_ptr, flat)[:2]
    marked = _check_conforming_and_boundary(verts, edges, counts, boundary_spec)
    if not any(m == GAMMA0 for _, _, m in marked):
        raise EmptyGamma0("no boundary edge is marked gamma0")
    _check_connected(len(verts), edges, marked)
    return PolygonalMesh(verts, cell_ptr, flat, marked)


def cycle_edges(cell_ptr, cell_vertices) -> np.ndarray:
    """``(E, 2)`` directed vertex pairs of every cell edge in cell order; edge k
    of a cell runs from its vertex k to its vertex k + 1."""
    succ = np.arange(1, len(cell_vertices) + 1)
    succ[cell_ptr[1:] - 1] = cell_ptr[:-1]
    return np.column_stack((cell_vertices, cell_vertices[succ]))


def edge_table(cell_ptr, cell_vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted unique undirected edges ``(E, 2)`` of the CSR cell cycles, low
    vertex first, the number of cells each edge belongs to, and the row of
    that table for each entry of :func:`cycle_edges`."""
    a, b = cycle_edges(cell_ptr, cell_vertices).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    base = int(hi.max()) + 1
    keys, row, counts = np.unique(lo * base + hi, return_inverse=True, return_counts=True)
    return np.column_stack(np.divmod(keys, base)), counts, row


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, as a sort and a mask of the entries that
    differ from their left neighbour.  On the 250-1400 entry arrays of the
    hanging-node checks of t2, t5 and t6 that takes 11 us per call against
    np.unique's 49 us, and on the 4096 cell sizes of t2 N=32 10 us against
    108 us (numpy 2.4, 2-vCPU host)."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _bucket_join(points, lo, hi):
    """``(box, point)`` index pairs of each box ``[lo, hi]`` and every one of
    the points in a grid bucket the box meets: a superset of the points inside
    each box.  ``points`` (P of them), ``lo`` and ``hi`` (B box corners) are
    ``(x, y)`` pairs of coordinate planes.

    The buckets are square and wider than every box, so a box meets at most
    2 x 2 of them.  The points are sorted by bucket key once, and two binary
    searches per box and bucket give the points of that bucket.  The pairs
    come box by box.
    """
    origin = [min(p.min(), a.min()) for p, a in zip(points, lo)]
    span = max(max(p.max(), b.max()) - o for p, b, o in zip(points, hi, origin))
    widest = max(np.max(b - a) for a, b in zip(lo, hi))
    # at most 2^24 buckets a side keeps the keys small and the bucket
    # coordinates exact to far better than the 1e-6 margin over the widest box
    width = max(float(widest) * (1.0 + 1e-6), float(span) * 2.0**-24)
    (px, py), (x0, y0), (x1, y1) = ([((c - o) // width).astype(np.int64)
                                     for c, o in zip(xy, origin)] for xy in (points, lo, hi))
    m = int(max(py.max(), y1.max())) + 1
    key = px * m + py
    order = np.argsort(key, kind="stable")
    key = key[order]
    dx, dy = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])   # the 2 x 2 buckets
    box, d = np.nonzero((x0[:, None] + dx <= x1[:, None]) & (y0[:, None] + dy <= y1[:, None]))
    k = (x0[box] + dx[d]) * m + y0[box] + dy[d]
    start = np.searchsorted(key, k, "left")
    count = np.searchsorted(key, k, "right") - start
    # positions start[b], ..., start[b] + count[b] - 1 of each box bucket b in turn
    return np.repeat(box, count), order[np.arange(count.sum())
                                        + np.repeat(start + count - np.cumsum(count), count)]


def _near_segment(a, b, points):
    """``(segment, point, t)`` for every point p near a segment ab, sorted by
    segment, then point: p = a + t (b - a) + s n with unit normal n,
    ``|s| < tol |ab|`` and ``|t - 1/2| <= 1/2 + tol``, tol =
    ``_ON_SEGMENT_REL_TOL`` = 1e-9.  ``a``, ``b`` (S segments) and
    ``points`` are ``(x, y)`` pairs of coordinate planes.

    This is the one on-segment rule of the package; each caller keeps its own
    range of t.  Such a p lies in the bounding box of ab padded by 2 tol |ab|
    (s and the overhang of t move a coordinate by less than tol (|dx| +
    |dy|)).  Segments longer than the mean are cut into pieces no longer
    than the mean, so no bucket of :func:`_bucket_join` is wider than about
    that: one long edge next to many short ones does not put them all in one
    bucket.  A point that the boxes of two pieces both meet counts once.
    """
    (ax, ay), (bx, by) = a, b
    if not (len(ax) and len(points[0])):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    dx, dy = bx - ax, by - ay
    length = np.hypot(dx, dy)
    cuts = np.ceil(length / length.mean()).astype(np.intp)
    seg = np.repeat(np.arange(len(ax)), cuts)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    pad = 2.0 * _ON_SEGMENT_REL_TOL * length[seg] + 1e-12
    pieces = [(c[seg] + (k / cuts[seg]) * d[seg], c[seg] + ((k + 1) / cuts[seg]) * d[seg])
              for c, d in ((ax, dx), (ay, dy))]   # x, then y of the piece ends
    box, found = _bucket_join(points, [np.minimum(*e) - pad for e in pieces],
                              [np.maximum(*e) + pad for e in pieces])
    seg, found = np.divmod(_sorted_unique(seg[box] * len(points[0]) + found), len(points[0]))
    px, py, dx, dy = points[0][found] - ax[seg], points[1][found] - ay[seg], dx[seg], dy[seg]
    l2 = dx * dx + dy * dy
    t = (px * dx + py * dy) / l2
    near = ((np.abs(px * dy - py * dx) / l2 < _ON_SEGMENT_REL_TOL)
            & (np.abs(t - 0.5) <= 0.5 + _ON_SEGMENT_REL_TOL))
    return seg[near], found[near], t[near]


def _hanging_nodes(verts, ia, ib):
    """``(edge, vertex, t)`` for every endpoint of the edges ``ia -> ib`` that
    lies strictly inside one of them, sorted by edge, then vertex: near it by
    :func:`_near_segment`, with t in (``ZERO_EDGE_REL_TOL``, 1 -
    ``ZERO_EDGE_REL_TOL``).  The range ends at the zero-edge floor taken
    relative to the edge: a node that cuts off a piece longer than
    ``ZERO_EDGE_REL_TOL`` of it is inside, however close to an end."""
    ends = _sorted_unique(np.concatenate((ia, ib)))
    edge, k, t = _near_segment(verts[ia].T, verts[ib].T, verts[ends].T)
    inside = (t > ZERO_EDGE_REL_TOL) & (t < 1.0 - ZERO_EDGE_REL_TOL)
    return edge[inside], ends[k[inside]], t[inside]


def _check_conforming_and_boundary(verts, edges, counts, boundary_spec):
    """Check the edge counts and the hanging nodes against the declared
    boundary; return it marked.

    An endpoint of a once-edge (an edge of one cell) strictly inside another
    once-edge (:func:`_hanging_nodes`) is a hanging node missing from the
    cell across, or a boundary that touches itself: non-conforming, whether
    the edges are marked or not.
    """
    if np.any(counts > 2):
        raise NonConforming(
            f"edge {tuple(edges[counts > 2][0].tolist())} shared by more than two cells")

    declared = {}
    for i, j, m in boundary_spec:
        if not (_is_index(i) and _is_index(j)):
            raise MeshError(f"boundary edge ({i!r}, {j!r}): vertex index is not an integer")
        key = tuple(sorted((int(i), int(j))))
        if key in declared:
            raise MeshError(f"boundary edge {key} declared twice")
        declared[key] = str(m)
        if m not in (GAMMA0, GAMMA1):
            raise MeshError(f"unknown boundary marker {m!r}")

    once_edges = edges[counts == 1]
    edge, vertex, _ = _hanging_nodes(verts, *once_edges.T)
    if edge.size:
        raise NonConforming(
            f"vertex {vertex[0]} lies inside edge {tuple(once_edges[edge[0]].tolist())}, "
            "so the edges overlap; hanging node present in only one incident cell")
    once = set(map(tuple, once_edges.tolist()))
    undeclared = once - set(declared)
    if undeclared:
        raise UnmarkedBoundaryEdge(
            f"boundary edge {sorted(undeclared)[0]} carries no marker")
    phantom = set(declared) - once
    if phantom:
        raise MeshError(
            f"declared boundary edge {sorted(phantom)[0]} is not a boundary "
            "edge of the cell complex")
    return [(int(i), int(j), str(m)) for i, j, m in boundary_spec]


def _check_connected(nv: int, edges: np.ndarray, marked) -> None:
    """Every vertex lies on a cell, and every connected piece touches gamma0:
    otherwise A + sigma B is singular."""
    orphans = np.flatnonzero(np.bincount(edges.ravel(), minlength=nv) == 0)
    if orphans.size:
        raise MeshError(f"vertex {orphans[0]} belongs to no cell")
    labels = _component_labels(nv, edges)
    wet = np.zeros(labels.max() + 1, dtype=bool)
    wet[labels[[i for i, _, m in marked if m == GAMMA0]]] = True
    dry = np.flatnonzero(~wet[labels])
    if dry.size:
        raise MeshError(f"vertex {dry[0]} lies in a part of the mesh with no gamma0 edge")


def _component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` vertices joined by the
    undirected ``(E, 2)`` edges; components are numbered in order of their
    lowest vertex, as scipy's ``connected_components`` numbers them.

    Hook and pointer jumping: every vertex points to a vertex no larger than
    itself.  Each round hooks the larger of the two roots across every edge
    onto the smaller one (a no-op within a tree), then jumps every pointer to
    its root.  Pointers only decrease, so a root is the lowest vertex of its
    tree, and a round that finds no edge between trees leaves the components.
    """
    root = np.arange(n)
    i, j = edges.T
    while True:
        a, b = root[i], root[j]
        if np.array_equal(a, b):
            break
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def _chebyshev_radius(x, y, nx, ny) -> np.ndarray:
    """Radius of the largest disk in the kernel of each of the CCW ``(C, n)``
    cycles given as coordinate planes, with the planes ``nx, ny`` of their
    outward unit edge normals; negative where the kernel is empty.

    The disk's center x maximises r subject to n_e . x + r <= n_e . v_e on
    every edge e, and three of these constraints are active at the optimum.
    Each edge triple gives a candidate center (singular triples are skipped),
    scored by its clearance from all n edge lines.  No candidate scores above
    the optimum and the optimal triple attains it, so the best score is the
    radius with no feasibility tolerance.  No chunk holds more than
    ``_KERNEL_CHUNK`` (cell, triple, edge) entries: cells go in chunks, and
    when one cell's C(n, 3) n entries exceed that, its triples do too, and
    the radius is the running maximum over them, which is exact.
    """
    n = x.shape[-1]
    triples = np.fromiter(chain.from_iterable(combinations(range(n), 3)), np.intp,
                          n * (n - 1) * (n - 2) // 2).reshape(-1, 3)   # 3 C(n, 3) entries
    normals = np.stack((nx, ny), axis=-1)                  # (C, n, 2)
    offsets = nx * x + ny * y                              # n_e . v_e
    radius = np.full(len(x), -np.inf)
    step = max(1, _KERNEL_CHUNK // (len(triples) * n))
    per = max(1, _KERNEL_CHUNK // (step * n))              # triples per chunk
    for lo in range(0, len(x), step):
        nrm, off = normals[lo:lo + step], offsets[lo:lo + step]
        for t in range(0, len(triples), per):
            tri = triples[t:t + per]
            rows = nrm[:, tri]                             # (c, T, 3, 2)
            d, e = rows[:, :, 1] - rows[:, :, 0], rows[:, :, 2] - rows[:, :, 0]
            singular = np.abs(d[..., 0] * e[..., 1] - d[..., 1] * e[..., 0]) \
                <= _SINGULAR_TRIPLE_TOL
            system = np.concatenate((rows, np.ones(rows.shape[:-1] + (1,))), axis=-1)
            system[singular] = np.eye(3)
            center = np.linalg.solve(system, off[:, tri, None])[..., :2, 0]
            clearance = np.min(off[:, None, :] - center @ nrm.transpose(0, 2, 1), axis=-1)
            clearance[singular] = -np.inf
            np.maximum(radius[lo:lo + step], clearance.max(axis=1),
                       out=radius[lo:lo + step])
    return radius


def quality_report(mesh: PolygonalMesh) -> MeshQualityReport:
    """Star-shapedness and smallest-edge ratios for every cell.

    The star ratio is the radius of the largest disk in the cell's kernel
    over h_K (:func:`_chebyshev_radius`); for a convex cell it is the
    inradius over the diameter.  Cells whose kernel is empty, or whose
    largest disk has radius at most ``EMPTY_KERNEL_REL_TOL * h_K``, get a NaN
    star ratio and are listed in ``empty_kernel_cells``.  That is not fatal:
    star-shapedness is reported, never enforced.
    """
    star, edge_ratio = np.empty(mesh.n_cells), np.empty(mesh.n_cells)
    for cells, _, x, y in mesh.grouped_planes():
        (tx, ty, lengths), diameter = _edge_arrays(x, y)[:3], _diameter(x, y)
        edge_ratio[cells] = lengths.min(axis=-1) / diameter
        rho = _chebyshev_radius(x, y, ty / lengths, -tx / lengths)
        star[cells] = np.where(rho > EMPTY_KERNEL_REL_TOL * diameter, rho / diameter, np.nan)
    finite = star[np.isfinite(star)]
    return MeshQualityReport(
        star_ratio=star,
        min_edge_ratio=edge_ratio,
        empty_kernel_cells=np.flatnonzero(np.isnan(star)).tolist(),
        min_star_ratio=float(np.min(finite)) if len(finite) else float("nan"),
        global_min_edge_ratio=float(np.min(edge_ratio)),
    )


# ---------------------------------------------------------------------------
# JSON mesh format

def mesh_to_dict(mesh: PolygonalMesh) -> dict:
    return {
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells,
        "boundary": [[int(i), int(j), m] for i, j, m in mesh.boundary_edges],
    }


def mesh_from_dict(data: dict) -> PolygonalMesh:
    """Build the mesh of a parsed JSON mesh file."""
    try:
        vertices, cells, boundary = data["vertices"], data["cells"], list(data["boundary"])
    except (KeyError, TypeError) as exc:
        raise MeshError(f"malformed mesh file: {exc}") from exc
    return build_mesh(vertices, cells, boundary)


def save_mesh_json(mesh: PolygonalMesh, path) -> None:
    text = json.dumps(mesh_to_dict(mesh))   # one-shot: the C encoder
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_mesh_json(path) -> PolygonalMesh:
    with open(path) as fh:
        return mesh_from_dict(json.load(fh))
