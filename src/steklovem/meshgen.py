"""Deterministic generators for the benchmark domains and mesh families.

All generators follow the same pipeline: build structured patches, merge
duplicate vertices, make the composite conforming by inserting hanging
nodes into every incident cell as flat-angle vertices, then mark the
boundary and validate through :func:`steklovem.mesh.build_mesh`.

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
    build_mesh,
    cycle_edges,
    edge_table,
    element_geometry,
)

_MERGE_DECIMALS = 10


class _MeshBuilder:
    """Accumulates patches of (points, cells) with vertex deduplication."""

    def __init__(self):
        self.points: list[tuple[float, float]] = []
        self.cells: list[list[int]] = []
        self._index: dict[tuple[float, float], int] = {}

    def add_point(self, x: float, y: float) -> int:
        key = (round(x, _MERGE_DECIMALS), round(y, _MERGE_DECIMALS))
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.points)
            self._index[key] = idx
            self.points.append((float(x), float(y)))
        return idx

    def add_cell(self, point_coords) -> None:
        self.cells.append([self.add_point(x, y) for x, y in point_coords])

    def add_quad_grid(self, x0, x1, y0, y1, nx, ny) -> None:
        xs = np.linspace(x0, x1, nx + 1)
        ys = np.linspace(y0, y1, ny + 1)
        for j in range(ny):
            for i in range(nx):
                self.add_cell([
                    (xs[i], ys[j]), (xs[i + 1], ys[j]),
                    (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]),
                ])

    def add_perturbed_triangle_grid(self, x0, x1, y0, y1, nx, ny,
                                    split_fraction=None) -> None:
        """Criss-cross triangulated quad grid with one extra point per edge.

        Each square is split into four triangles by both diagonals and
        every edge gains an additional point, turning each triangle into
        a hexagon.  With ``split_fraction=None`` the point sits at arc
        distance h_e^2 from the lexicographically smaller endpoint; a
        numeric fraction (e.g. 0.5 for midpoints) places it at that
        fraction instead.
        """
        xs = np.linspace(x0, x1, nx + 1)
        ys = np.linspace(y0, y1, ny + 1)

        def edge_point(a, b):
            u, v = (a, b) if a <= b else (b, a)   # lexicographic on (x, y)
            h = math.hypot(v[0] - u[0], v[1] - u[1])
            if split_fraction is not None:
                t = split_fraction
            else:
                # arc distance h_e^2 from u, i.e. fraction h_e of the edge;
                # fall back to the midpoint when h_e >= 1 (degenerate at N=1)
                t = h if h < 1.0 else 0.5
            return (u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1]))

        def hexagon(a, b, c):
            return [a, edge_point(a, b), b, edge_point(b, c), c,
                    edge_point(c, a)]

        for j in range(ny):
            for i in range(nx):
                a = (xs[i], ys[j])
                b = (xs[i + 1], ys[j])
                c = (xs[i + 1], ys[j + 1])
                d = (xs[i], ys[j + 1])
                o = (0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
                self.add_cell(hexagon(a, b, o))
                self.add_cell(hexagon(b, c, o))
                self.add_cell(hexagon(c, d, o))
                self.add_cell(hexagon(d, a, o))

    def finish(self, gamma0_rule: str) -> PolygonalMesh:
        verts = np.asarray(self.points, dtype=float)
        cells = _conformalize(verts, self.cells)
        boundary = _mark_boundary(verts, cells, gamma0_rule)
        return build_mesh(verts, cells, boundary)


def _conformalize(verts: np.ndarray, cells: list[list[int]]) -> list[list[int]]:
    """Insert vertices lying in the interior of a cell edge into that cell.

    Makes glued patches conforming: a hanging node becomes a flat-angle
    vertex of every cell whose edge it sits on.  Uses a uniform grid hash
    over the vertices so the sweep stays near-linear.
    """
    ends = verts[cycle_edges(cells)]
    edge_lens = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
    # 90th percentile, not median: families with h^2 edges would otherwise
    # shrink the buckets and make the sweep quadratic
    bucket = max(float(np.percentile(edge_lens, 90)), 1e-12)

    grid: dict[tuple[int, int], list[int]] = {}
    for idx, (x, y) in enumerate(verts):
        grid.setdefault((int(math.floor(x / bucket)),
                         int(math.floor(y / bucket))), []).append(idx)

    def candidates(a, b):
        ix0 = int(math.floor((min(a[0], b[0]) - 1e-12) / bucket))
        ix1 = int(math.floor((max(a[0], b[0]) + 1e-12) / bucket))
        iy0 = int(math.floor((min(a[1], b[1]) - 1e-12) / bucket))
        iy1 = int(math.floor((max(a[1], b[1]) + 1e-12) / bucket))
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                yield from grid.get((ix, iy), ())

    new_cells = []
    for cyc in cells:
        out: list[int] = []
        n = len(cyc)
        for k in range(n):
            ia, ib = cyc[k], cyc[(k + 1) % n]
            a, b = verts[ia], verts[ib]
            ab = b - a
            L2 = float(ab @ ab)
            hits = []
            for iv in candidates(a, b):
                if iv == ia or iv == ib:
                    continue
                ap = verts[iv] - a
                t = float(ap @ ab) / L2
                if t <= 1e-12 or t >= 1.0 - 1e-12:
                    continue
                off = abs(ap[0] * ab[1] - ap[1] * ab[0]) / L2
                if off < 1e-9:
                    hits.append((t, iv))
            out.append(ia)
            for _, iv in sorted(hits):
                out.append(iv)
        new_cells.append(out)
    return new_cells


def _mark_boundary(verts, cells, gamma0_rule: str,
                   top_y: float = 1.0) -> list[tuple[int, int, str]]:
    """Assign markers to the boundary edges of the cell complex.

    ``gamma0_rule``: ``"all"`` marks everything gamma0; ``"top"`` marks
    the edges with both endpoints on y = top_y and the rest gamma1.
    """
    edges, counts = edge_table(cells)
    once = edges[counts == 1]
    if gamma0_rule == "all":
        on_top = np.ones(len(once), dtype=bool)
    elif gamma0_rule == "top":
        on_top = np.all(np.abs(verts[once, 1] - top_y) < 1e-12, axis=1)
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
    mb = _MeshBuilder()
    mb.add_quad_grid(0.0, 1.0, 0.6, 1.0, N, max(1, math.ceil(0.4 * N)))
    mb.add_quad_grid(0.0, 1.0, 0.0, 0.6, N + 1, math.ceil(0.6 * N))
    return mb.finish("top")


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
    mb = _MeshBuilder()
    mb.add_perturbed_triangle_grid(0.0, 1.0, 0.0, 1.0, N, N)
    return mb.finish("top")


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

    mb = _MeshBuilder()

    def add_half(x_in, x_bar, x_stem, n):
        # bar: (x_bar, x_in) x (-0.5, 0); stem: (x_stem, x_in) x (0, 1)
        nx_bar = math.ceil(0.5 * n)
        ny_bar = math.ceil(0.5 * n)
        nx_stem = math.ceil(0.25 * n)
        lo_bar, hi_bar = sorted((x_in, x_bar))
        lo_st, hi_st = sorted((x_in, x_stem))
        if x_in > x_bar or variant == 3:
            mb.add_quad_grid(lo_bar, hi_bar, -0.5, 0.0, nx_bar, ny_bar)
            mb.add_quad_grid(lo_st, hi_st, 0.0, 1.0, nx_stem, n)
        else:
            frac = 0.5 if variant == 4 else None
            mb.add_perturbed_triangle_grid(lo_bar, hi_bar, -0.5, 0.0,
                                           nx_bar, ny_bar, split_fraction=frac)
            mb.add_perturbed_triangle_grid(lo_st, hi_st, 0.0, 1.0,
                                           nx_stem, n, split_fraction=frac)

    add_half(0.0, -0.5, -0.25, N)        # left half, step ~ 1/N
    add_half(0.0, 0.5, 0.25, N + 1)      # right half, step ~ 1/(N+1)
    return mb.finish("all")


# ---------------------------------------------------------------------------
# L-shaped domain

def gen_lshape_uniform(N: int) -> PolygonalMesh:
    """Uniform square grid on the L-shape (0,1)^2 minus [0.5,1) x [0.5,1).

    N is the number of elements along each unit edge and must be even so
    the re-entrant corner sits on the grid.  Gamma0 is the full boundary.
    """
    if N < 2 or N % 2 != 0:
        raise InvalidN("lshape_uniform requires even N >= 2")
    mb = _MeshBuilder()
    h = 1.0 / N
    for j in range(N):
        for i in range(N):
            cx, cy = (i + 0.5) * h, (j + 0.5) * h
            if cx > 0.5 and cy > 0.5:
                continue
            mb.add_cell([(i * h, j * h), ((i + 1) * h, j * h),
                         ((i + 1) * h, (j + 1) * h), (i * h, (j + 1) * h)])
    return mb.finish("all")


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
    """
    if level < 1:
        raise InvalidN("refinement level must be >= 1")
    w = _refinement_halfwidth(level, N)

    mb = _MeshBuilder()
    for x, y in mesh.vertices:
        mb.add_point(x, y)

    bary = np.empty((mesh.n_cells, 2))
    for cells, geom in mesh.grouped_geometry():
        bary[cells] = geom.centroid
    inside = np.all(np.abs(bary - 0.5) <= w + 1e-12, axis=1)
    for c in range(mesh.n_cells):
        if inside[c]:
            _split_cell(mb, element_geometry(mesh, c))
        else:
            mb.cells.append(list(mesh.cells[c]))

    verts = np.asarray(mb.points, dtype=float)
    cells = _conformalize(verts, mb.cells)
    boundary = _inherit_markers(mesh, verts, cells)
    return build_mesh(verts, cells, boundary)


def _split_cell(mb: _MeshBuilder, geom) -> None:
    """Fan a cell into quadrilaterals: barycenter to primary-edge midpoints."""
    coords = geom.coords
    n = len(coords)
    # corners = vertices where the boundary actually turns
    corner_pos = []
    for k in range(n):
        u = coords[k] - coords[k - 1]
        v = coords[(k + 1) % n] - coords[k]
        cross = u[0] * v[1] - u[1] * v[0]
        if abs(cross) > 1e-12 * geom.diameter ** 2:
            corner_pos.append(k)
    if len(corner_pos) != 4:
        warnings.warn(
            f"refined cell has {len(corner_pos)} corners, not a quad patch; "
            "fanning barycenter to all primary-edge midpoints")

    bary = mb.add_point(*geom.centroid)
    m = len(corner_pos)
    # chain of cycle positions from corner r to corner r+1, midpoint inserted
    chains = []
    for r in range(m):
        k0, k1 = corner_pos[r], corner_pos[(r + 1) % m]
        pos = [k0]
        k = k0
        while k != k1:
            k = (k + 1) % n
            pos.append(k)
        mid = 0.5 * (coords[k0] + coords[k1])
        ids = [mb.add_point(*coords[k]) for k in pos]
        params = [float(np.linalg.norm(coords[k] - coords[k0])) for k in pos]
        half = float(np.linalg.norm(mid - coords[k0]))
        mid_id = mb.add_point(*mid)
        if mid_id not in ids:
            slot = next(i for i, t in enumerate(params) if t > half)
            ids.insert(slot, mid_id)
        chains.append((ids, ids.index(mid_id)))
    for r in range(m):
        prev_ids, prev_mid = chains[r - 1]
        ids, mid_slot = chains[r]
        cell = prev_ids[prev_mid:-1] + ids[:mid_slot + 1] + [bary]
        mb.cells.append(cell)


def _inherit_markers(parent: PolygonalMesh, verts, cells) -> list[tuple[int, int, str]]:
    """Mark the boundary of a refined mesh from the parent's markers."""
    parent_edges = [(parent.vertices[i], parent.vertices[j], m)
                    for i, j, m in parent.boundary_edges]
    edges, counts = edge_table(cells)
    out = []
    for i, j in edges[counts == 1].tolist():
        mid = 0.5 * (verts[i] + verts[j])
        marker = None
        for a, b, m in parent_edges:
            ab = b - a
            L2 = float(ab @ ab)
            ap = mid - a
            t = float(ap @ ab) / L2
            off = abs(ap[0] * ab[1] - ap[1] * ab[0]) / math.sqrt(L2)
            if -1e-12 <= t <= 1.0 + 1e-12 and off < 1e-9:
                marker = m
                break
        if marker is None:
            raise RuntimeError(f"refined boundary edge ({i}, {j}) does not "
                               "lie on the parent boundary")
        out.append((i, j, marker))
    return out


# ---------------------------------------------------------------------------
# registry used by the study harness and the CLI

FAMILIES = {
    "t1": lambda N: gen_square_glued(N),
    "t2": lambda N: gen_square_perturbed_triangles(N),
    "t3": lambda N: gen_rotated_t(N, 3),
    "t4": lambda N: gen_rotated_t(N, 4),
    "t5": lambda N: gen_rotated_t(N, 5),
    "t6": lambda N: gen_lshape_uniform(N),
}
