"""Polygonal mesh representation, validation and per-element geometry.

A mesh is a list of vertices, a list of counter-clockwise vertex cycles
(one per cell) and a list of marked boundary edges.  Hanging nodes are
always stored explicitly in both incident cells, so a valid mesh is
conforming by construction: an edge shared by two cells is identical as a
vertex pair, and a vertex sitting on a neighbour's edge shows up in that
neighbour's cycle as a flat-angle vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import (
    EmptyGamma0,
    EmptyKernel,
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


@dataclass(frozen=True)
class ElementGeometry:
    """Geometric data of one polygonal cell, or of a batch (leading cell axis)."""

    vertex_ids: np.ndarray          # global vertex indices, CCW
    coords: np.ndarray              # (n, 2) vertex coordinates, CCW
    area: float
    diameter: float
    centroid: np.ndarray            # area centroid
    boundary_length: float
    boundary_centroid: np.ndarray   # edge-length weighted mean of vertices
    edge_lengths: np.ndarray        # (n,)
    edge_normals: np.ndarray        # (n, 2) outward unit normals
    edge_nodes: np.ndarray          # (n, 2) local endpoint indices, shared by a batch

    @property
    def n_vertices(self) -> int:
        return self.vertex_ids.shape[-1]


@dataclass
class PolygonalMesh:
    """Validated conforming polygonal mesh with marked boundary."""

    vertices: np.ndarray                     # (n, 2)
    cells: list[list[int]]                   # CCW cycles
    boundary_edges: list[tuple[int, int, str]]
    _geom_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def gamma0_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, m in self.boundary_edges if m == GAMMA0]

    def gamma0_vertices(self) -> np.ndarray:
        return np.unique(np.array(self.gamma0_edges(), dtype=int))

    def geometry(self, cell: int) -> ElementGeometry:
        geom = self._geom_cache.get(cell)
        if geom is None:
            geom = element_geometry(self, cell)
            self._geom_cache[cell] = geom
        return geom

    def grouped_geometry(self) -> list[tuple[np.ndarray, ElementGeometry]]:
        """``(cell ids, batched geometry)`` per vertex count, ascending."""
        sizes = np.fromiter(map(len, self.cells), dtype=int, count=self.n_cells)
        groups = [np.flatnonzero(sizes == n) for n in np.unique(sizes)]
        cycles = [np.array([self.cells[c] for c in ids]) for ids in groups]
        return [(ids, polygon_geometry(self.vertices, c)) for ids, c in zip(groups, cycles)]

    def max_diameter(self) -> float:
        return max(float(g.diameter.max()) for _, g in self.grouped_geometry())

    def total_area(self) -> float:
        return float(sum(g.area.sum() for _, g in self.grouped_geometry()))


@dataclass
class MeshQualityReport:
    """Per-cell star-shapedness and smallest-edge diagnostics."""

    star_ratio: np.ndarray        # rho(K)/h_K, NaN where the kernel is empty
    min_edge_ratio: np.ndarray    # min_e |e| / h_K
    empty_kernel_cells: list[int]
    flagged_cells: list[int]      # star ratio below the requested threshold
    min_star_ratio: float
    global_min_edge_ratio: float


# ---------------------------------------------------------------------------
# geometry helpers

def _signed_area(coords: np.ndarray) -> float:
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _diameter(coords: np.ndarray) -> np.ndarray:
    """Largest vertex distance of ``(..., n, 2)`` cycles: a maximum over the
    cyclic shifts k <= n/2 of the vertex axis (shift n - k pairs the same vertices)."""
    n = coords.shape[-2]
    shifted = coords[..., (np.arange(n) + np.arange(1, n // 2 + 1)[:, None]) % n, :]
    d = shifted - coords[..., None, :, :]
    return np.sqrt(np.max(np.sum(d * d, axis=-1), axis=(-2, -1)))


def _orient(p, q, r, eps):
    """Sign of the turn p->q->r with tolerance eps (area units)."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if v > eps:
        return 1
    if v < -eps:
        return -1
    return 0


def _on_segment(p, q, r, eps):
    """Whether collinear point r lies on the closed segment pq."""
    return (min(p[0], q[0]) - eps <= r[0] <= max(p[0], q[0]) + eps
            and min(p[1], q[1]) - eps <= r[1] <= max(p[1], q[1]) + eps)


def _segments_intersect(p1, p2, p3, p4, eps):
    o1 = _orient(p1, p2, p3, eps)
    o2 = _orient(p1, p2, p4, eps)
    o3 = _orient(p3, p4, p1, eps)
    o4 = _orient(p3, p4, p2, eps)
    if o1 != o2 and o3 != o4 and o1 != 0 and o3 != 0:
        return True
    coord_eps = np.sqrt(eps)
    if o1 == 0 and _on_segment(p1, p2, p3, coord_eps):
        return True
    if o2 == 0 and _on_segment(p1, p2, p4, coord_eps):
        return True
    if o3 == 0 and _on_segment(p3, p4, p1, coord_eps):
        return True
    if o4 == 0 and _on_segment(p3, p4, p2, coord_eps):
        return True
    return False


def _check_simple(coords: np.ndarray, cell: int) -> None:
    n = len(coords)
    diam = np.max(np.ptp(coords, axis=0))
    area_eps = (ZERO_EDGE_REL_TOL * max(diam, 1.0)) ** 2
    # spikes: consecutive edges folding back onto each other
    for k in range(n):
        a, b, c = coords[k - 1], coords[k], coords[(k + 1) % n]
        u, v = b - a, c - b
        if abs(u[0] * v[1] - u[1] * v[0]) <= area_eps and np.dot(u, v) < 0.0:
            raise NonSimplePolygon(f"cell {cell}: edges fold back at local vertex {k}")
    # crossings between non-adjacent edges
    for i in range(n):
        p1, p2 = coords[i], coords[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            p3, p4 = coords[j], coords[(j + 1) % n]
            if _segments_intersect(p1, p2, p3, p4, area_eps):
                raise NonSimplePolygon(
                    f"cell {cell}: edges {i} and {j} intersect")


def build_mesh(vertices, cells, boundary_spec) -> PolygonalMesh:
    """Validate raw mesh data and return a :class:`PolygonalMesh`.

    ``boundary_spec`` lists the boundary edges as ``(i, j, marker)`` with
    marker ``"gamma0"`` or ``"gamma1"``.  Cells with negative signed area
    are reversed so every stored cycle is counter-clockwise.

    Raises the mesh error matching the first violated invariant.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) == 0:
        raise MeshError("vertices must be a non-empty (n, 2) array")
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    if not cells:
        raise MeshError("cell list is empty")

    nv = len(verts)
    clean_cells: list[list[int]] = []
    for ci, cycle in enumerate(cells):
        cyc = [int(v) for v in cycle]
        if len(cyc) < 3:
            raise NonSimplePolygon(f"cell {ci}: fewer than 3 vertices")
        if any(v < 0 or v >= nv for v in cyc):
            raise MeshError(f"cell {ci}: vertex index out of range")
        if len(set(cyc)) != len(cyc):
            raise NonSimplePolygon(f"cell {ci}: repeated vertex in cycle")
        coords = verts[cyc]
        area = _signed_area(coords)
        if area < 0.0:
            cyc = cyc[::-1]
            coords = verts[cyc]
            area = -area
        h_k = _diameter(coords)
        if area <= (ZERO_EDGE_REL_TOL * h_k) ** 2:
            raise NonSimplePolygon(f"cell {ci}: vanishing area")
        lengths = np.linalg.norm(np.roll(coords, -1, axis=0) - coords, axis=1)
        if np.any(lengths < ZERO_EDGE_REL_TOL * h_k):
            raise ZeroLengthEdge(f"cell {ci}: edge shorter than {ZERO_EDGE_REL_TOL} * h_K")
        _check_simple(coords, ci)
        clean_cells.append(cyc)

    _check_conforming_and_boundary(verts, clean_cells, boundary_spec)

    marked = [(int(i), int(j), str(m)) for i, j, m in boundary_spec]
    if not any(m == GAMMA0 for _, _, m in marked):
        raise EmptyGamma0("no boundary edge is marked gamma0")
    return PolygonalMesh(verts, clean_cells, marked)


def _check_conforming_and_boundary(verts, cells, boundary_spec) -> None:
    count: dict[tuple[int, int], int] = {}
    for cyc in cells:
        n = len(cyc)
        for k in range(n):
            key = tuple(sorted((cyc[k], cyc[(k + 1) % n])))
            count[key] = count.get(key, 0) + 1
    over = [e for e, c in count.items() if c > 2]
    if over:
        raise NonConforming(f"edge {over[0]} shared by more than two cells")

    declared = {}
    for i, j, m in boundary_spec:
        key = tuple(sorted((int(i), int(j))))
        if key in declared:
            raise MeshError(f"boundary edge {key} declared twice")
        declared[key] = str(m)
        if m not in (GAMMA0, GAMMA1):
            raise MeshError(f"unknown boundary marker {m!r}")

    once = {e for e, c in count.items() if c == 1}
    undeclared = once - set(declared)
    if undeclared:
        # distinguish a genuinely unmarked boundary edge from a hanging
        # node missing on one side: the latter leaves collinear overlapping
        # once-edges behind
        for e in undeclared:
            for f in once:
                if f == e:
                    continue
                if _edges_overlap(verts, e, f):
                    raise NonConforming(
                        f"edges {e} and {f} overlap; hanging node present "
                        "in only one incident cell")
        raise UnmarkedBoundaryEdge(
            f"boundary edge {sorted(undeclared)[0]} carries no marker")
    phantom = set(declared) - once
    if phantom:
        raise MeshError(
            f"declared boundary edge {sorted(phantom)[0]} is not a boundary "
            "edge of the cell complex")


def _edges_overlap(verts, e, f) -> bool:
    """Whether two distinct undirected edges overlap on a 1D set."""
    a, b = verts[e[0]], verts[e[1]]
    c, d = verts[f[0]], verts[f[1]]
    scale = max(np.linalg.norm(b - a), np.linalg.norm(d - c), 1e-300)
    eps = 1e-12 * scale * scale
    if _orient(a, b, c, eps) != 0 or _orient(a, b, d, eps) != 0:
        return False
    t = b - a
    s = [float(np.dot(p - a, t)) for p in (c, d)]
    lo, hi = min(s), max(s)
    span = float(np.dot(t, t))
    return min(hi, span) - max(lo, 0.0) > 1e-12 * span


def polygon_geometry(vertices: np.ndarray, cycles: np.ndarray) -> ElementGeometry:
    """Geometry of CCW ``(..., n)`` vertex cycles: one cell, or a batch of
    same-size cells as one array computation.  The boundary centroid is the
    edge-trapezoid mean of the coordinates, exact for linear traces."""
    coords = vertices[cycles]
    n = cycles.shape[-1]
    edge_nodes = np.column_stack((np.arange(n), (np.arange(n) + 1) % n))
    nxt = coords[..., edge_nodes[:, 1], :]

    cross = coords[..., 0] * nxt[..., 1] - nxt[..., 0] * coords[..., 1]
    area = 0.5 * np.sum(cross, axis=-1)
    tangents = nxt - coords
    lengths = np.linalg.norm(tangents, axis=-1)
    normals = np.stack((tangents[..., 1], -tangents[..., 0]), axis=-1) / lengths[..., None]
    centroid = np.sum((coords + nxt) * cross[..., None], axis=-2) / (6.0 * area)[..., None]

    boundary_length = np.sum(lengths, axis=-1)
    weighted_midpoints = 0.5 * (coords + nxt) * lengths[..., None]
    boundary_centroid = np.sum(weighted_midpoints, axis=-2) / boundary_length[..., None]

    return ElementGeometry(
        vertex_ids=cycles,
        coords=coords,
        area=area,
        diameter=_diameter(coords),
        centroid=centroid,
        boundary_length=boundary_length,
        boundary_centroid=boundary_centroid,
        edge_lengths=lengths,
        edge_normals=normals,
        edge_nodes=edge_nodes,
    )


def element_geometry(mesh: PolygonalMesh, cell: int) -> ElementGeometry:
    return polygon_geometry(mesh.vertices, np.asarray(mesh.cells[cell], dtype=int))


def star_shaped_ratio(mesh: PolygonalMesh, cell: int) -> float:
    """Radius of the largest disk in the kernel of the cell, over h_K.

    The kernel of a polygon is the intersection of the inner half-planes
    of all edges; its Chebyshev center solves a small linear program
    (maximise the clearance r of a center from every edge line).  For a
    convex cell the kernel is the cell itself and the ratio is the
    inradius over the diameter.

    Raises :class:`EmptyKernel` when the cell is not star-shaped.
    """
    geom = mesh.geometry(cell)
    normals = geom.edge_normals
    offsets = np.sum(normals * geom.coords, axis=1)   # n . v on each edge line
    a_ub = np.column_stack((normals, np.ones(len(normals))))
    res = linprog(
        c=(0.0, 0.0, -1.0),
        A_ub=a_ub,
        b_ub=offsets,
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
    )
    if not res.success:
        raise EmptyKernel(f"cell {cell}: kernel of the polygon is empty")
    rho = float(res.x[2])
    if rho <= 1e-13 * geom.diameter:
        raise EmptyKernel(f"cell {cell}: kernel has empty interior")
    return rho / geom.diameter


def quality_report(mesh: PolygonalMesh, gamma_threshold: float = 0.0) -> MeshQualityReport:
    """Star-shapedness and smallest-edge ratios for every cell.

    Cells whose kernel is empty get a NaN star ratio and are listed in
    ``empty_kernel_cells``; cells with star ratio below ``gamma_threshold``
    are flagged.  Neither condition is fatal: star-shapedness is reported,
    never enforced.
    """
    nc = mesh.n_cells
    star = np.full(nc, np.nan)
    edge_ratio = np.empty(nc)
    empty = []
    flagged = []
    for c in range(nc):
        geom = mesh.geometry(c)
        edge_ratio[c] = float(np.min(geom.edge_lengths)) / geom.diameter
        try:
            star[c] = star_shaped_ratio(mesh, c)
        except EmptyKernel:
            empty.append(c)
            continue
        if star[c] < gamma_threshold:
            flagged.append(c)
    finite = star[np.isfinite(star)]
    return MeshQualityReport(
        star_ratio=star,
        min_edge_ratio=edge_ratio,
        empty_kernel_cells=empty,
        flagged_cells=flagged,
        min_star_ratio=float(np.min(finite)) if len(finite) else float("nan"),
        global_min_edge_ratio=float(np.min(edge_ratio)),
    )


# ---------------------------------------------------------------------------
# JSON mesh format

def mesh_to_dict(mesh: PolygonalMesh) -> dict:
    return {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [list(map(int, cyc)) for cyc in mesh.cells],
        "boundary": [[int(i), int(j), m] for i, j, m in mesh.boundary_edges],
    }


def mesh_from_dict(data: dict) -> PolygonalMesh:
    try:
        vertices = data["vertices"]
        cells = data["cells"]
        boundary = [(e[0], e[1], e[2]) for e in data["boundary"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise MeshError(f"malformed mesh file: {exc}") from exc
    return build_mesh(vertices, cells, boundary)


def save_mesh_json(mesh: PolygonalMesh, path) -> None:
    with open(path, "w") as fh:
        json.dump(mesh_to_dict(mesh), fh)
        fh.write("\n")


def load_mesh_json(path) -> PolygonalMesh:
    with open(path) as fh:
        return mesh_from_dict(json.load(fh))
