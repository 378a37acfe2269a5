"""Reference forms the tests hold the package to.

:func:`local_operators` keeps the projector form of the lowest-order local
stiffness, A_K = |K| G^T G + (I - P)^T S_K (I - P) (Mora, Rivera &
Rodriguez, M3AS 25, 2015), which :func:`steklovem.vem.assemble_global`
evaluates in closed form.  :func:`total_area` sums the shoelace areas of a
mesh's cells.  Both read their kernels from :mod:`steklovem.mesh`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from steklovem.mesh import PolygonalMesh, _diameter, _edge_arrays, raise_first_fault
from steklovem.vem import StabilizationSpec, _element_faults


@dataclass(frozen=True)
class LocalOperators:
    """Projector, stabilization and stiffness of one element, in the projector
    form A_K = |K| G^T G + (I - P)^T S_K (I - P)."""

    G: np.ndarray          # (2, n): dofs -> constant gradient of the projection
    mean_row: np.ndarray   # (n,):   dofs -> boundary mean value
    P: np.ndarray          # (n, n): dofs -> vertex values of the projection
    A_K: np.ndarray        # (n, n): local stiffness
    S_K: np.ndarray        # (n, n): stabilization matrix


def local_operators(coords, spec: StabilizationSpec = StabilizationSpec()) -> LocalOperators:
    """Projector, stabilization and stiffness in the projector form of the
    cell with the counter-clockwise ``(n, 2)`` vertex coordinates ``coords``;
    the reference the closed-form assembly of
    :func:`steklovem.vem.assemble_global` is tested against.  Edge e joins
    vertices e and e + 1.  The area, edge lengths, outward unit normals and
    diameter come from the kernels of :mod:`steklovem.mesh`, and the boundary
    centroid is ``mean_row @ coords``."""
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:, 0], coords[:, 1]
    tx, ty, lengths, *_, cross = _edge_arrays(x, y)
    area, diameter = 0.5 * np.sum(cross), _diameter(x, y)
    raise_first_fault(_element_faults(area, diameter, lengths.min()))
    n = len(coords)
    half, normals = 0.5 * lengths, np.column_stack((ty, -tx)) / lengths[:, None]
    flux = half[:, None] * normals
    G = (flux + np.roll(flux, 1, axis=0)).T / area
    mean_row = (half + np.roll(half, 1)) / np.sum(lengths)
    P = mean_row + (coords - mean_row @ coords) @ G
    D = np.roll(np.eye(n), 1, axis=1) - np.eye(n)       # row e: d_e
    S = D.T @ ((diameter ** spec.alpha / lengths)[:, None] * D)
    Q = np.eye(n) - P
    A_K = area * (G.T @ G) + Q.T @ S @ Q
    return LocalOperators(G=G, mean_row=mean_row, P=P, A_K=0.5 * (A_K + A_K.T), S_K=S)


def total_area(mesh: PolygonalMesh) -> float:
    """Sum of the cells' shoelace areas."""
    return float(sum((0.5 * np.sum(_edge_arrays(x, y)[-1], axis=-1)).sum()
                     for *_, x, y in mesh.grouped_planes()))
