"""Test meshes shared by the test modules.

:func:`uniform_square_mesh` is the criterion-8 mesh of
``tests/test_acceptance.py``: a uniform grid of the unit square, optionally
with a flat-angle vertex close to a corner in every boundary cell.
:func:`permuted_mesh` is a family mesh renumbered, rotated and reordered the
way the benchmark's sweep-t5 workload does it.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

from steklovem.mesh import GAMMA0, build_mesh, mesh_to_dict
from steklovem.meshgen import FAMILIES


def uniform_square_mesh(n, eps=None):
    """Uniform n x n grid of (0,1)^2, full gamma0 boundary.

    With ``eps`` set, every cell touching the domain boundary gets a
    flat-angle vertex at arc distance eps along one of its boundary edges.
    """
    xs = np.linspace(0.0, 1.0, n + 1)
    index = {}
    verts = []

    def vtx(p):
        key = (round(p[0], 14), round(p[1], 14))
        if key not in index:
            index[key] = len(verts)
            verts.append([p[0], p[1]])
        return index[key]

    def on_boundary(a, b):
        return any(abs(a[c] - v) < 1e-12 and abs(b[c] - v) < 1e-12
                   for c in (0, 1) for v in (0.0, 1.0))

    cells = []
    for j in range(n):
        for i in range(n):
            corners = [(xs[i], xs[j]), (xs[i + 1], xs[j]),
                       (xs[i + 1], xs[j + 1]), (xs[i], xs[j + 1])]
            cycle = []
            split_done = False
            for a, b in zip(corners, corners[1:] + corners[:1]):
                cycle.append(vtx(a))
                if eps is not None and not split_done and on_boundary(a, b):
                    length = math.hypot(b[0] - a[0], b[1] - a[1])
                    t = eps / length
                    cycle.append(vtx((a[0] + t * (b[0] - a[0]),
                                      a[1] + t * (b[1] - a[1]))))
                    split_done = True
            cells.append(cycle)

    from collections import Counter
    count = Counter()
    for c in cells:
        for a, b in zip(c, c[1:] + c[:1]):
            count[frozenset((a, b))] += 1
    bnd = [(a, b, GAMMA0) for c in cells
           for a, b in zip(c, c[1:] + c[:1])
           if count[frozenset((a, b))] == 1]
    return build_mesh(np.array(verts), cells, bnd)


def permuted_mesh(N=8, seed=1, family="t5"):
    """The family's mesh renumbered, rotated and reordered as the benchmark
    does it; sweep-t5 runs t5 at N=30 with seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    data = mesh_to_dict(FAMILIES[family](N))
    return build_mesh(*workloads.permuted_mesh_data(data, seed))
