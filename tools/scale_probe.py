"""Time and size one large case of the steklovem pipeline in its own process.

Run one case per process, so that ``ru_maxrss`` belongs to that case alone::

    python tools/scale_probe.py FAMILY N [K]

for example ``python tools/scale_probe.py t2 256 6``.  It imports the package
from the ``src/`` next to this file, generates the mesh twice (once timed,
once under ``tracemalloc`` for the peak of generation alone), runs its
``quality_report`` twice (timed, then traced), assembles it twice (timed,
then traced, with alpha = 1) and solves for the first K eigenvalues (default
6; K = 0 skips the solve) the same way, timed and then traced.  It prints
one ``name value unit`` row per measurement: the wall times of generate,
quality_report, assemble and solve, the traced peaks of generation,
quality_report, assembly and solve and the bytes of the stored A and B
(MiB), the problem size (dofs, gamma0 dofs m and cells), the shift sigma =
1 / |gamma0| of Ahat = A + sigma B, the eigensolver path that ran ("schur"
or "lanczos") with q, the number of LU positions from the first gamma0 dof
on (0 when Ahat was factored without the gamma0 clique), the fill nnz(L) +
nnz(U) of the LU, the number of Lanczos steps and the reach |R|, the dofs
each step solves on (both 0 off the Lanczos path), and the process's peak
resident set size, read before the traced solve.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from steklovem import (  # noqa: E402
    FAMILIES,
    assemble_global,
    quality_report,
    solve_steklov,
)


def _bytes(matrix) -> int:
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _traced(func, *args):
    """``(func(*args), peak bytes tracemalloc saw during the call)``."""
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("family", choices=sorted(FAMILIES))
    parser.add_argument("N", type=int)
    parser.add_argument("k", type=int, nargs="?", default=6)
    args = parser.parse_args(argv)

    rows = []
    t = time.perf_counter()
    mesh = FAMILIES[args.family](args.N)
    rows.append(("generate", time.perf_counter() - t, "s"))
    _, peak = _traced(FAMILIES[args.family], args.N)
    rows.append(("generate_traced_peak", peak / 2**20, "MiB"))
    t = time.perf_counter()
    quality_report(mesh)
    rows.append(("quality_report", time.perf_counter() - t, "s"))
    _, peak = _traced(quality_report, mesh)
    rows.append(("quality_report_traced_peak", peak / 2**20, "MiB"))
    t = time.perf_counter()
    assemble_global(mesh)
    rows.append(("assemble", time.perf_counter() - t, "s"))
    system, peak = _traced(assemble_global, mesh)
    rows.append(("assemble_traced_peak", peak / 2**20, "MiB"))
    rows.append(("matrices", (_bytes(system.A) + _bytes(system.B)) / 2**20, "MiB"))
    rows.append(("n_dofs", system.n_dofs, "dofs"))
    rows.append(("m", len(system.gamma0_dofs), "gamma0 dofs"))
    rows.append(("cells", mesh.n_cells, "cells"))
    rows.append(("shift", system.shift, "1/length"))
    if args.k > 0:
        t = time.perf_counter()
        result = solve_steklov(system, args.k)
        rows.append(("solve", time.perf_counter() - t, "s"))
        rows.append(("q", result.q, f"dofs ({result.path} path)"))
        rows.append(("fill", result.fill, "nnz(L) + nnz(U)"))
        rows.append(("steps", result.steps, "Lanczos steps"))
        rows.append(("reach", result.reach, "dofs per step"))
    # ru_maxrss is in KiB on Linux
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.k > 0:
        _, peak = _traced(solve_steklov, system, args.k)
        rows.append(("solve_traced_peak", peak / 2**20, "MiB"))
    rows.append(("peak_rss", peak_rss, "MiB"))
    for name, value, unit in rows:
        print(f"{name:<26} {value:12d} {unit}" if isinstance(value, int)
              else f"{name:<26} {value:12.4g} {unit}")


if __name__ == "__main__":
    main(sys.argv[1:])
