"""Write one ``BENCH_<label>.json`` from the benchmark, the tier-1 tests, the
large-case probe and the eigenvalues of a checkout.

Run from the repository root, on an otherwise idle machine::

    python tools/bench_record.py
    python tools/bench_record.py --against BENCH_x.json
    python tools/bench_record.py --lambdas

The first runs these, one after another, each as a subprocess of this
interpreter:

- ``perfbench/run.py --workload W --seconds 25 --trace 0`` for every
  workload that ``BENCHMARK.json`` lists
- the tier-1 tests, ``python -m pytest -q --continue-on-collection-errors``
  with ``src`` first on ``PYTHONPATH``
- ``tools/scale_probe.py t5 130``
- ``tools/sloc.py``
- ``tools/bench_record.py --lambdas``

and writes their results to ``BENCH_<label>.json`` in the repository root,
``<label>`` being ``git describe --always --dirty``.  The file holds the
commit (and whether tracked files differed from it), run.py's environment
record, per workload the failed count and the end-to-end metrics
(``wall_s`` with the quartiles run.py reports, rescaled and raw, and
``setup_s`` with its rescaled import and preparation samples), tier-1
passed, failed and wall time with the failing test ids, the probe's rows,
the logical source lines per module and in total, so that a change
quotes its net lines from the same file as its timings, and the
``lambdas`` block.  A tier-1 failure is recorded, not fatal; a workload,
the probe, the line count or the eigenvalue solves exiting non-zero stops
the script before anything is written.

``--lambdas`` prints only the ``lambdas`` block, as JSON, and writes
nothing.  It solves :func:`lambda_block`'s cases with one BLAS thread:
t1-t6 at N = 8, 16 and 32 for k = 6, m - 3 and m - 1 (m gamma0 dofs), so
that both eigensolver paths run on every family, the two meshes of
acceptance criterion 8 (the unit square's n x n grid with a 1e-8 edge in
every boundary cell, n = 8 and 16) and t1-t6 at N = 8 with small edges
anywhere (``tests/meshes.py::split_edges`` at seed 0, chain 1: 30% of the
edges split at eps = 1e-4, 1e-8 and 1e-12 of their length), each for the
same k.  Each case stores the eigenvalues, the path and the worst backward
error, or the error of a solve that raised ``SolverError``.  It takes a few
seconds.

``--against BENCH_x.json`` solves the same cases and prints, per family
and path, the largest relative move of any eigenvalue from the ``lambdas``
block of that file; it writes nothing either.  Two commits return the
same eigenvalues when every move reads 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = "25"
PROBE_CASE = ["t5", "130"]
SLOC = ["tools/sloc.py"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TIMEOUT_S = 1800
LAMBDAS = ["tools/bench_record.py", "--lambdas"]
LAMBDA_FAMILIES = ("t1", "t2", "t3", "t4", "t5", "t6")
LAMBDA_NS = (8, 16, 32)
LAMBDA_KS = {"6": lambda m: 6, "m-3": lambda m: m - 3, "m-1": lambda m: m - 1}
SPLIT_N = 8
SPLIT_EPS = (1e-4, 1e-8, 1e-12)
_SUMMARY = re.compile(r"(\d+) (passed|failed|error)")
_WALL = re.compile(r" in ([0-9.]+)s")


def _run(args: list[str], check: bool = True) -> str:
    """Standard output of this interpreter running ``args`` in the checkout,
    with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, text=True,
                          capture_output=True, timeout=TIMEOUT_S)
    if check and proc.returncode != 0:
        sys.exit(f"bench_record: {' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc.stdout


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, text=True, capture_output=True,
                          check=True).stdout.strip()


def _quartiles(stats: dict) -> dict:
    return {key: stats[key] for key in ("q1", "median", "q3")}


def parse_workload(stdout: str) -> dict:
    """The result of one ``run.py --trace 0`` run from its last two lines:
    the ``detail`` line and the JSON result."""
    *_, detail_line, result_line = stdout.strip().splitlines()
    detail = json.loads(detail_line.removeprefix("detail "))
    result = json.loads(result_line)
    metrics = result["metrics"]
    metrics["wall_s"].update(_quartiles(detail["wall_s_rescaled"]),
                             raw=_quartiles(detail["wall_s"]), n=detail["wall_s"]["n"])
    for part in ("import_s", "prepare_s"):
        metrics["setup_s"][part] = detail[part]["rescaled"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "errors": detail["errors"],
            "metrics": metrics, "env": detail["env"]}


def parse_tier1(stdout: str) -> dict:
    """Counts, wall time and failing test ids from pytest's ``-q`` output."""
    summary = stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in _SUMMARY.findall(summary)}
    wall = _WALL.search(summary)
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "wall_s": float(wall[1]) if wall else None,
            "failing": [line.split()[1] for line in stdout.splitlines()
                        if line.startswith(("FAILED ", "ERROR "))]}


def parse_probe(stdout: str) -> dict:
    """``{name: {"value", "unit"}}`` from the ``name value unit`` rows of
    ``tools/scale_probe.py``."""
    rows = {}
    for line in stdout.strip().splitlines():
        name, value, unit = line.split(maxsplit=2)
        rows[name] = {"value": float(value), "unit": unit}
    return rows


def parse_sloc(stdout: str) -> dict:
    """``{"modules": {module: lines}, "total": lines}`` from the
    ``module lines`` rows of ``tools/sloc.py``, the last being the total."""
    *rows, (_, total) = (line.split() for line in stdout.strip().splitlines())
    return {"modules": {name: int(n) for name, n in rows}, "total": int(total)}


def record(commit: str, dirty: bool, workloads: dict, tier1: str, probe: str,
           sloc: str) -> dict:
    """The BENCH record from the raw outputs: ``workloads`` maps each workload
    to run.py's standard output, ``tier1``, ``probe`` and ``sloc`` are the
    standard outputs of the tests, of the probe and of the line count."""
    runs = {name: parse_workload(out) for name, out in workloads.items()}
    env = next(iter(runs.values()))["env"]
    for run in runs.values():
        env_of_run = run.pop("env")
        run["loadavg"] = [env_of_run["loadavg_start"], env_of_run["loadavg_end"]]
    return {"commit": commit, "dirty": dirty,
            "env": {k: v for k, v in env.items() if not k.startswith("loadavg")},
            "workloads": runs, "tier1": parse_tier1(tier1),
            "probe": {"case": " ".join(PROBE_CASE), "rows": parse_probe(probe)},
            "sloc": parse_sloc(sloc)}


def lambda_block() -> dict:
    """``{case: entry}`` over the ``LAMBDA_FAMILIES`` meshes at ``LAMBDA_NS``,
    criterion 8's meshes and the ``LAMBDA_FAMILIES`` meshes at ``SPLIT_N``
    with edges split at each of ``SPLIT_EPS``, each for the k of
    ``LAMBDA_KS``.  A case is named like ``"t5 N=16 k=m-3"`` or ``"split
    1e-08 t5 N=8 k=6"``, the family of the second being ``"split 1e-08"``,
    and an entry holds the family, k, and either ``lambdas``, ``path`` and
    ``backward_error`` or the ``error`` of a solve that raised
    ``SolverError``."""
    spec = importlib.util.spec_from_file_location("test_meshes", ROOT / "tests" / "meshes.py")
    meshes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(meshes)
    from steklovem import FAMILIES, StabilizationSpec, assemble_global, solve_steklov
    from steklovem.errors import SolverError

    cases = [(family, f"N={N}", partial(FAMILIES[family], N))
             for family in LAMBDA_FAMILIES for N in LAMBDA_NS]
    cases += [("criterion8", f"n={n}", partial(meshes.uniform_square_mesh, n, 1e-8))
              for n in (8, 16)]
    cases += [(f"split {eps:.0e}", f"{family} N={SPLIT_N}",
               partial(meshes.split_edges, FAMILIES[family](SPLIT_N), eps, chain=1, seed=0))
              for eps in SPLIT_EPS for family in LAMBDA_FAMILIES]
    block = {}
    for family, size, make in cases:
        system = assemble_global(make(), StabilizationSpec())
        m = len(system.gamma0_dofs)
        for k_name, k_of_m in LAMBDA_KS.items():
            k = k_of_m(m)
            entry = {"family": family, "k": k}
            try:
                result = solve_steklov(system, k)
            except SolverError as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
            else:
                entry.update(lambdas=result.lambdas.tolist(), path=result.path,
                             backward_error=float(result.residuals.max()))
            block[f"{family} {size} k={k_name}"] = entry
    return block


def lambda_moves(old: dict, new: dict) -> dict:
    """``{(family, path): (cases, largest move)}`` over the cases of two
    ``lambdas`` blocks: the largest relative move max |new - old| / |old|
    of any eigenvalue, 0 between two errors and inf between an error and
    eigenvalues or between lists of different lengths.  The path is the
    new block's, ``"error"`` for an error, written ``old->new`` where the
    two differ; cases in only one block are left out."""
    moves = {}
    for case, entry in new.items():
        if case not in old:
            continue
        before = old[case]
        paths = [e.get("path", "error") for e in (before, entry)]
        path = paths[1] if paths[0] == paths[1] else "->".join(paths)
        if "error" in before or "error" in entry:
            move = 0.0 if "error" in before and "error" in entry else math.inf
        elif len(before["lambdas"]) != len(entry["lambdas"]):
            move = math.inf
        else:
            move = max((abs(b - a) / abs(a) for a, b in zip(before["lambdas"], entry["lambdas"])),
                       default=0.0)
        cases, largest = moves.get((entry["family"], path), (0, 0.0))
        moves[entry["family"], path] = (cases + 1, max(largest, move))
    return moves


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lambdas", action="store_true",
                        help="print only the lambdas block as JSON")
    parser.add_argument("--against", metavar="BENCH_x.json", type=Path,
                        help="print the largest relative move of lambda per family and "
                             "path from the lambdas block of this file")
    args = parser.parse_args(argv)
    if args.lambdas:
        # one BLAS thread, as in the benchmark and the tests, set before
        # anything imports numpy
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(lambda_block()))
        return
    if args.against:
        old = json.loads(args.against.read_text())["lambdas"]
        print(f"{'family':<12} {'path':<16} {'cases':>5}  largest move")
        for (family, path), (cases, largest) in sorted(
                lambda_moves(old, json.loads(_run(LAMBDAS))).items()):
            print(f"{family:<12} {path:<16} {cases:>5}  {largest:.3g}")
        return
    label = _git("describe", "--always", "--dirty")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: _run(["perfbench/run.py", "--workload", w["name"],
                                  "--seconds", SECONDS, "--trace", "0"])
                 for w in spec["workloads"]}
    tier1 = _run(TIER1, check=False)
    probe = _run(["tools/scale_probe.py", *PROBE_CASE])
    bench = record(_git("rev-parse", "HEAD"),
                   bool(_git("status", "--porcelain", "--untracked-files=no")),
                   workloads, tier1, probe, _run(SLOC))
    bench["lambdas"] = json.loads(_run(LAMBDAS))
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
