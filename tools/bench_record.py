"""Write one ``BENCH_<label>.json`` from the benchmark, the tier-1 tests and
the large-case probe of a checkout.

Run from the repository root, on an otherwise idle machine::

    python tools/bench_record.py

It runs these, one after another, each as a subprocess of this interpreter:

- ``perfbench/run.py --workload W --seconds 25 --trace 0`` for every
  workload that ``BENCHMARK.json`` lists
- the tier-1 tests, ``python -m pytest -q --continue-on-collection-errors``
  with ``src`` first on ``PYTHONPATH``
- ``tools/scale_probe.py t5 130``
- ``tools/sloc.py``

and writes their results to ``BENCH_<label>.json`` in the repository root,
``<label>`` being ``git describe --always --dirty``.  The file holds the
commit (and whether tracked files differed from it), run.py's environment
record, per workload the failed count and the end-to-end metrics
(``wall_s`` with the quartiles run.py reports, rescaled and raw, and
``setup_s`` with its rescaled import and preparation samples), tier-1
passed, failed and wall time with the failing test ids, the probe's rows
and the logical source lines per module and in total, so that a change
quotes its net lines from the same file as its timings.  A tier-1
failure is recorded, not fatal; a workload, the probe or the line count
exiting non-zero stops the script before anything is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = "25"
PROBE_CASE = ["t5", "130"]
SLOC = ["tools/sloc.py"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TIMEOUT_S = 1800
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


def main(argv: list[str]) -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
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
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
