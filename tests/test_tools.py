"""Scripts under tools/ run end to end."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_probe_prints_every_row(capsys):
    load_tool("scale_probe").main(["t5", "8"])
    rows = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines())
    assert list(rows) == [
        "generate", "generate_traced_peak", "quality_report", "quality_report_traced_peak",
        "assemble", "assemble_traced_peak", "matrices", "n_dofs",
        "m", "cells", "shift", "solve", "q", "fill", "steps", "reach",
        "solve_traced_peak", "peak_rss"]
    assert float(rows["generate_traced_peak"]) > 0.0
    assert float(rows["quality_report"]) > 0.0
    assert float(rows["quality_report_traced_peak"]) > 0.0
    assert int(rows["fill"]) > int(rows["n_dofs"])    # counts print in full
    assert int(rows["steps"]) > 0
    assert 0 < int(rows["reach"]) <= int(rows["n_dofs"])


# seven logical lines: the import, the class line, its attribute, the def
# line, the two lines of the parenthesized product and the return
SLOC_SOURCE = '''"""Module docstring
over two lines."""

import os


class Box:
    """Class docstring."""

    # a comment-only line
    size = 1


def area(box):
    """Function
    docstring."""
    total = (box.size
             * box.size)   # a trailing comment
    return total
'''


def test_sloc_counts_code_lines_only():
    assert load_tool("sloc").count_lines(SLOC_SOURCE) == 7


def test_sloc_prints_every_module_and_their_sum(capsys, monkeypatch):
    sloc = load_tool("sloc")
    monkeypatch.chdir(ROOT)
    sloc.main(["src/steklovem"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(ROOT.glob("src/steklovem/*.py"))
    assert [name for name, _ in rows] == [path.stem for path in modules] + ["total"]
    counts = [int(n) for _, n in rows]
    assert counts[:-1] == [sloc.count_lines(path.read_text()) for path in modules]
    assert counts[-1] == sum(counts[:-1])


def canned_run(workload, wall, failed=0):
    """What ``perfbench/run.py --trace 0`` prints: human lines, the detail
    line and the JSON result."""
    detail = {"workload": workload, "seed": 1, "seconds": 25.0, "trace": 0,
              "import_s": {"raw": [0.06, 0.05, 0.07], "rescaled": [0.055, 0.045, 0.065]},
              "prepare_s": {"raw": [0.01, 0.02, 0.03], "rescaled": [0.012, 0.022, 0.032]},
              "attempted": 100, "failed": failed, "errors": ["gate: moved"] * failed,
              "failed_ratio": failed / 100,
              "wall_s": {"median": 1.1 * wall, "q1": wall, "q3": 1.2 * wall, "n": 100},
              "wall_s_rescaled": {"median": wall, "q1": 0.9 * wall, "q3": 1.1 * wall},
              "env": {"nproc": 2, "blas_threads": 1, "numpy": "2.0",
                      "loadavg_start": [0.5, 0.4, 0.3], "loadavg_end": [0.9, 0.5, 0.3]}}
    result = {"correct": not failed, "attempted": 100, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "setup_s": {"value": 0.072, "unit": "s"},
                          "peak_rss_mb": {"value": 74.5, "unit": "MB"}}}
    return (f"workload {workload}  seed 1  seconds 25.0  trace 0\n"
            f"wall_s                       {wall} s\n"
            f"detail {json.dumps(detail)}\n{json.dumps(result)}\n")


CANNED_TIER1 = """\
........F.............................................................. [ 50%]
..................................F.................................... [100%]
=================================== FAILURES ===================================
(tracebacks)
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_1 - AssertionError: verdict
FAILED tests/test_acceptance.py::test_criterion_3 - AssertionError: verdict
2 failed, 452 passed in 26.31s
"""

CANNED_PROBE = """\
generate                         0.3012 s
n_dofs                            78765 dofs
q                                     0 dofs (lanczos path)
fill                            3851234 nnz(L) + nnz(U)
peak_rss                          212.4 MiB
"""

CANNED_SLOC = """\
analysis       157
eig            206
total          363
"""


def test_bench_record_parses_canned_output():
    bench_record = load_tool("bench_record")
    bench = bench_record.record(
        "abc123", True, {"study-t2": canned_run("study-t2", 0.05),
                         "sweep-t5": canned_run("sweep-t5", 0.12, failed=2)},
        CANNED_TIER1, CANNED_PROBE, CANNED_SLOC)
    assert bench["commit"] == "abc123" and bench["dirty"] is True
    assert bench["env"] == {"nproc": 2, "blas_threads": 1, "numpy": "2.0"}
    sweep = bench["workloads"]["sweep-t5"]
    assert (sweep["correct"], sweep["attempted"], sweep["failed"]) == (False, 100, 2)
    assert sweep["loadavg"] == [[0.5, 0.4, 0.3], [0.9, 0.5, 0.3]]
    wall = sweep["metrics"]["wall_s"]
    assert (wall["value"], wall["unit"], wall["median"]) == (0.12, "s", 0.12)
    assert wall["q1"] < wall["median"] < wall["q3"] and wall["n"] == 100
    assert wall["raw"] == {"q1": 0.12, "median": 1.1 * 0.12, "q3": 1.2 * 0.12}
    setup = sweep["metrics"]["setup_s"]
    assert setup["value"] == 0.072
    assert setup["import_s"] == [0.055, 0.045, 0.065]
    assert sweep["metrics"]["peak_rss_mb"] == {"value": 74.5, "unit": "MB"}
    assert bench["tier1"] == {
        "passed": 452, "failed": 2, "errors": 0, "wall_s": 26.31,
        "failing": ["tests/test_acceptance.py::test_criterion_1",
                    "tests/test_acceptance.py::test_criterion_3"]}
    rows = bench["probe"]["rows"]
    assert bench["probe"]["case"] == "t5 130"
    assert rows["fill"] == {"value": 3851234, "unit": "nnz(L) + nnz(U)"}
    assert rows["generate"] == {"value": 0.3012, "unit": "s"}
    assert rows["q"]["unit"] == "dofs (lanczos path)"
    assert bench["sloc"] == {"modules": {"analysis": 157, "eig": 206}, "total": 363}


def test_bench_record_writes_one_file_from_its_subprocesses(monkeypatch, tmp_path):
    bench_record = load_tool("bench_record")
    calls = []

    def fake_run(args, check=True):
        calls.append(args)
        if args[0] == "perfbench/run.py":
            return canned_run(args[2], 0.1)
        return {tuple(bench_record.TIER1): CANNED_TIER1,
                tuple(bench_record.SLOC): CANNED_SLOC}.get(tuple(args), CANNED_PROBE)

    spec = (ROOT / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(spec)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "_run", fake_run)
    monkeypatch.setattr(bench_record, "_git", lambda *args: {
        ("rev-parse", "HEAD"): "abc123", ("describe", "--always", "--dirty"): "abc"}
        .get(args, ""))
    bench_record.main([])
    workloads = [w["name"] for w in json.loads(spec)["workloads"]]
    assert calls == [["perfbench/run.py", "--workload", name, "--seconds", "25",
                      "--trace", "0"] for name in workloads] + [
        bench_record.TIER1, ["tools/scale_probe.py", "t5", "130"], ["tools/sloc.py"]]
    bench = json.loads((tmp_path / "BENCH_abc.json").read_text())
    assert list(bench["workloads"]) == workloads
    assert (bench["commit"], bench["dirty"]) == ("abc123", False)
    assert bench["tier1"]["passed"] == 452
    assert bench["sloc"]["total"] == 363
