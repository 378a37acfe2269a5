"""Scripts under tools/ run end to end."""

import importlib.util
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
    assert float(rows["fill"]) > float(rows["n_dofs"])
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
