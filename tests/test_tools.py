"""Scripts under tools/ run end to end."""

import importlib.util
from pathlib import Path


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_probe_prints_every_row(capsys):
    load_tool("scale_probe").main(["t5", "8"])
    rows = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines())
    assert list(rows) == [
        "generate", "assemble", "assemble_traced_peak", "matrices", "n_dofs",
        "m", "cells", "shift", "solve", "q", "steps", "reach",
        "solve_traced_peak", "peak_rss"]
    assert int(rows["steps"]) > 0
    assert 0 < int(rows["reach"]) <= int(rows["n_dofs"])
