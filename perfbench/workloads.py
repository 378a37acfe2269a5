"""The benchmark's workloads and their correctness gates.

Each workload has three steps:

``prepare(seed, workdir)``
    untimed preparation, counted in ``setup_s``; returns the state.
``fresh(state)``
    untimed per-repetition reset that is harness work, not program work.
``run(inp, rec)``
    one timed repetition; ``rec`` is the span recorder in traced
    repetitions and ``None`` otherwise.  Returns what ``check`` gates.

The package is driven only through public functions, called through their
module attribute at call time, so the traced run's wrappers see the calls.
Sizes are chosen so a repetition takes seconds, not tens of seconds: the
benchmark is run 70 times in one sitting and each run needs several
repetitions for a stable median (see README.md).
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import numpy as np

LAMBDA_RTOL = 1e-10     # the project's eigenvalue-stability rule
ORDER_ATOL = 1e-6       # fitted orders: what a 1e-10 relative move in lambda can shift
PRINTED_ATOL = 5e-11    # the CLI rounds lambda to 10 decimals
HERE = os.path.dirname(os.path.abspath(__file__))


class GateError(AssertionError):
    """An output differs from the stored seed-commit value."""


def _gate_close(name, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise GateError(f"{name}: shape {got.shape} != reference {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))   # NaN fails too
    if np.any(bad):
        i = tuple(int(k) for k in np.argwhere(bad)[0])
        raise GateError(f"{name}{list(i)}: {float(got[i])!r} != reference {float(want[i])!r}")


# ---------------------------------------------------------------------------
# study-t2: the paper's headline convergence table on the h^2-hexagon family

STUDY_FAMILY, STUDY_NS, K = "t2", [8, 16, 32], 6


def study_prepare(seed, workdir):
    return None


def study_fresh(state):
    return None


def study_run(inp, rec):
    from steklovem import analysis
    study = analysis.run_study(STUDY_FAMILY, STUDY_NS, k=K)
    return {"Ns": list(study.Ns), "n_dofs": list(study.n_dofs),
            "lambdas": np.asarray(study.eigenvalues).tolist(),
            "orders": np.asarray(study.orders).tolist()}


def study_check(out, ref):
    if out["Ns"] != ref["Ns"] or out["n_dofs"] != ref["n_dofs"]:
        raise GateError(f"levels {out['Ns']}/{out['n_dofs']} != reference "
                        f"{ref['Ns']}/{ref['n_dofs']}")
    _gate_close("lambda", out["lambdas"], ref["lambdas"], LAMBDA_RTOL)
    _gate_close("order", out["orders"], ref["orders"], 0.0, ORDER_ATOL)


# ---------------------------------------------------------------------------
# sweep-t5: alpha sweep of the stabilization on one seeded rotated-T mesh

SWEEP_FAMILY, SWEEP_N = "t5", 30
ALPHAS = [0.5, 0.75, 1.0, 1.25, 1.5]


def permuted_mesh_data(data, seed):
    """Renumber vertices, rotate every cell cycle and reorder the cells and
    boundary edges; the discrete spectrum is invariant under all three."""
    rng = np.random.default_rng(seed)
    verts = np.asarray(data["vertices"], dtype=float)
    new_id = rng.permutation(len(verts))
    new_verts = np.empty_like(verts)
    new_verts[new_id] = verts
    cells = []
    for cyc in data["cells"]:
        shift = int(rng.integers(len(cyc)))
        cells.append([int(new_id[v]) for v in cyc[shift:] + cyc[:shift]])
    cells = [cells[i] for i in rng.permutation(len(cells))]
    boundary = [(int(new_id[i]), int(new_id[j]), m) for i, j, m in data["boundary"]]
    boundary = [boundary[i] for i in rng.permutation(len(boundary))]
    return new_verts, cells, boundary


def sweep_prepare(seed, workdir):
    from steklovem import mesh, meshgen
    base = meshgen.FAMILIES[SWEEP_FAMILY](SWEEP_N)
    path = os.path.join(workdir, "sweep-base.json")
    mesh.save_mesh_json(base, path)
    with open(path) as fh:
        data = json.load(fh)
    return mesh.build_mesh(*permuted_mesh_data(data, seed))


def sweep_fresh(state):
    # a mesh as build_mesh returns it, so every repetition pays the same
    # first-use work (the geometry cache fills on the first assemble)
    return copy.deepcopy(state)


def sweep_run(m, rec):
    from steklovem import eig, vem
    lambdas = []
    for alpha in ALPHAS:
        system = vem.assemble_global(m, vem.StabilizationSpec(alpha=alpha))
        lambdas.append(eig.solve_steklov(system, K).lambdas.tolist())
    return {"alphas": ALPHAS, "lambdas": lambdas}


def sweep_check(out, ref):
    if out["alphas"] != ref["alphas"]:
        raise GateError(f"alphas {out['alphas']} != reference {ref['alphas']}")
    _gate_close("lambda", out["lambdas"], ref["lambdas"], LAMBDA_RTOL)


# ---------------------------------------------------------------------------
# cli-lshape: the README session, mesh -> JSON -> solve -> VTK, as two
# fresh command-line processes, so every repetition pays interpreter start,
# import and first-call costs as a command-line user does on every call

CLI_N, CLI_REFINE = 32, 2
CHILD_TIMEOUT_S = 150
_LAMBDA_LINE = re.compile(r"^lambda_(\d+) = (\S+)", re.M)


def cli_prepare(seed, workdir):
    return {"json": os.path.join(workdir, "lshape.json"),
            "vtk": os.path.join(workdir, "modes.vtk"),
            "trace": os.path.join(workdir, "cli-trace.json")}


def cli_fresh(paths):
    for p in paths.values():
        if os.path.exists(p):
            os.remove(p)
    return paths


def cli_commands(paths):
    return [
        ["mesh", "--family", "t6", "--N", str(CLI_N),
         "--refine-level", str(CLI_REFINE), "-o", paths["json"]],
        ["solve", "--mesh-file", paths["json"], "--k", str(K), "--vtk", paths["vtk"]],
    ]


def _cli_process(argv, trace_out):
    cmd = [sys.executable, os.path.join(HERE, "cli_child.py")]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return subprocess.run(cmd + ["--"] + argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def cli_run(paths, rec):
    results = []
    for argv in cli_commands(paths):
        if rec is None:
            proc = _cli_process(argv, None)
        else:
            proc = rec.run("cli.process", _cli_process, argv, paths["trace"])
            if os.path.exists(paths["trace"]):
                with open(paths["trace"]) as fh:
                    rec.absorb(json.load(fh), under="cli.process")
                os.remove(paths["trace"])
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return {"results": results,
            "files": {k: os.path.getsize(p) if os.path.exists(p) else 0
                      for k, p in paths.items() if k != "trace"}}


def cli_check(out, ref):
    for code, stdout, stderr in out["results"]:
        if code != 0:
            raise GateError(f"exit code {code}: {stderr.strip()[-300:]}")
    for name, size in out["files"].items():
        if size == 0:
            raise GateError(f"{name} output missing or empty")
    printed = {int(i): float(v) for i, v in _LAMBDA_LINE.findall(out["results"][1][1])}
    got = [printed.get(i + 1, float("nan")) for i in range(len(ref["lambdas"]))]
    if len(printed) != len(ref["lambdas"]):
        raise GateError(f"{len(printed)} eigenvalues printed, expected {len(ref['lambdas'])}")
    _gate_close("lambda", got, ref["lambdas"], LAMBDA_RTOL, PRINTED_ATOL)


WORKLOADS = {
    "study-t2": (study_prepare, study_fresh, study_run, study_check),
    "sweep-t5": (sweep_prepare, sweep_fresh, sweep_run, sweep_check),
    "cli-lshape": (cli_prepare, cli_fresh, cli_run, cli_check),
}


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)
