"""Benchmark of the steklovem package, timed from outside the package.

    python3 perfbench/run.py --workload study-t2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all [--trace 1]

Run it from a checkout of the repository: it imports the package from
``src/`` (never an installed copy) and keeps its scratch files in
``.perfbench_work/``.  One run prepares a workload, then repeats it until
``--seconds`` have passed, gating every repetition on stored reference
outputs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units come from ``BENCHMARK.json`` (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``).  ``--workload all`` runs
each workload in its own process and prints one table.  See README.md.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# BLAS threads are pinned before numpy loads; child processes inherit it
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import spans  # noqa: E402
import workloads as w  # noqa: E402
from speed import Speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 3               # set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 180        # the most one run may take
IMPORT_PROBE = ("import time; t = time.perf_counter(); import steklovem; "
                "print(time.perf_counter() - t); print(steklovem.__file__)")

# per-layer metric -> span whose self time it reports; together these
# spans' self times add up to the traced repetition's wall time
SELF_TIMES = {
    "meshgen.generate.s": "meshgen.generate",
    "meshgen.refine.s": "meshgen.refine",
    "mesh.build_mesh.s": "mesh.build_mesh",
    "mesh.element_geometry.s": "mesh.element_geometry",
    "mesh.quality_report.s": "mesh.quality_report",
    "mesh.load_json.s": "mesh.load_json",
    "mesh.save_json.s": "mesh.save_json",
    "vem.scatter.s": "vem.assemble",
    "vem.local_operators.s": "vem.local_operators",
    "eig.solve.s": "eig.solve",
    "analysis.run_study.s": "analysis.run_study",
    "cli.main.s": "cli.main",
    "cli.startup.s": "cli.process",
    "vtkio.write_vtk.s": "vtkio.write_vtk",
    "bench.other.s": spans.ROOT_SPAN,
}
CALLS = {"mesh.element_geometry.calls": "mesh.element_geometry",
         "vem.local_operators.calls": "vem.local_operators",
         "eig.solve.calls": "eig.solve"}
COUNTS = ["meshgen.cells", "mesh.json_bytes", "cli.nonzero_exits", "vtkio.bytes"]
MAXIMA = ["vem.n_dofs", "vem.nnz_Ahat", "eig.m", "eig.peak_traced_mb"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def use_source_tree():
    """Import the package from this checkout's ``src/``, here and in children."""
    if not os.path.isfile(os.path.join(SRC, "steklovem", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}/steklovem; "
                 "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def ensure_workroot():
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


def fresh_import_s():
    """Time of ``import steklovem`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, check=True, timeout=PROBE_TIMEOUT_S).stdout.split()
    if not os.path.realpath(out[1]).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported steklovem from {out[1]}, not from {SRC}")
    return float(out[0])


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def repeat(workload, state, ref, seconds, traced, speed):
    """Repeat the workload for ``seconds``.  An untraced run rescales each
    repetition with ``speed``; a traced run alternates untraced and traced
    repetitions, so both see the same machine state."""
    _, fresh, run, check = workload
    walls = {False: [], True: []}
    rescaled = []
    errors = []
    rec = spans.Recorder()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or not walls[False] or (traced and not walls[True]):
        trace_this = traced and i % 2 == 1
        i += 1
        inp = fresh(state)
        with spans.patched(rec) if trace_this else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = rec.run(spans.ROOT_SPAN, run, inp, rec) if trace_this else run(inp, None)
            except Exception as exc:  # a failed repetition is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        walls[trace_this].append(wall)
        if speed is not None:
            rescaled.append(speed.rescale(wall))
        if out is not None:
            try:
                check(out, ref)
                error = None
            except w.GateError as exc:
                error = f"gate: {exc}"
        if error:
            errors.append(error)
    return walls, rescaled, errors, rec


def timed_setups(step, speed):
    """Run ``step`` SETUPS times; return raw and rescaled durations and the
    last step's result."""
    raw, rescaled = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        result = step()
        raw.append(time.perf_counter() - t0)
        rescaled.append(speed.rescale(raw[-1]))
    return raw, rescaled, result


def layer_metrics(rec, prep_rec, walls):
    n = max(len(walls[True]), 1)
    m = {name: rec.self_s.get(span, 0.0) / n for name, span in SELF_TIMES.items()}
    m.update({name: rec.calls.get(span, 0) / n for name, span in CALLS.items()})
    m.update({name: rec.counts.get(name, 0.0) / n for name in COUNTS})
    m.update({name: rec.maxima.get(name, 0.0) for name in MAXIMA})
    m["vem.assemble.s"] = rec.inclusive_s("vem.assemble") / n
    geom_calls = rec.calls.get("mesh.element_geometry", 0)
    m["mesh.geometry_reuse"] = (rec.counts.get("mesh.geometry.calls", 0.0) / geom_calls
                                if geom_calls else 0.0)
    for layer in ("meshgen", "mesh"):
        m[f"setup.{layer}.s"] = sum((v for k, v in prep_rec.self_s.items()
                                     if k.startswith(layer + ".")), 0.0)
    m["trace.wall_s"] = statistics.fmean(walls[True])
    m["trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    unlisted = set(rec.self_s) - set(SELF_TIMES.values())
    return m, unlisted


def run_one(spec, name, seed, seconds, traced):
    use_source_tree()
    env = environment()
    ref = w.load_reference()[name]
    workload = w.WORKLOADS[name]
    prepare = workload[0]
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=ensure_workroot())
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced)}
    try:
        import steklovem  # noqa: F401  (the in-process import is not timed)
        prep_rec = spans.Recorder()
        if traced:
            speed = None
            with spans.patched(prep_rec):
                state = prepare(seed, workdir)
        else:
            speed = Speed()
            imports = timed_setups(fresh_import_s, speed)
            preps = timed_setups(lambda: prepare(seed, workdir), speed)
            state = preps[2]
            detail["import_s"] = {"raw": imports[0], "rescaled": imports[1]}
            detail["prepare_s"] = {"raw": preps[0], "rescaled": preps[1]}
        walls, rescaled, errors, rec = repeat(workload, state, ref, seconds, traced, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(walls[False]) + len(walls[True])
    untraced = walls[False]
    detail.update(attempted=attempted, failed=len(errors), errors=errors[:5],
                  failed_ratio=len(errors) / attempted)
    q1, med, q3 = quartiles(untraced)
    detail["wall_s"] = {"median": med, "q1": q1, "q3": q3, "n": len(untraced),
                        "samples": untraced}
    if traced:
        values, unlisted = layer_metrics(rec, prep_rec, walls)
        detail["traced_wall_s"] = walls[True]
        detail["self_time_sum_s"] = sum(values[k] for k in SELF_TIMES)
        detail["spans_not_in_metrics"] = sorted(unlisted)
        detail["targets_missing"] = sorted(rec.missing | prep_rec.missing)
        detail["call_tree_s"] = sorted(([p, c, v / max(len(walls[True]), 1)]
                                        for (p, c), v in rec.edge_s.items()),
                                       key=lambda e: -e[2])
        wanted = spec["per_layer"]
    else:
        q1, med, q3 = quartiles(rescaled)
        detail["wall_s_rescaled"] = {"median": med, "q1": q1, "q3": q3,
                                     "samples": rescaled}
        detail["speed_kernel_s"] = speed.kernel_samples
        values = {"wall_s": med,
                  "setup_s": statistics.median(imports[1]) + statistics.median(preps[1]),
                  "peak_rss_mb": peak_rss_mb()}
        wanted = spec["end_to_end"]
    env["loadavg_end"] = os.getloadavg()
    detail["env"] = env

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print_human(detail, metrics)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))


def print_human(detail, metrics):
    ws = detail["wall_s"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  trace {detail['trace']}")
    print(f"raw wall    median {ws['median']:.4f} s  q1 {ws['q1']:.4f}  "
          f"q3 {ws['q3']:.4f}  n={ws['n']} (untraced repetitions, not rescaled)")
    print(f"failed_ratio {detail['failed']}/{detail['attempted']} = "
          f"{detail['failed_ratio']:.3g} ratio")
    for err in detail["errors"]:
        print(f"  failure: {err}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if detail["trace"]:
        print(f"layer self times sum to {detail['self_time_sum_s']:.4f} s; "
              f"traced wall mean {metrics['trace.wall_s']['value']:.4f} s")


def run_all(spec, seed, seconds, traced):
    """Each workload in its own process, one table of their results."""
    rows = []
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"perfbench: {wl['name']} failed:\n{proc.stderr}")
        rows.append((wl["name"], json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])))
    if traced:
        print(f"{'metric':28s}" + "".join(f"{name:>16s}" for name, _, _ in rows))
        for m in spec["per_layer"]:
            print(f"{m['name']:28s}" + "".join(
                f"{res['metrics'][m['name']]['value']:16.6g}" for _, _, res in rows)
                + f"  {m['unit']}")
        return all(res["correct"] for _, _, res in rows)
    print(f"{'workload':12s} {'wall_s':>9s} {'raw wall median [q1, q3] (n)':>34s} "
          f"{'setup_s':>9s} {'peak_rss_mb':>12s} {'failed_ratio':>13s}")
    for name, detail, res in rows:
        ws, mt = detail["wall_s"], res["metrics"]
        raw = f"{ws['median']:.3f} s [{ws['q1']:.3f}, {ws['q3']:.3f}] ({ws['n']})"
        print(f"{name:12s} {mt['wall_s']['value']:7.3f} s {raw:>34s} "
              f"{mt['setup_s']['value']:7.3f} s {mt['peak_rss_mb']['value']:9.1f} MB "
              f"{detail['failed_ratio']:7.3g} ratio")
    print(json.dumps({"env": rows[0][1]["env"]}))
    return all(res["correct"] for _, _, res in rows)


def main(argv=None):
    spec = load_spec()
    names = [wl["name"] for wl in spec["workloads"]]
    if sorted(names) != sorted(w.WORKLOADS):
        sys.exit(f"perfbench: BENCHMARK.json workloads {names} != {sorted(w.WORKLOADS)}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        use_source_tree()
        return 0 if run_all(spec, args.seed, args.seconds, bool(args.trace)) else 1
    run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
