"""Span recorder that times steklovem's layers from outside the package.

Only the traced run uses it.  ``patched(rec)`` replaces each public
function below with a timing wrapper at every ``steklovem`` module
attribute bound to it, so callers that imported the name (``cli`` imports
``assemble_global``, ``meshgen`` imports ``build_mesh``) reach the wrapper
too; leaving the block restores the originals.  The recorder keeps
aggregates, not individual spans: per span name its self time (duration
minus the time covered by child spans) and call count, and per
(parent, child) pair the inclusive time, which is enough to rebuild the
call tree of a run.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict

ROOT_SPAN = "bench.rep"


class Recorder:
    def __init__(self):
        self._stack = []                          # [name, seconds in children]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.edge_s = defaultdict(float)          # (parent, name) -> inclusive s
        self.counts = defaultdict(float)          # summed counters
        self.maxima = defaultdict(float)          # largest value seen
        self.missing = set()                      # targets absent from the package

    def run(self, name, fn, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += dt - frame[1]
            self.calls[name] += 1
            parent = self._stack[-1][0] if self._stack else ""
            if self._stack:
                self._stack[-1][1] += dt
            self.edge_s[(parent, name)] += dt

    def inclusive_s(self, name) -> float:
        return sum(v for (_, child), v in self.edge_s.items() if child == name)

    def dump(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "edges": [[p, c, v] for (p, c), v in self.edge_s.items()],
                "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def absorb(self, data: dict, under: str) -> None:
        """Merge a child process's dump below the span ``under``, which must
        already be closed and must have covered the whole child process."""
        for name, v in data["self_s"].items():
            self.self_s[name] += v
        for name, v in data["calls"].items():
            self.calls[name] += v
        for name, v in data["counts"].items():
            self.counts[name] += v
        for name, v in data["maxima"].items():
            self.maxima[name] = max(self.maxima[name], v)
        for parent, child, v in data["edges"]:
            if parent == "":
                parent = under
                self.self_s[under] -= v
            self.edge_s[(parent, child)] += v


# ---------------------------------------------------------------------------
# after-call hooks: counters measured where the work happens

def _cells(rec, args, result):
    rec.counts["meshgen.cells"] += getattr(result, "n_cells", 0)


def _file_bytes(counter, path_arg):
    def hook(rec, args, result):
        path = args[path_arg] if len(args) > path_arg else None
        if path is not None and os.path.exists(path):
            rec.counts[counter] += os.path.getsize(path)
    return hook


def _system_sizes(rec, args, result):
    rec.maxima["vem.n_dofs"] = max(rec.maxima["vem.n_dofs"], result.n_dofs)
    rec.maxima["vem.nnz_Ahat"] = max(rec.maxima["vem.nnz_Ahat"], result.Ahat.nnz)


def _gamma0_size(rec, args, result):
    system = args[0]
    rec.maxima["eig.m"] = max(rec.maxima["eig.m"], len(system.gamma0_dofs))


def _exit_code(rec, args, result):
    if result != 0:
        rec.counts["cli.nonzero_exits"] += 1


# (module, function, span, after-call hook, metric for the tracemalloc peak)
TARGETS = [
    ("steklovem.meshgen", "refine_lshape_corner", "meshgen.refine", _cells, None),
    ("steklovem.mesh", "build_mesh", "mesh.build_mesh", None, None),
    ("steklovem.mesh", "element_geometry", "mesh.element_geometry", None, None),
    ("steklovem.mesh", "quality_report", "mesh.quality_report", None, None),
    ("steklovem.mesh", "load_mesh_json", "mesh.load_json", None, None),
    ("steklovem.mesh", "save_mesh_json", "mesh.save_json",
     _file_bytes("mesh.json_bytes", 1), None),
    ("steklovem.vem", "assemble_global", "vem.assemble", _system_sizes, None),
    ("steklovem.vem", "local_operators", "vem.local_operators", None, None),
    ("steklovem.eig", "solve_steklov", "eig.solve", _gamma0_size,
     "eig.peak_traced_mb"),
    ("steklovem.analysis", "run_study", "analysis.run_study", None, None),
    ("steklovem.cli", "main", "cli.main", _exit_code, None),
    ("steklovem.vtkio", "write_vtk", "vtkio.write_vtk",
     _file_bytes("vtkio.bytes", 1), None),
]


def _wrap(rec, span, fn, hook, memory_metric):
    def wrapper(*args, **kwargs):
        started = memory_metric is not None and not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            result = rec.run(span, fn, *args, **kwargs)
        finally:
            if started:
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                rec.maxima[memory_metric] = max(rec.maxima[memory_metric], peak_mb)
        if hook is not None:
            hook(rec, args, result)
        return result
    return wrapper


@contextlib.contextmanager
def patched(rec: Recorder):
    """Route steklovem's layer entry points through ``rec`` for the block."""
    for modname in {t[0] for t in TARGETS}:
        importlib.import_module(modname)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "steklovem" or name.startswith("steklovem."))]
    undo = []

    def rebind(orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((setattr, mod, attr, orig))
                    setattr(mod, attr, wrapper)

    try:
        for modname, fname, span, hook, memory in TARGETS:
            orig = getattr(sys.modules[modname], fname, None)
            if orig is None:
                rec.missing.add(f"{modname}.{fname}")
                continue
            rebind(orig, _wrap(rec, span, orig, hook, memory))

        # the registry dict is shared by meshgen, analysis and the CLI
        families = getattr(sys.modules.get("steklovem.meshgen"), "FAMILIES", {})
        for key, orig in list(families.items()):
            undo.append((dict.__setitem__, families, key, orig))
            families[key] = _wrap(rec, "meshgen.generate", orig, _cells, None)

        mesh_cls = getattr(sys.modules.get("steklovem.mesh"), "PolygonalMesh", None)
        geometry = vars(mesh_cls).get("geometry") if mesh_cls else None
        if geometry is not None:
            def counted_geometry(self, cell):
                rec.counts["mesh.geometry.calls"] += 1
                return geometry(self, cell)
            undo.append((setattr, mesh_cls, "geometry", geometry))
            mesh_cls.geometry = counted_geometry
        else:
            rec.missing.add("steklovem.mesh.PolygonalMesh.geometry")
        yield rec
    finally:
        for restore, obj, key, orig in reversed(undo):
            restore(obj, key, orig)
