"""Command-line interface: plumbing, round trips, exit codes."""

import ast
import copy
import functools
import hashlib
import importlib
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps

import steklovem
from steklovem import eig
from steklovem.cli import main
from steklovem.mesh import load_mesh_json, mesh_from_dict, mesh_to_dict, save_mesh_json
from steklovem.meshgen import FAMILIES
from steklovem.vem import StabilizationSpec, assemble_global
from steklovem.vtkio import write_vtk


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# mesh generation


def test_mesh_writes_valid_json(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, out, _ = run_cli(capsys, "mesh", "--domain", "square",
                           "--family", "t2", "--N", "8", "-o", str(path))
    assert code == 0
    mesh = load_mesh_json(path)      # re-validates through build_mesh
    assert mesh.n_cells > 0
    assert "min edge ratio" in out


def test_mesh_reports_lshape_dof_count(capsys):
    code, out, _ = run_cli(capsys, "mesh", "--domain", "lshape",
                           "--family", "t6", "--N", "32")
    assert code == 0
    assert "vertices: 833" in out


def test_mesh_level_defaults_to_8(capsys):
    code, default, _ = run_cli(capsys, "mesh", "--family", "t6")
    assert code == 0
    assert default == run_cli(capsys, "mesh", "--family", "t6", "--N", "8")[1]
    assert default != run_cli(capsys, "mesh", "--family", "t6", "--N", "4")[1]


def test_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--domain", "square", "--family", "t9", "--N", "8"])
    assert exc.value.code == 2


def test_mesh_without_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--N", "8"])
    assert exc.value.code == 2
    assert "mesh requires --family" in capsys.readouterr().err


def test_family_domain_mismatch_exits_2(capsys):
    code, _, err = run_cli(capsys, "mesh", "--domain", "lshape",
                           "--family", "t2", "--N", "8")
    assert code == 2
    assert "lshape" in err


# ---------------------------------------------------------------------------
# check-mesh


def test_check_mesh_valid_and_invalid(capsys, tmp_path):
    path = tmp_path / "m.json"
    run_cli(capsys, "mesh", "--family", "t1", "--N", "4", "-o", str(path))
    code, out, _ = run_cli(capsys, "check-mesh", str(path))
    assert code == 0
    assert "valid mesh" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "cells": [[0, 1, 2, 3]],
        "boundary": [],
    }))
    code, _, err = run_cli(capsys, "check-mesh", str(bad))
    assert code == 2

    code, _, err = run_cli(capsys, "check-mesh", str(tmp_path / "none.json"))
    assert code == 1


def test_check_mesh_reports_non_star_shaped_cells(capsys, tmp_path):
    # one staircase cell, whose kernel is empty
    verts = [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 2], [0, 2]]
    path = tmp_path / "stair.json"
    path.write_text(json.dumps({"vertices": verts, "cells": [list(range(8))],
                                "boundary": [[i, (i + 1) % 8, "gamma0"] for i in range(8)]}))
    code, out, _ = run_cli(capsys, "check-mesh", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "non-star-shaped cells: [0]"


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
SQUARE_BOUNDARY = [[0, 1, "gamma1"], [1, 2, "gamma1"], [2, 3, "gamma0"], [3, 0, "gamma1"]]
INVALID_INPUTS = {
    "fractional_index": {"vertices": SQUARE, "cells": [[0, 1, 2, 3.7]],
                         "boundary": SQUARE_BOUNDARY},
    "string_cycle": {"vertices": SQUARE, "cells": ["0123"], "boundary": SQUARE_BOUNDARY},
    "number_for_a_cycle": {"vertices": SQUARE, "cells": [[0, 1, 2, 3], 7],
                           "boundary": SQUARE_BOUNDARY},
    "fractional_boundary_index": {"vertices": SQUARE, "cells": [[0, 1, 2, 3]],
                                  "boundary": [[0, 1.9, "gamma1"]] + SQUARE_BOUNDARY[1:]},
    "collinear_triangle": {"vertices": [[0, 0], [0.03, 0.27], [0.07, 0.63]],
                           "cells": [[0, 1, 2]],
                           "boundary": [[0, 1, "gamma0"], [1, 2, "gamma0"],
                                        [2, 0, "gamma0"]]},
    "boundary_entry_with_fourth_field": {
        "vertices": SQUARE, "cells": [[0, 1, 2, 3]],
        "boundary": SQUARE_BOUNDARY[:3] + [[3, 0, "gamma1", "gamma0"]]},
    "boundary_entry_with_two_fields": {"vertices": SQUARE, "cells": [[0, 1, 2, 3]],
                                       "boundary": [[0, 1]] + SQUARE_BOUNDARY[1:]},
    # not iterable: a number for the cells once escaped as a TypeError
    "number_for_the_cells": {"vertices": SQUARE, "cells": 0.5, "boundary": SQUARE_BOUNDARY},
    "null_for_the_vertices": {"vertices": None, "cells": [[0, 1, 2, 3]],
                              "boundary": SQUARE_BOUNDARY},
    "orphan_vertex": {"vertices": SQUARE + [[5, 5]], "cells": [[0, 1, 2, 3]],
                      "boundary": SQUARE_BOUNDARY},
    # a hanging node in one incident cell only, its interface declared boundary
    "hanging_node_with_declared_interface": {
        "vertices": SQUARE + [[2, 0], [2, 1], [1, 0.5]],
        "cells": [[0, 1, 6, 2, 3], [1, 4, 5, 2]],
        "boundary": [[0, 1, "gamma0"], [1, 4, "gamma0"], [4, 5, "gamma0"], [5, 2, "gamma0"],
                     [2, 3, "gamma0"], [3, 0, "gamma0"], [1, 6, "gamma1"], [6, 2, "gamma1"],
                     [1, 2, "gamma1"]]},
    "part_without_gamma0": {
        "vertices": SQUARE + [[2, 0], [3, 0], [3, 1], [2, 1]],
        "cells": [[0, 1, 2, 3], [4, 5, 6, 7]],
        "boundary": SQUARE_BOUNDARY + [[4, 5, "gamma1"], [5, 6, "gamma1"],
                                       [6, 7, "gamma1"], [7, 4, "gamma1"]]},
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_mesh_file_exits_2(capsys, tmp_path, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(INVALID_INPUTS[case]))
    code, out, err = run_cli(capsys, "check-mesh", str(path))
    assert code == 2
    assert "valid mesh" not in out
    assert err.startswith("error: ")
    code, out, _ = run_cli(capsys, "solve", "--mesh-file", str(path), "--k", "1")
    assert code == 2
    assert "lambda" not in out


def test_malformed_coordinate_exits_2_without_traceback(tmp_path):
    # numpy's float conversion raises TypeError on a coordinate {}; the
    # command must turn it into an error line and exit 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, {}], [1, 1], [0, 1]],
                                "cells": [[0, 1, 2, 3]], "boundary": SQUARE_BOUNDARY}))
    child = run_child("-m", "steklovem.cli", "check-mesh", str(path), check=False)
    assert child.returncode == 2
    assert child.stderr.startswith("error: ")
    assert "Traceback" not in child.stderr


# what a mutation may write in place of a JSON node
MUTANTS = [None, True, False, math.inf, -math.inf, math.nan, 10**400, -(10**400), 2**63, -1, 0,
           1, 0.25, 0.5, 3.7, "", "1", "x", "gamma0", "gamma1", [], {}, [0], [0, 1, 2]]


def json_paths(tree, path=()):
    """The path of every node below the root of a JSON tree, depth first."""
    items = enumerate(tree) if isinstance(tree, list) else (
        tree.items() if isinstance(tree, dict) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutate(tree, rng):
    """A copy of ``tree`` with 1-3 nodes replaced, deleted or duplicated."""
    tree = copy.deepcopy(tree)
    for _ in range(rng.randint(1, 3)):
        paths = list(json_paths(tree))
        if not paths:
            break
        *up, key = rng.choice(paths)
        parent = functools.reduce(operator.getitem, up, tree)
        op = rng.choice(("replace", "delete", "duplicate"))
        if op == "delete":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(rng.choice(MUTANTS))
    return tree


def run_mutant(capsys, path, text):
    """Run one mutated file through both file commands; return their exit codes.

    Each exits 0 or 2, exit 2 writes ``error:`` first, and a file
    ``check-mesh`` accepts loads to the same mesh as its round trip."""
    path.write_text(text)
    codes = []
    for argv in (["check-mesh", str(path)], ["solve", "--mesh-file", str(path), "--k", "1"]):
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv[0], text, err)
        assert code == 0 or err.startswith("error:"), (text, err)
        codes.append(code)
    if codes[0] == 0:
        mesh = load_mesh_json(path)
        again = mesh_from_dict(mesh_to_dict(mesh))
        assert np.array_equal(mesh.vertices, again.vertices), text
        assert mesh.cells == again.cells, text
        assert mesh.boundary_edges == again.boundary_edges, text
    return codes


def test_mutated_mesh_files_exit_0_or_2(capsys, tmp_path):
    # 300 seeded mutations of two small meshes through both file commands
    rng = random.Random(14)
    for family in ("t1", "t6"):
        base = mesh_to_dict(FAMILIES[family](2))
        for index in range(150):
            run_mutant(capsys, tmp_path / "mutant.json", json.dumps(mutate(base, rng)))


def mutate_valid(tree, rng):
    """A copy of ``tree`` with one cell cycle rotated or reversed, or one
    boundary entry's ``(i, j)`` reversed or its marker swapped: edits a valid
    file survives, bar a marker swap that leaves a part without gamma0."""
    tree = copy.deepcopy(tree)
    op = rng.choice(("rotate", "reverse", "flip", "swap"))
    if op == "rotate":
        cycle = rng.choice(tree["cells"])
        k = rng.randrange(1, len(cycle))
        cycle[:] = cycle[k:] + cycle[:k]
    elif op == "reverse":
        rng.choice(tree["cells"]).reverse()
    else:
        entry = rng.choice(tree["boundary"])
        if op == "flip":
            entry[:2] = entry[1::-1]
        else:
            entry[2] = "gamma1" if entry[2] == "gamma0" else "gamma0"
    return tree


def test_valid_mutations_are_accepted_and_round_trip(capsys, tmp_path):
    # 150 seeded edits that keep a file valid, so the round-trip clause of
    # run_mutant checks many meshes, not the one or two a random edit leaves
    rng = random.Random(15)
    accepted = 0
    for family in ("t1", "t6"):
        base = mesh_to_dict(FAMILIES[family](2))
        for _ in range(75):
            codes = run_mutant(capsys, tmp_path / "mutant.json", json.dumps(mutate_valid(base, rng)))
            accepted += codes[0] == 0
    assert accepted >= 100


@pytest.mark.parametrize("argv", [["--family", "t2", "--N", "8", "--refine-level", "1"],
                                  ["--family", "t6", "--N", "8", "--refine-level", "-2"],
                                  ["--family", "t1", "--N", "4", "--refine-level", "-1"]])
def test_refine_level_outside_t6_or_negative_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "m.json"
    code, out, err = run_cli(capsys, "mesh", *argv, "-o", str(path))
    assert code == 2
    assert "--refine-level" in err
    assert not path.exists()
    code, _, _ = run_cli(capsys, "solve", *argv)
    assert code == 2


def test_refine_level_on_t6_still_refines(capsys):
    code, out, _ = run_cli(capsys, "mesh", "--family", "t6", "--N", "8",
                           "--refine-level", "1")
    assert code == 0
    _, plain, _ = run_cli(capsys, "mesh", "--family", "t6", "--N", "8")
    assert out != plain


def test_solve_mesh_file_rejects_generator_flags(capsys, tmp_path):
    path = tmp_path / "m.json"
    save_mesh_json(FAMILIES["t6"](4), path)
    for flags in (["--family", "t6"], ["--domain", "lshape"], ["--N", "16"],
                  ["--N", "8"], ["--refine-level", "-4"], ["--refine-level", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--mesh-file", str(path), *flags, "--k", "1"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert f"--mesh-file cannot be combined with {flags[0]}" in err
    code, out, _ = run_cli(capsys, "solve", "--mesh-file", str(path), "--k", "1")
    assert code == 0
    assert "lambda_1" in out


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_eigenvalues(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "t1", "--N", "8",
                           "--k", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("lambda_")]
    assert len(lines) == 2
    # the residual column is the scale-free backward error
    assert all(float(l.split()[-1]) <= 1e-10 for l in lines)


def test_solve_alpha_is_threaded(capsys):
    _, out_a, _ = run_cli(capsys, "solve", "--family", "t2", "--N", "4",
                          "--k", "1")
    _, out_b, _ = run_cli(capsys, "solve", "--family", "t2", "--N", "4",
                          "--k", "1", "--alpha", "1.5")
    assert out_a != out_b


def test_solve_k_too_large_exits_3(capsys):
    code, _, err = run_cli(capsys, "solve", "--family", "t1", "--N", "2",
                           "--k", "50")
    assert code == 3
    assert "50" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_solve_k_below_one_exits_2(capsys, tmp_path, k):
    vtk = tmp_path / "modes.vtk"
    code, out, err = run_cli(capsys, "solve", "--family", "t1", "--N", "4",
                             "--k", k, "--vtk", str(vtk))
    assert code == 2
    assert "need at least one eigenvalue" in err
    assert "lambda_" not in out
    assert not vtk.exists()


def test_solve_backward_error_above_bound_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(eig, "_BACKWARD_ERROR_BOUND", 0.0)
    code, _, err = run_cli(capsys, "solve", "--family", "t1", "--N", "4",
                           "--k", "1")
    assert code == 3
    assert "backward error" in err


def test_solve_factorization_out_of_memory_exits_3(capsys, monkeypatch):
    def failing_splu(*args, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for expanders")

    monkeypatch.setattr(eig.spla, "splu", failing_splu)
    code, _, err = run_cli(capsys, "solve", "--family", "t1", "--N", "4",
                           "--k", "1")
    assert code == 3
    assert "ran out of memory" in err and "SPD" not in err


def test_solve_round_trip_bitwise(capsys, tmp_path):
    path = tmp_path / "m.json"
    run_cli(capsys, "mesh", "--family", "t2", "--N", "8", "-o", str(path))
    _, direct, _ = run_cli(capsys, "solve", "--family", "t2", "--N", "8",
                           "--k", "3")
    _, from_file, _ = run_cli(capsys, "solve", "--mesh-file", str(path),
                              "--k", "3")
    direct_lines = [l for l in direct.splitlines() if l.startswith("lambda")]
    file_lines = [l for l in from_file.splitlines() if l.startswith("lambda")]
    assert direct_lines == file_lines


def test_solve_writes_vtk(capsys, tmp_path):
    vtk = tmp_path / "modes.vtk"
    code, _, _ = run_cli(capsys, "solve", "--family", "t6", "--N", "8",
                         "--k", "2", "--vtk", str(vtk))
    assert code == 0
    text = vtk.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "POINT_DATA" in text
    assert "SCALARS mode_1 double 1" in text


def test_write_vtk_rejects_wrong_length_field(tmp_path):
    mesh = FAMILIES["t6"](2)
    vtk = tmp_path / "modes.vtk"
    with pytest.raises(ValueError, match="wrong length"):
        write_vtk(mesh, vtk, {"mode_1": np.zeros(mesh.n_vertices - 1)})
    assert not vtk.exists()


def test_solve_vtk_output_pinned(capsys, tmp_path):
    # SHA-256 of the whole file: a faster writer must keep every coordinate and
    # mode value in the same .17g text.  Re-pinned when the LU moved to the
    # (y, x) dof order: the geometry lines stayed byte for byte, and the mode
    # values moved by at most 1.6e-15
    vtk = tmp_path / "modes.vtk"
    code, _, _ = run_cli(capsys, "solve", "--family", "t6", "--N", "8",
                         "--k", "2", "--vtk", str(vtk))
    assert code == 0
    assert hashlib.sha256(vtk.read_bytes()).hexdigest() == (
        "3de12aa60672dca0cba3d5107ffd3998a3b42a1cdcb9143b1b206facd2075f21")


def test_solve_exports_matrices(capsys, tmp_path):
    # t5 N=10 has couplings whose cell contributions cancel exactly: the
    # dump holds the nonzero entries only
    for family, N in (("t1", 4), ("t5", 10)):
        prefix = tmp_path / f"{family}-{N}"
        code, _, _ = run_cli(capsys, "solve", "--family", family, "--N", str(N),
                             "--k", "1", "--export-matrices", str(prefix))
        assert code == 0
        system = assemble_global(FAMILIES[family](N), StabilizationSpec())
        for name in ("A", "B"):
            rows, cols, values = np.loadtxt(f"{prefix}.{name}.txt", ndmin=2).T
            assert np.all(values != 0.0), (family, name)
            dump = sps.coo_matrix((values, (rows.astype(int), cols.astype(int))),
                                  shape=(system.n_dofs, system.n_dofs))
            # %.17g round-trips every double, so the dump is the matrix exactly
            assert np.array_equal(dump.toarray(),
                                  getattr(system, name).toarray()), (family, name)


# ---------------------------------------------------------------------------
# study


def test_study_emits_tables(capsys, tmp_path):
    csv = tmp_path / "study.csv"
    md = tmp_path / "study.md"
    code, out, _ = run_cli(capsys, "study", "--family", "t1",
                           "--Ns", "4", "8", "--k", "2",
                           "--csv", str(csv), "--md", str(md))
    assert code == 0
    assert "| Order |" in out
    assert "| Exact |" in out
    assert csv.read_text().startswith("N,h,dofs,lambda_1,lambda_2")
    assert md.read_text().splitlines()[0].startswith("| N | h | dofs |")


def test_study_extrap_row_for_singular_domain(capsys):
    code, out, _ = run_cli(capsys, "study", "--family", "t3",
                           "--Ns", "4", "8", "16", "--k", "1")
    assert code == 0
    assert "| Extrap. |" in out


def test_study_single_level_warns(capsys):
    code, out, err = run_cli(capsys, "study", "--family", "t1",
                             "--Ns", "8", "--k", "1")
    assert code == 0
    assert "single level" in err


def test_study_k_too_large_exits_3(capsys):
    code, out, err = run_cli(capsys, "study", "--family", "t2", "--Ns", "4", "--k", "80")
    assert code == 3
    assert err.splitlines()[-1].startswith("study failure: k = 80 exceeds ")
    assert out == ""


def test_study_backward_error_above_bound_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(eig, "_BACKWARD_ERROR_BOUND", 0.0)
    code, out, err = run_cli(capsys, "study", "--family", "t1", "--Ns", "4", "8", "--k", "1")
    assert code == 3
    assert err.startswith("study failure: backward error ")
    assert out == ""


def test_study_bad_levels_exit_2(capsys):
    code, _, _ = run_cli(capsys, "study", "--family", "t1",
                         "--Ns", "8", "4", "--k", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# import cost


def run_child(*argv, check=True):
    """``python *argv`` run in a fresh interpreter that imports this package."""
    package = Path(steklovem.__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(package.parent), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=check, timeout=120)


def run_probe(code):
    """Stdout of ``code`` run in a fresh interpreter that imports this package."""
    return run_child("-c", code).stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_package_never_imports_scipy_optimize():
    # every CLI process pays for what the package imports
    probe = "import sys, steklovem, steklovem.cli; print('scipy.optimize' in sys.modules)"
    assert run_probe(probe).strip() == "False"
    package = Path(steklovem.__file__).parent
    for path in package.rglob("*.py"):
        text = path.read_text()
        assert not re.search(r"\b(linprog|least_squares)\b", text), path
        assert not re.search(r"^\s*(from|import) scipy\.(spatial|sparse\.csgraph)\b",
                             text, re.MULTILINE), path


def test_package_import_loads_no_scipy():
    assert run_probe(f"import sys, steklovem; print({SCIPY_MODULES})").strip() == "[]"


@pytest.fixture
def lshape_json(tmp_path):
    path = tmp_path / "lshape.json"
    save_mesh_json(FAMILIES["t6"](4), path)
    return path


def run_cli_probe(argv):
    """Exit code and the scipy modules loaded by one CLI run in a fresh process."""
    out = run_probe("import json, sys; from steklovem.cli import main; "
                    f"code = main({[str(a) for a in argv]!r}); "
                    f"print(json.dumps([code, {SCIPY_MODULES}]))")
    code, loaded = json.loads(out.splitlines()[-1])
    return code, loaded


@pytest.mark.parametrize("command", ["mesh", "check-mesh"])
def test_mesh_commands_load_no_scipy(tmp_path, lshape_json, command):
    argv = {"mesh": ["mesh", "--family", "t6", "--N", "4", "--refine-level", "1",
                     "-o", tmp_path / "out.json"],
            "check-mesh": ["check-mesh", lshape_json]}[command]
    assert run_cli_probe(argv) == (0, [])


def test_solve_loads_no_kd_tree_or_graph_module(tmp_path, lshape_json):
    code, loaded = run_cli_probe(["solve", "--mesh-file", lshape_json, "--k", "2",
                                  "--vtk", tmp_path / "modes.vtk"])
    assert code == 0
    assert "scipy.sparse.linalg" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.spatial", "scipy.sparse.csgraph"))]


# the public package namespace, by defining module
EXPORTS = {
    "analysis": ["ConvergenceStudy", "exact_square_eigenvalue", "extrapolate", "fit_order",
                 "run_study"],
    "eig": ["EigenResult", "dense_reference_solve", "eigenfunction_field", "solve_steklov"],
    "mesh": ["GAMMA0", "GAMMA1", "MeshQualityReport", "PolygonalMesh", "build_mesh",
             "load_mesh_json", "quality_report", "save_mesh_json"],
    "meshgen": ["FAMILIES", "gen_lshape_uniform", "gen_rotated_t", "gen_square_glued",
                "gen_square_perturbed_triangles", "refine_lshape_corner"],
    "vem": ["GlobalSystem", "StabilizationSpec", "assemble_global", "boundary_mass_edge",
            "triple_norm"],
}


def test_lazy_namespace_resolves_every_export():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(steklovem.__all__) == sorted(names)
    assert set(names) <= set(dir(steklovem))
    for module, exported in EXPORTS.items():
        source = importlib.import_module(f"steklovem.{module}")
        for name in exported:
            assert getattr(steklovem, name) is getattr(source, name)
            scope = {}
            exec(f"from steklovem import {name}", scope)
            assert scope[name] is getattr(source, name)
    assert steklovem.__version__ == "0.1.0"
    from steklovem import analysis
    assert analysis is importlib.import_module("steklovem.analysis")
    with pytest.raises(AttributeError):
        getattr(steklovem, "no_such_name")
    with pytest.raises(ImportError):
        exec("from steklovem import no_such_name", {})


# public names the package keeps without a caller in src/, each with its reason
UNCALLED_ALLOWED = {
    "dense_reference_solve": "the one dense oracle the sparse solver is checked against",
    "triple_norm": "the energy norm of the discrete-norm error study (ROADMAP item 7)",
}


def test_every_public_definition_has_a_caller_in_src():
    # a name counts as used when a Name or Attribute node anywhere in src/
    # reads it; the export table's strings and docstrings do not count
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(steklovem.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = (ast.FunctionDef, ast.ClassDef)
    labels = []      # module.name and module.Class.method
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, defs):
                labels.append(f"{module}.{node.name}")
                labels += [f"{module}.{node.name}.{m.name}" for m in node.body
                           if isinstance(node, ast.ClassDef) and isinstance(m, defs)]
    names = {label: label.rsplit(".", 1)[1] for label in labels}
    assert [label for label, name in names.items() if not name.startswith("_")
            and name not in used and name not in UNCALLED_ALLOWED] == []
