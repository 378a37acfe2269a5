"""Command-line interface: plumbing, round trips, exit codes."""

import json

import numpy as np
import pytest

from steklovem import eig
from steklovem.cli import main
from steklovem.mesh import load_mesh_json


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


def test_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--domain", "square", "--family", "t9", "--N", "8"])
    assert exc.value.code == 2


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


def test_solve_backward_error_above_bound_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(eig, "_BACKWARD_ERROR_BOUND", 0.0)
    code, _, err = run_cli(capsys, "solve", "--family", "t1", "--N", "4",
                           "--k", "1")
    assert code == 3
    assert "backward error" in err


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


def test_solve_exports_matrices(capsys, tmp_path):
    prefix = tmp_path / "sys"
    code, _, _ = run_cli(capsys, "solve", "--family", "t1", "--N", "4",
                         "--k", "1", "--export-matrices", str(prefix))
    assert code == 0
    rows = np.loadtxt(str(prefix) + ".A.txt")
    assert rows.shape[1] == 3


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


def test_study_bad_levels_exit_2(capsys):
    code, _, _ = run_cli(capsys, "study", "--family", "t1",
                         "--Ns", "8", "4", "--k", "1")
    assert code == 2
