"""Write reference.json: the outputs every benchmark repetition is gated on.

    python3 perfbench/make_reference.py

Run it only on a commit whose eigenvalues are known good; the stored
values were made on the commit that added the benchmark.  Eigenvalues
are computed in process at full precision, on the unpermuted mesh for
``sweep-t5`` and on the CLI's own JSON output for ``cli-lshape``.
"""

import json
import os
import shutil
import tempfile

import run  # pins the BLAS threads before numpy loads
import workloads as w


def main():
    from steklovem import eig, mesh, meshgen, vem

    ref = {"study-t2": w.study_run(None, None)}

    base = meshgen.FAMILIES[w.SWEEP_FAMILY](w.SWEEP_N)
    ref["sweep-t5"] = w.sweep_run(base, None)

    workdir = tempfile.mkdtemp(dir=run.ensure_workroot())
    try:
        paths = w.cli_prepare(0, workdir)
        out = w.cli_run(paths, None)
        for code, _, stderr in out["results"]:
            if code != 0:
                raise SystemExit(f"CLI failed with exit code {code}: {stderr}")
        system = vem.assemble_global(mesh.load_mesh_json(paths["json"]))
        ref["cli-lshape"] = {"lambdas": eig.solve_steklov(system, w.K).lambdas.tolist()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(w.HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    run.use_source_tree()
    main()
