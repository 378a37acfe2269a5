"""Command-line interface: mesh generation, solving, convergence studies.

Exit codes: 0 success, 1 I/O failure (``OSError``), 2 invalid input or mesh
validation failure (``MeshError``, ``ValueError``), 3 solver or study failure
(``SolverError``, ``AnalysisError``).  The commands run straight through:
:func:`main` alone turns an exception into its exit code and a message on
stderr.

Only the numpy layers are imported at the top: ``mesh`` and ``check-mesh``
never load scipy, which ``solve`` and ``study`` import with the assembly and
the eigensolver.
"""

from __future__ import annotations

import argparse
import sys

from . import meshgen, vtkio
from .errors import AnalysisError, MeshError, SolverError
from .mesh import load_mesh_json, quality_report, save_mesh_json


def _generate(args):
    family, domain = args.family, meshgen.FAMILY_DOMAIN[args.family]
    if args.domain and domain != args.domain:
        raise MeshError(f"family {family} belongs to domain {domain}, not {args.domain}")
    levels = args.refine_level or 0
    if levels < 0 or (levels > 0 and domain != "lshape"):
        raise MeshError(f"--refine-level {levels}: corner refinement takes a level "
                        ">= 0 and applies to family t6 only")
    N = 8 if args.N is None else args.N
    mesh = meshgen.FAMILIES[family](N)
    for level in range(1, levels + 1):
        mesh = meshgen.refine_lshape_corner(mesh, level, N)
    return mesh


def _print_quality(mesh, header):
    """Print ``header`` and the two quality ratios of ``mesh``; return its
    quality report."""
    report = quality_report(mesh)
    print(header)
    print(f"min star ratio: {report.min_star_ratio:.6g}")
    print(f"min edge ratio: {report.global_min_edge_ratio:.6g}")
    return report


def cmd_mesh(args) -> int:
    mesh = _generate(args)
    _print_quality(mesh, f"vertices: {mesh.n_vertices}  cells: {mesh.n_cells}")
    if args.output:
        save_mesh_json(mesh, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_check_mesh(args) -> int:
    mesh = load_mesh_json(args.mesh_file)
    report = _print_quality(mesh, f"valid mesh: {mesh.n_vertices} vertices, {mesh.n_cells} cells")
    if report.empty_kernel_cells:
        print(f"non-star-shaped cells: {report.empty_kernel_cells}")
    return 0


def cmd_solve(args) -> int:
    from .eig import eigenfunction_field, solve_steklov
    from .vem import StabilizationSpec, assemble_global, export_coo

    mesh = load_mesh_json(args.mesh_file) if args.mesh_file else _generate(args)
    system = assemble_global(mesh, StabilizationSpec(alpha=args.alpha))
    if args.export_matrices:
        export_coo(system.A, args.export_matrices + ".A.txt")
        export_coo(system.B, args.export_matrices + ".B.txt")
    result = solve_steklov(system, args.k)
    for i, lam in enumerate(result.lambdas):
        print(f"lambda_{i + 1} = {lam:.10f}   residual {result.residuals[i]:.3e}")
    if args.vtk:
        fields = {f"mode_{i + 1}": eigenfunction_field(result, i)
                  for i in range(len(result.lambdas))}
        vtkio.write_vtk(mesh, args.vtk, point_data=fields,
                        title="steklov eigenfunctions")
        print(f"wrote {args.vtk}")
    return 0


def cmd_study(args) -> int:
    from . import analysis
    from .vem import StabilizationSpec

    if len(args.Ns) == 1:
        print("warning: single level, no order fit", file=sys.stderr)
    study = analysis.run_study(args.family, args.Ns, args.k, StabilizationSpec(alpha=args.alpha))
    md = analysis.study_to_markdown(study)
    print(md, end="")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(analysis.study_to_csv(study))
        print(f"wrote {args.csv}")
    if args.md:
        with open(args.md, "w") as fh:
            fh.write(md)
        print(f"wrote {args.md}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklovem",
        description="Lowest-order VEM solver for the Steklov (sloshing) "
                    "eigenproblem on polygonal meshes with small edges.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_flags(p):
        p.add_argument("--domain", choices=list(dict.fromkeys(meshgen.FAMILY_DOMAIN.values())))
        p.add_argument("--family", required=False,
                       choices=sorted(meshgen.FAMILIES), default=None)
        p.add_argument("--N", type=int, help="mesh level (default 8)")
        p.add_argument("--refine-level", type=int,
                       help="corner refinement sweeps (t6 only)")

    p_mesh = sub.add_parser("mesh", help="generate a mesh and write JSON")
    add_gen_flags(p_mesh)
    p_mesh.add_argument("-o", "--output")
    p_mesh.set_defaults(func=cmd_mesh)

    p_check = sub.add_parser("check-mesh", help="validate a JSON mesh file")
    p_check.add_argument("mesh_file")
    p_check.set_defaults(func=cmd_check_mesh)

    p_solve = sub.add_parser("solve", help="solve the eigenproblem")
    add_gen_flags(p_solve)
    p_solve.add_argument("--mesh-file", help="JSON mesh instead of a generator")
    p_solve.add_argument("--alpha", type=float, default=1.0)
    p_solve.add_argument("--k", type=int, default=6)
    p_solve.add_argument("--vtk", help="write eigenfunctions as legacy VTK")
    p_solve.add_argument("--export-matrices",
                         help="path prefix for coordinate-format matrix dumps")
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", help="convergence study over levels")
    p_study.add_argument("--family", required=True)
    p_study.add_argument("--Ns", type=int, nargs="+", required=True)
    p_study.add_argument("--alpha", type=float, default=1.0)
    p_study.add_argument("--k", type=int, default=6)
    p_study.add_argument("--csv", help="write full-precision CSV table")
    p_study.add_argument("--md", help="write Markdown table")
    p_study.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.mesh_file:
        given = [flag for flag, value in (("--family", args.family), ("--domain", args.domain),
                                          ("--N", args.N), ("--refine-level", args.refine_level))
                 if value is not None]
        if given:
            parser.error(f"--mesh-file cannot be combined with {', '.join(given)}")
    elif args.command in ("mesh", "solve") and args.family is None:
        parser.error(f"{args.command} requires --family")
    try:
        return args.func(args)
    except (SolverError, AnalysisError) as exc:
        print(f"{'study' if args.command == 'study' else 'solver'} failure: {exc}", file=sys.stderr)
        return 3
    except (MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
