"""Lowest-order virtual element solver for the Steklov eigenproblem on
polygonal meshes that tolerate arbitrarily small edges.

The package namespace is lazy (PEP 562): ``steklovem.X`` and ``from
steklovem import X`` import the module that defines ``X`` on first use, so a
process loads only the layers it runs.  Mesh generation, validation and I/O
(:mod:`~steklovem.mesh`, :mod:`~steklovem.meshgen`, :mod:`~steklovem.vtkio`)
need only numpy; scipy loads with the assembly (:mod:`~steklovem.vem`) and
the eigensolver (:mod:`~steklovem.eig`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("ConvergenceStudy", "exact_square_eigenvalue", "extrapolate",
                 "fit_order", "run_study"),
    "eig": ("EigenResult", "eigenfunction_field", "solve_steklov"),
    "mesh": ("GAMMA0", "GAMMA1", "MeshQualityReport", "PolygonalMesh", "build_mesh",
             "load_mesh_json", "quality_report", "save_mesh_json"),
    "meshgen": ("FAMILIES", "gen_lshape_uniform", "gen_rotated_t", "gen_square_glued",
                "gen_square_perturbed_triangles", "refine_lshape_corner"),
    "vem": ("GlobalSystem", "StabilizationSpec", "assemble_global", "boundary_mass_edge",
            "triple_norm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not cached: the attribute always reads the defining module's current value
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
