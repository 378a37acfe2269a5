"""Convergence studies: references, fitted orders, extrapolation, tables."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitDiverged, InsufficientLevels, InvalidN, NonPositiveError
from .eig import solve_steklov
from .meshgen import FAMILIES, FAMILY_DOMAIN
from .vem import StabilizationSpec, assemble_global

# regression anchor for the L-shape first eigenvalue (extrapolated from
# fine uniform meshes)
LSHAPE_LAMBDA1_REF = 0.77445049080
# extrapolate: relative step size that ends the fit, and the step budget
_FIT_XTOL = 1e-14
_FIT_MAX_STEPS = 200


def exact_square_eigenvalue(n: int) -> float:
    """n-th sloshing eigenvalue of the unit square: n pi tanh(n pi)."""
    if n < 1:
        raise InvalidN("mode index must be >= 1")
    return n * math.pi * math.tanh(n * math.pi)


def _fit_levels(fit: str, levels: int, hs, values):
    """``hs`` and ``values`` as float arrays.  Raises
    :class:`InsufficientLevels` for fewer than ``levels`` levels and
    :class:`NonPositiveError` for a mesh size that is not finite and
    positive; ``fit`` names the fit in the message."""
    hs, values = np.asarray(hs, dtype=float), np.asarray(values, dtype=float)
    if len(hs) < levels:
        raise InsufficientLevels(f"{fit} needs at least {levels} levels")
    if not np.all(np.isfinite(hs) & (hs > 0.0)):
        raise NonPositiveError(f"{fit} needs finite, strictly positive mesh sizes")
    return hs, values


def fit_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h) over all levels.

    Raises :class:`InsufficientLevels` for fewer than two levels,
    :class:`NonPositiveError` for a mesh size or an error that is not
    finite and positive, and :class:`FitDiverged` for fewer than two
    distinct mesh sizes, which leave the slope undetermined."""
    hs, errors = _fit_levels("order fit", 2, hs, errors)
    if not np.all(np.isfinite(errors) & (errors > 0.0)):
        raise NonPositiveError("order fit needs finite, strictly positive errors")
    if np.all(hs == hs[0]):
        raise FitDiverged("order fit needs two distinct mesh sizes")
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)


def extrapolate(hs, values) -> tuple[float, float, float]:
    """Fit values ~ limit + C h^alpha and return (limit, C, alpha).

    Initialized from the three finest levels (closed-form alpha plus a
    Richardson limit) and polished by damped Gauss-Newton iteration
    (Levenberg-Marquardt).  Each step solves (J^T J + mu D) dp = -J^T r,
    with D the largest diagonal of J^T J met so far, as in MINPACK.  A step
    that lowers the residual is taken and divides the damping mu by 10; any
    other step multiplies it by 10.  The fit ends once a step is below
    ``_FIT_XTOL`` relative to the parameters.  Raises :class:`FitDiverged`
    when the model cannot represent the data, e.g. a value that is not
    finite, a constant sequence or two of the three finest levels with the
    same h, or when the iteration does not converge within
    ``_FIT_MAX_STEPS`` steps, :class:`NonPositiveError` for a mesh size
    that is not finite and positive, and :class:`InsufficientLevels` for
    fewer than three levels.
    """
    hs, values = _fit_levels("extrapolation", 3, hs, values)
    if not np.all(np.isfinite(values)):
        raise FitDiverged("extrapolation needs finite values")
    order = np.argsort(-hs)          # coarse to fine
    hs, values = hs[order], values[order]
    if not hs[-3] > hs[-2] > hs[-1]:
        raise FitDiverged("the three finest levels need distinct mesh sizes")
    diffs = np.diff(values)
    if np.any(diffs > 0.0) and np.any(diffs < 0.0):
        warnings.warn("eigenvalue sequence is not monotone in h; "
                      "extrapolation may be unreliable")

    d1 = values[-2] - values[-3]
    d2 = values[-1] - values[-2]
    r = hs[-2] / hs[-1]
    if d2 == 0.0 or d1 / d2 <= 0.0:
        raise FitDiverged("successive differences do not decay geometrically")
    alpha0 = math.log(d1 / d2) / math.log(hs[-3] / hs[-2])
    alpha0 = min(max(alpha0, 0.1), 4.0)
    limit0 = values[-1] + d2 / (r ** alpha0 - 1.0)
    c0 = d2 / (hs[-2] ** alpha0 - hs[-1] ** alpha0)

    def residual(p):
        return p[0] + p[1] * hs ** p[2] - values

    p = np.array([limit0, c0, alpha0])
    res = residual(p)
    damping, scale = 1e-3, np.zeros(3)
    for _ in range(_FIT_MAX_STEPS):
        power = hs ** p[2]
        jac = np.column_stack((np.ones_like(hs), power, p[1] * power * np.log(hs)))
        normal = jac.T @ jac
        scale = np.maximum(scale, np.diag(normal))
        try:
            step = np.linalg.solve(normal + damping * np.diag(scale), -jac.T @ res)
        except np.linalg.LinAlgError:
            raise FitDiverged("nonlinear fit hit a singular Jacobian") from None
        # a trial that overflows has an inf or NaN norm, which never compares lower
        with np.errstate(over="ignore", invalid="ignore"):
            trial = residual(p + step)
            if trial @ trial < res @ res:
                p, res, damping = p + step, trial, damping / 10.0
            else:
                damping *= 10.0
        if np.linalg.norm(step) <= _FIT_XTOL * np.linalg.norm(p):
            lam, c, a = (float(v) for v in p)
            return lam, c, a
    raise FitDiverged("nonlinear fit did not converge")


@dataclass
class ConvergenceStudy:
    """Eigenvalues, errors and fitted rates over a refinement sequence."""

    family: str
    alpha: float
    Ns: list[int]
    hs: list[float]                       # max element diameter per level
    n_dofs: list[int]
    eigenvalues: np.ndarray               # (levels, k)
    references: np.ndarray                # (k,) exact or extrapolated
    errors: np.ndarray                    # (levels, k)
    orders: np.ndarray | None = None      # (k,), None for a single level
    extrapolated: list[tuple[float, float, float]] | None = None   # None: exact

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[1]


def run_study(family: str, Ns, k: int,
              spec: StabilizationSpec = StabilizationSpec()) -> ConvergenceStudy:
    """Generate, assemble and solve each level, then fit rates.

    The errors are taken against the analytic square sloshing spectrum for
    the families of the square domain (``meshgen.FAMILY_DOMAIN``), and
    against each eigenvalue extrapolated from the study's own levels
    otherwise.
    """
    Ns = list(Ns)
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise InvalidN("refinement levels must be strictly increasing")
    if k < 1:
        raise InvalidN("need at least one eigenvalue")
    if family not in FAMILIES:
        raise InvalidN(f"unknown mesh family {family!r}")

    hs, dofs, eigs = [], [], []
    for N in Ns:
        mesh = FAMILIES[family](N)
        system = assemble_global(mesh, spec)
        result = solve_steklov(system, k)
        hs.append(mesh.max_diameter())
        dofs.append(mesh.n_vertices)
        eigs.append(result.lambdas)
    eigenvalues = np.asarray(eigs)

    extrapolated = None
    if FAMILY_DOMAIN[family] == "square":
        refs = np.array([exact_square_eigenvalue(i + 1) for i in range(k)])
    else:
        extrapolated = []
        for column in eigenvalues.T:
            try:
                extrapolated.append(extrapolate(hs, column))
            except (FitDiverged, InsufficientLevels):
                extrapolated.append((float(column[-1]), float("nan"), float("nan")))
        refs = np.array([fit[0] for fit in extrapolated])

    errors = np.abs(eigenvalues - refs[None, :])
    orders = None
    if len(Ns) >= 2:
        orders = np.array([fit_order(hs, err) if np.all(err > 0) else float("nan")
                           for err in errors.T])
    return ConvergenceStudy(family=family, alpha=spec.alpha, Ns=Ns, hs=hs, n_dofs=dofs,
                            eigenvalues=eigenvalues, references=refs, errors=errors,
                            orders=orders, extrapolated=extrapolated)


# ---------------------------------------------------------------------------
# table emitters

def _table_rows(study: ConvergenceStudy, h_format: str, lambda_format: str,
                order_format: str, extrap_label: str) -> list[list[str]]:
    """The study table's cells row by row: the header, one row per level, the
    order row when there are two levels or more, and the reference row."""
    rows = [["N", "h", "dofs"] + [f"lambda_{i + 1}" for i in range(study.k)]]
    rows += [[str(N), format(h, h_format), str(dofs)] + [format(v, lambda_format) for v in lams]
             for N, h, dofs, lams in zip(study.Ns, study.hs, study.n_dofs, study.eigenvalues)]
    if study.orders is not None:
        rows.append(["Order", "", ""] + [format(o, order_format) for o in study.orders])
    label = extrap_label if study.extrapolated is not None else "Exact"
    rows.append([label, "", ""] + [format(r, lambda_format) for r in study.references])
    return rows


def study_to_markdown(study: ConvergenceStudy) -> str:
    lines = ["| " + " | ".join(cells) + " |"
             for cells in _table_rows(study, ".6g", ".4f", ".2f", "Extrap.")]
    lines.insert(1, "|" + "---|" * (study.k + 3))
    return "\n".join(lines) + "\n"


def study_to_csv(study: ConvergenceStudy) -> str:
    return "".join(",".join(cells) + "\n"
                   for cells in _table_rows(study, ".17g", ".17g", ".17g", "Extrap"))
