"""Convergence machinery: references, order fits, extrapolation, studies."""

import math
import warnings

import numpy as np
import pytest

from steklovem.analysis import (
    LSHAPE_LAMBDA1_REF,
    ConvergenceStudy,
    exact_square_eigenvalue,
    extrapolate,
    fit_order,
    run_study,
    study_to_csv,
    study_to_markdown,
)
from steklovem.errors import (
    FitDiverged,
    InsufficientLevels,
    InvalidN,
    NonPositiveError,
)


# ---------------------------------------------------------------------------
# exact sloshing spectrum


def test_exact_values_match_published_table():
    assert exact_square_eigenvalue(1) == pytest.approx(3.1299, abs=5e-5)
    assert exact_square_eigenvalue(2) == pytest.approx(6.2831, abs=5e-5)
    assert exact_square_eigenvalue(6) == pytest.approx(18.8496, abs=5e-5)


def test_exact_values_saturate_to_n_pi():
    assert exact_square_eigenvalue(20) == pytest.approx(20.0 * math.pi,
                                                        abs=1e-10)


def test_exact_value_rejects_bad_index():
    with pytest.raises(InvalidN):
        exact_square_eigenvalue(0)


# ---------------------------------------------------------------------------
# order fitting


def test_fit_order_exact_power_law():
    hs = np.array([1 / 8, 1 / 16, 1 / 32])
    assert fit_order(hs, 7.0 * hs ** 2) == pytest.approx(2.0, abs=1e-12)


def test_fit_order_published_glued_square_data():
    hs = 1.0 / np.array([8, 16, 32, 64])
    values = np.array([3.2422, 3.1572, 3.1366, 3.1316])
    errors = np.abs(values - exact_square_eigenvalue(1))
    assert fit_order(hs, errors) == pytest.approx(2.02, abs=0.05)


def test_fit_order_flat_errors():
    assert fit_order([0.1, 0.05], [1e-3, 1e-3]) == pytest.approx(0.0,
                                                                 abs=1e-12)


def test_fit_order_invariances():
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    errors = 3.0 * hs ** 1.7
    base = fit_order(hs, errors)
    assert fit_order(5.0 * hs, errors) == pytest.approx(base, abs=1e-10)
    assert fit_order(hs, 100.0 * errors) == pytest.approx(base, abs=1e-10)


def test_fit_order_error_paths():
    with pytest.raises(InsufficientLevels):
        fit_order([0.1], [1e-3])
    with pytest.raises(NonPositiveError):
        fit_order([0.1, 0.05], [1e-3, 0.0])


# ---------------------------------------------------------------------------
# extrapolation


def test_extrapolate_exact_model():
    hs = 1.0 / np.array([8, 16, 32, 64])
    lam, c, a = extrapolate(hs, 0.5 + 2.0 * hs ** 1.5)
    assert lam == pytest.approx(0.5, abs=1e-8)
    assert c == pytest.approx(2.0, abs=1e-6)
    assert a == pytest.approx(1.5, abs=1e-6)


def test_extrapolate_published_singular_domain_row():
    # published values are rounded to 4 decimals; the fit on the rounded
    # data lands at alpha ~ 1.45, limit 0.5131 (unrounded source: 1.41,
    # 0.5130)
    hs = 1.0 / np.array([16, 30, 62, 130])
    lam, _, a = extrapolate(hs, [0.5196, 0.5157, 0.5140, 0.5134])
    assert lam == pytest.approx(0.5130, abs=2e-3)
    assert 1.30 <= a <= 1.55


def test_extrapolate_round_trip_recovery():
    rng = np.random.default_rng(11)
    for _ in range(25):
        lam0 = rng.uniform(0.1, 10.0)
        c0 = rng.uniform(0.1, 5.0)
        a0 = rng.uniform(0.8, 2.2)
        levels = rng.integers(4, 7)
        hs = 0.25 * 2.0 ** -np.arange(levels)
        lam, c, a = extrapolate(hs, lam0 + c0 * hs ** a0)
        assert lam == pytest.approx(lam0, rel=1e-6)
        assert c == pytest.approx(c0, rel=1e-4)
        assert a == pytest.approx(a0, abs=1e-5)


def test_extrapolate_degenerate_input():
    with pytest.raises(FitDiverged):
        extrapolate([0.2, 0.1, 0.05], [1.0, 1.0, 1.0])
    # -log h has no best fit: the iteration runs off to alpha -> 0, C -> -inf
    hs = 0.25 * 2.0 ** -np.arange(4)
    with pytest.raises(FitDiverged, match="did not converge"):
        extrapolate(hs, -np.log(hs))
    with pytest.raises(InsufficientLevels):
        extrapolate([0.2, 0.1], [1.0, 0.9])


def test_extrapolate_warns_on_non_monotone_values():
    # 0.5 + 0.5 h with the coarsest of six levels put 1e-3 below the next:
    # the fit still converges, but the outlier moves its limit off 0.5
    hs = 0.4 * 2.0 ** -np.arange(6)
    values = 0.5 + 0.5 * hs
    values[0] = values[1] - 1e-3
    with pytest.warns(UserWarning, match="not monotone"):
        lam, _, _ = extrapolate(hs, values)
    assert abs(lam - 0.5) > 1e-2


@pytest.mark.parametrize("hs", [[0.3, 0.2, 0.2], [0.2, 0.2, 0.1], [0.4, 0.2, 0.1, 0.1]])
def test_extrapolate_rejects_tied_finest_sizes(hs):
    # geometric decay, so only the tie can stop the fit: equal sizes among
    # the three finest levels once divided by log(1) = 0 or by h^a - h^a = 0
    values = [0.56, 0.53, 0.52, 0.515][-len(hs):]
    with warnings.catch_warnings(), pytest.raises(FitDiverged, match="distinct mesh sizes"):
        warnings.simplefilter("error", RuntimeWarning)
        extrapolate(hs, values)


# ---------------------------------------------------------------------------
# studies


def test_run_study_square_uses_exact_reference():
    study = run_study("t1", [4, 8], 2)
    assert study.references[0] == pytest.approx(exact_square_eigenvalue(1))
    assert study.extrapolated is None
    assert study.errors.shape == (2, 2)
    assert np.all(study.errors >= 0.0)
    assert study.hs[0] > study.hs[1]


def test_run_study_singular_domain_extrapolates():
    study = run_study("t3", [4, 8, 16, 32], 1)
    assert study.extrapolated is not None
    lam, c, a = study.extrapolated[0]
    assert lam == pytest.approx(study.references[0])
    assert study.eigenvalues[-1, 0] > lam          # converges from above


def test_run_study_tied_levels_fall_back_to_finest():
    # t3 N = 9 and 10 have the same max element diameter
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        study = run_study("t3", [9, 10, 12], 1)
    assert study.hs[0] == study.hs[1] > study.hs[2]
    assert study.references[0] == study.eigenvalues[-1, 0]
    assert math.isnan(study.extrapolated[0][2])


def test_run_study_determinism():
    a = run_study("t2", [2, 4], 2)
    b = run_study("t2", [2, 4], 2)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    assert a.hs == b.hs


def test_run_study_validates_inputs():
    with pytest.raises(InvalidN):
        run_study("t1", [8, 4], 2)
    with pytest.raises(InvalidN):
        run_study("nope", [4, 8], 2)
    with pytest.raises(InvalidN):
        run_study("t1", [4, 8], 0)


def test_lshape_reference_constant_pinned():
    assert LSHAPE_LAMBDA1_REF == pytest.approx(0.77445049080, abs=1e-11)


# ---------------------------------------------------------------------------
# table emitters


def sample_study():
    return run_study("t1", [4, 8], 2)


def test_markdown_table_layout():
    md = study_to_markdown(sample_study())
    lines = md.strip().splitlines()
    assert lines[0].startswith("| N | h | dofs | lambda_1 | lambda_2 |")
    assert any(line.startswith("| Order |") for line in lines)
    assert any(line.startswith("| Exact |") for line in lines)


def test_csv_table_full_precision():
    study = sample_study()
    csv = study_to_csv(study)
    lines = csv.strip().splitlines()
    assert lines[0] == "N,h,dofs,lambda_1,lambda_2"
    first = lines[1].split(",")
    assert float(first[3]) == study.eigenvalues[0, 0]   # round-trips exactly


# the emitters' text, byte for byte: exact references, an extrapolated study
# whose fits fall back to the finest level (orders nan), a converging
# extrapolation, and a single level (no order row)
PINNED_TABLES = {
    ("t1", (4, 8), 2): (
        "| N | h | dofs | lambda_1 | lambda_2 |\n"
        "|---|---|---|---|---|\n"
        "| 4 | 0.320156 | 37 | 4.1264 | 14.1731 |\n"
        "| 8 | 0.163541 | 103 | 3.3984 | 8.3926 |\n"
        "| Order |  |  | 1.95 | 1.96 |\n"
        "| Exact |  |  | 3.1299 | 6.2831 |\n",
        "N,h,dofs,lambda_1,lambda_2\n"
        "4,0.3201562118716425,37,4.1263563797635889,14.173121630372004\n"
        "8,0.1635410621597698,103,3.3983808459856251,8.3926373196882231\n"
        "Order,,,1.952190661070101,1.9637582225416204\n"
        "Exact,,,3.1298810356317586,6.2831414840959052\n"),
    ("t3", (4, 5, 6), 2): (
        "| N | h | dofs | lambda_1 | lambda_2 |\n"
        "|---|---|---|---|---|\n"
        "| 4 | 0.353553 | 47 | 0.5484 | 1.4178 |\n"
        "| 5 | 0.23585 | 64 | 0.5413 | 1.3746 |\n"
        "| 6 | 0.235702 | 79 | 0.5380 | 1.3564 |\n"
        "| Order |  |  | nan | nan |\n"
        "| Extrap. |  |  | 0.5380 | 1.3564 |\n",
        "N,h,dofs,lambda_1,lambda_2\n"
        "4,0.35355339059327379,47,0.54841886204260959,1.4177784479449154\n"
        "5,0.23584952830141515,64,0.54132740036918303,1.3745714228144443\n"
        "6,0.23570226039551587,79,0.53800791829559391,1.356418064584338\n"
        "Order,,,nan,nan\n"
        "Extrap,,,0.53800791829559391,1.356418064584338\n"),
    ("t6", (4, 6, 8, 10), 2): (
        "| N | h | dofs | lambda_1 | lambda_2 |\n"
        "|---|---|---|---|---|\n"
        "| 4 | 0.353553 | 21 | 0.8821 | 1.7475 |\n"
        "| 6 | 0.235702 | 40 | 0.8447 | 1.6824 |\n"
        "| 8 | 0.176777 | 65 | 0.8241 | 1.6493 |\n"
        "| 10 | 0.141421 | 96 | 0.8118 | 1.6311 |\n"
        "| Order |  |  | 0.80 | 1.05 |\n"
        "| Extrap. |  |  | 0.7463 | 1.5589 |\n",
        "N,h,dofs,lambda_1,lambda_2\n"
        "4,0.35355339059327379,21,0.88206708633315767,1.74748653104486\n"
        "6,0.23570226039551592,40,0.84474021552322087,1.6823849161798585\n"
        "8,0.17677669529663689,65,0.82412242352054998,1.6492982225418642\n"
        "10,0.14142135623730959,96,0.81180001366019772,1.6311159630567538\n"
        "Order,,,0.79797919283501539,1.0511883157111863\n"
        "Extrap,,,0.74632471584042481,1.5588579389718284\n"),
    ("t2", (8,), 3): (
        "| N | h | dofs | lambda_1 | lambda_2 | lambda_3 |\n"
        "|---|---|---|---|---|---|\n"
        "| 8 | 0.125 | 545 | 3.1850 | 6.7324 | 10.9972 |\n"
        "| Exact |  |  | 3.1299 | 6.2831 | 9.4248 |\n",
        "N,h,dofs,lambda_1,lambda_2,lambda_3\n"
        "8,0.125,545,3.1849527359118381,6.7324347340185078,10.997221200451083\n"
        "Exact,,,3.1298810356317586,6.2831414840959052,9.4247778380133038\n"),
}


@pytest.mark.parametrize("case", PINNED_TABLES, ids=lambda c: f"{c[0]}-{len(c[1])}-levels")
def test_study_tables_pinned(case):
    family, Ns, k = case
    study = run_study(family, Ns, k)
    markdown, csv = PINNED_TABLES[case]
    assert study_to_markdown(study) == markdown
    assert study_to_csv(study) == csv
