"""Regularization-pipeline oracles.

The vacuum curve has a closed form whose constant term is pi^4/360, which
pins down every stage: window fits, pruning, pole detection, subtraction,
and the turning-point read-off.  Synthetic Laurent data with known poles
covers the rest of the detection range.
"""

import math

import numpy as np
import pytest

import casimir_laurent.laurent as laurent
from casimir_laurent.integrands import SpectrumKind
from casimir_laurent.laurent import (AVERAGE_CANCEL_GUARD, DetectionError,
                                     FitError, FitMatrix, LaurentParams,
                                     PruneReport, RegularizationError, Spacing,
                                     TruncatedLaurentFit, build_matrix,
                                     detect_pole_order, fit_window, make_grid,
                                     prune, regularize, subtract_and_refit,
                                     turning_point)
from casimir_laurent.quadrature import IntegralSample, vacuum_closed_form

C0_VACUUM_EXACT = math.pi**4 / 360.0


@pytest.fixture(scope="module")
def vacuum_samples():
    grid = make_grid(0.05, 1.0, 120)
    values = np.array([vacuum_closed_form(s) for s in grid.points])
    return grid.points, values


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_make_grid_linear_three_points():
    grid = make_grid(0.05, 1.0, 3, Spacing.LINEAR)
    assert grid.points[0] == 0.05
    assert grid.points[-1] == 1.0
    assert grid.points[1] == pytest.approx(0.525, rel=1e-15)
    assert len(grid) == 3


def test_make_grid_log_three_points():
    grid = make_grid(0.01, 1.0, 3, "log")
    assert grid.points[1] == pytest.approx(0.1, rel=1e-12)
    assert grid.spacing is Spacing.LOG


def test_make_grid_defaults():
    grid = make_grid(0.05, 1.0)
    assert grid.J == 200 and len(grid.points) == 200
    assert grid.spacing is Spacing.LINEAR
    assert np.all(np.diff(grid.points) > 0.0)


def test_make_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        make_grid(0.5, 0.5, 10)
    with pytest.raises(ValueError):
        make_grid(0.05, 1.0, 2)


def test_make_grid_spacing_string_case():
    assert make_grid(0.05, 1.0, 5, "LINEAR").spacing is Spacing.LINEAR


# ---------------------------------------------------------------------------
# window fits
# ---------------------------------------------------------------------------


def test_fit_window_exact_recovery():
    s = make_grid(0.05, 1.0, 40).points
    I = 2.0 / s**4 + 0.27
    fit = fit_window((s, I), -4, 1)
    assert fit.coeffs[-4] == pytest.approx(2.0, rel=1e-9)
    assert fit.coeffs[0] == pytest.approx(0.27, abs=1e-8)
    for n in (-3, -2, -1, 1):
        assert abs(fit.coeffs[n]) < 1e-6
    assert fit.rms_residual < 1e-9
    assert not fit.ill_conditioned


def test_fit_window_constant():
    s = make_grid(0.1, 1.0, 30).points
    fit = fit_window((s, np.full_like(s, math.pi)), -2, 2)
    assert fit.coeffs[0] == pytest.approx(math.pi, abs=1e-9)
    for n in (-2, -1, 1, 2):
        assert abs(fit.coeffs[n]) < 1e-8


def test_fit_window_with_noise():
    s = make_grid(0.05, 1.0, 120).points
    rng = np.random.default_rng(42)
    I = 1.0 / s**2 + 0.5 + 1e-6 * rng.standard_normal(len(s))
    fit = fit_window((s, I), -2, 2)
    assert fit.coeffs[-2] == pytest.approx(1.0, abs=1e-6)
    assert fit.coeffs[0] == pytest.approx(0.5, abs=1e-4)
    assert fit.rms_residual < 5e-6


def test_fit_window_input_forms_agree():
    s = make_grid(0.1, 1.0, 20).points
    I = 1.0 / s + 2.0
    by_tuple = fit_window((s, I), -2, 1)
    by_array = fit_window(np.column_stack([s, I]), -2, 1)
    samples = [IntegralSample(s=float(a), value=float(b), est_error=0.0,
                              kind=SpectrumKind.VACUUM, sigma=1.0)
               for a, b in zip(s, I)]
    by_objects = fit_window(samples, -2, 1)
    assert by_tuple.coeffs == by_array.coeffs == by_objects.coeffs


def test_fit_window_errors():
    s = make_grid(0.1, 1.0, 20).points
    I = 1.0 / s
    with pytest.raises(FitError):
        fit_window((s, I), 2, -2)
    with pytest.raises(FitError):
        fit_window((s[:4], I[:4]), -3, 2)  # 6 coefficients, 4 samples
    with pytest.raises(ValueError):
        fit_window((np.array([-0.1, 0.5, 1.0]), np.ones(3)), -1, 1)
    with pytest.raises(ValueError):
        fit_window(np.ones((4, 3)), -1, 1)


# ---------------------------------------------------------------------------
# fit matrix and pruning
# ---------------------------------------------------------------------------


def test_build_matrix_window_range():
    s = make_grid(0.1, 1.0, 30).points
    matrix = build_matrix((s, 1.0 / s + 1.0), N1=-3, N2=3)
    assert set(matrix.entries) == {(-2, 1), (-2, 2), (-1, 1), (-1, 2)}
    assert matrix.N1 == -3 and matrix.N2 == 3


def test_build_matrix_vacuum_leading_coefficient(vacuum_samples):
    matrix = build_matrix(vacuum_samples)
    assert matrix.entries[(-5, 8)].coeffs[-4] == pytest.approx(2.0, rel=1e-2)


def test_prune_vacuum_keeps_the_pole(vacuum_samples):
    report = prune(build_matrix(vacuum_samples))
    assert (-4, -5, 6) in report.kept
    assert (-5, -5, 6) in report.dropped
    assert (-4, -4, 3) in report.kept
    # single-coefficient windows always keep themselves (self-ratio is 1)
    assert (-1, -1, 2) in report.kept


def test_prune_zero_threshold_keeps_everything(vacuum_samples):
    report = prune(build_matrix(vacuum_samples), eps_c=0.0)
    assert not report.dropped


def test_prune_rejects_negative_threshold(vacuum_samples):
    with pytest.raises(ValueError):
        prune(build_matrix(vacuum_samples), eps_c=-0.1)


def _hand_matrix(entries, N1, N2):
    s = np.linspace(0.1, 1.0, 9)
    return FitMatrix(entries=entries, N1=N1, N2=N2, s=s, I=np.ones_like(s))


def test_prune_zero_average_drops():
    fits = {
        (-2, 1): TruncatedLaurentFit(-2, 1, {-2: 0.0, -1: 0.0, 0: 1.0, 1: 0.0}, 0.0, 1.0),
        (-1, 1): TruncatedLaurentFit(-1, 1, {-1: 1.0, 0: 1.0, 1: 0.0}, 0.0, 1.0),
    }
    report = prune(_hand_matrix(fits, -3, 2))
    assert (-2, -2, 1) in report.dropped
    assert report.averages[(-2, -2, 1)] == 0.0


def test_prune_cancellation_guard():
    # Signed sum cancels to below the guard; the mean magnitude takes over.
    c = {-2: 1.0, -1: -1.0 + 1e-9, 0: 0.3, 1: 0.1}
    fits = {
        (-2, 1): TruncatedLaurentFit(-2, 1, c, 0.0, 1.0),
        (-1, 1): TruncatedLaurentFit(-1, 1, {-1: 1.0, 0: 1.0, 1: 0.0}, 0.0, 1.0),
    }
    report = prune(_hand_matrix(fits, -3, 2))
    signed = abs(c[-2] + c[-1]) / 2.0
    mean_abs = 0.5 * (abs(c[-2]) + abs(c[-1]))
    assert signed < AVERAGE_CANCEL_GUARD * mean_abs
    assert report.averages[(-2, -2, 1)] == pytest.approx(mean_abs, rel=1e-12)
    assert (-2, -2, 1) in report.kept


# ---------------------------------------------------------------------------
# pole detection
# ---------------------------------------------------------------------------


def test_detect_vacuum_pole(vacuum_samples):
    report = prune(build_matrix(vacuum_samples))
    pole, rectangle = detect_pole_order(report)
    assert pole == -4
    assert len(rectangle) == 16  # rows {-5,-4} x columns {1..8}
    assert (-5, 1) in rectangle and (-4, 8) in rectangle


def test_detect_second_order_pole():
    s = make_grid(0.05, 1.0, 80).points
    report = prune(build_matrix((s, 1.0 / s**2 + 1.0)))
    pole, rectangle = detect_pole_order(report)
    assert pole == -2
    assert len(rectangle) == 32  # rows {-5..-2} x columns {1..8}


def _hand_report(msk, N1, N2):
    kept = frozenset((lab, n1, n2) for (n1, n2), lab in msk.items() if lab is not None)
    return PruneReport(eps_c=1e-3, kept=kept, dropped=frozenset(), averages={},
                       N1=N1, N2=N2)


def test_detect_requires_two_by_two():
    msk = {(-2, 1): -2, (-2, 2): -1, (-1, 1): -1, (-1, 2): -1}
    with pytest.raises(DetectionError):
        detect_pole_order(_hand_report(msk, -3, 3))


def test_detect_area_tie_prefers_more_singular():
    # Two disjoint 2 x 2 rectangles of equal area, labels -4 and -2; the
    # remaining cells form a checkerboard that admits no third rectangle.
    msk = {
        (-5, 1): -4, (-5, 2): -4, (-4, 1): -4, (-4, 2): -4,
        (-3, 3): -2, (-3, 4): -2, (-2, 3): -2, (-2, 4): -2,
        (-3, 1): -3, (-3, 2): -1, (-2, 1): -1, (-2, 2): -3,
        (-5, 3): -1, (-5, 4): -3, (-4, 3): -3, (-4, 4): -1,
        (-1, 1): None, (-1, 2): None, (-1, 3): None, (-1, 4): None,
    }
    pole, rectangle = detect_pole_order(_hand_report(msk, -6, 5))
    assert pole == -4
    assert rectangle == frozenset({(-5, 1), (-5, 2), (-4, 1), (-4, 2)})


def test_detect_prefers_larger_area():
    msk = {
        (-3, 1): -3, (-3, 2): -3, (-3, 3): -3,
        (-2, 1): -3, (-2, 2): -3, (-2, 3): -3,
        (-1, 1): -1, (-1, 2): -1, (-1, 3): -1,
    }
    pole, rectangle = detect_pole_order(_hand_report(msk, -4, 4))
    assert pole == -3
    assert len(rectangle) == 6


# ---------------------------------------------------------------------------
# subtraction, refit, turning points
# ---------------------------------------------------------------------------


def test_subtract_and_refit_shape_and_values():
    s = make_grid(0.05, 1.0, 80).points
    I = 5.0 / s**3 + 0.27 + 0.1 * s
    matrix = build_matrix((s, I))
    curves = subtract_and_refit((s, I), -3, matrix)
    assert sorted(curves) == list(range(1, 9))
    for curve in curves.values():
        assert [p[0] for p in curve] == list(range(1, 9))
        for _, c0hat in curve:
            assert c0hat == pytest.approx(0.27, abs=1e-6)


def test_subtraction_removes_the_singularity(vacuum_samples):
    s, I = vacuum_samples
    matrix = build_matrix((s, I))
    c_lead = matrix.entries[(-4, 3)].coeffs[-4]
    refit = fit_window((s, I - c_lead * s**-4.0), -4, 3)
    assert abs(refit.coeffs[-4]) < 1e-10


def test_turning_point_first_sign_change():
    assert turning_point([(1, 1.0), (2, 0.5), (3, 0.8), (4, 0.9)]) == 0.5


def test_turning_point_plateau_counts():
    assert turning_point([1.0, 2.0, 2.0, 3.0]) == 2.0


def test_turning_point_monotone_fallback():
    # No sign change: take the ordinate after the smallest step.
    assert turning_point([1.0, 1.5, 1.7, 1.75]) == 1.75


def test_turning_point_needs_three_points():
    with pytest.raises(ValueError):
        turning_point([1.0, 2.0])


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_regularize_vacuum_closed_form(vacuum_samples):
    res = regularize(vacuum_samples)
    assert res.pole_order == -4
    assert res.c_minus == pytest.approx(2.0, rel=2e-3)
    assert abs(res.c0 - C0_VACUUM_EXACT) < 5e-4
    assert res.c0 == pytest.approx(0.270417018, abs=1e-6)
    assert res.diagnostics["spread"] < 1e-5
    assert sorted(res.curves) == list(range(1, 9))
    assert sorted(res.turning_values) == list(range(1, 9))
    assert res.c0 == float(np.mean(list(res.turning_values.values())))
    assert len(res.diagnostics["rectangle"]) == 16
    for n2, c in res.c_minus_by_window.items():
        assert c == pytest.approx(2.0, rel=1e-2), n2


def test_regularize_returns_its_matrix(vacuum_samples):
    params = LaurentParams(N2=8)
    res = regularize(vacuum_samples, params)
    rebuilt = build_matrix(vacuum_samples, params.N1, params.N2)
    assert (res.matrix.N1, res.matrix.N2) == (-6, 8)
    assert res.matrix.entries == rebuilt.entries
    assert res.c_minus_by_window == {
        n2: res.matrix.entries[(res.pole_order, n2)].coeffs[res.pole_order]
        for n2 in range(1, 8)}


def test_regularize_scale_covariance(vacuum_samples):
    s, I = vacuum_samples
    base = regularize((s, I))
    scaled = regularize((s, 3.7 * I))
    # rounding of 3.7 * I passes through window fits with cond ~ 1e8, so
    # exact-scaling holds only to ~1e-8 here
    assert scaled.pole_order == base.pole_order
    assert scaled.c0 == pytest.approx(3.7 * base.c0, rel=1e-7)
    assert scaled.c_minus == pytest.approx(3.7 * base.c_minus, rel=1e-7)
    kept_base = prune(build_matrix((s, I))).kept
    kept_scaled = prune(build_matrix((s, 3.7 * I))).kept
    assert kept_base == kept_scaled


def test_regularize_grid_refinement_stability():
    c0s = {}
    for J in (120, 240):
        grid = make_grid(0.05, 1.0, J)
        I = np.array([vacuum_closed_form(s) for s in grid.points])
        res = regularize((grid.points, I))
        assert res.pole_order == -4
        c0s[J] = res.c0
    assert abs(c0s[240] - c0s[120]) < 2e-5


@pytest.mark.parametrize("pole,c_lead,c0", [(-1, 3.0, 0.5), (-2, 1.5, -0.8),
                                            (-3, 4.0, 1.2), (-4, 2.0, 0.27),
                                            (-5, 0.7, 2.0)])
def test_regularize_synthetic_poles(pole, c_lead, c0):
    s = make_grid(0.05, 1.0, 120).points
    I = c_lead * s**float(pole) + c0 + 0.2 * s
    # a pole at the bottom window row has no second row to agree with;
    # detecting -5 needs the window floor moved to -7
    params = LaurentParams(N1=-7) if pole == -5 else LaurentParams()
    res = regularize((s, I), params)
    assert res.pole_order == pole
    assert res.c0 == pytest.approx(c0, abs=1e-8)
    assert res.c_minus == pytest.approx(c_lead, rel=1e-10)


def test_regularize_stage_tagging(monkeypatch):
    s = np.linspace(0.1, 1.0, 8)  # too few samples for the default windows
    with pytest.raises(RegularizationError) as exc:
        regularize((s, 1.0 / s))
    assert exc.value.stage == "fit"

    # The window rule keeps the vacuum pole detectable on every grid tried,
    # so the detection failure is injected.
    def no_stable_order(report):
        raise DetectionError("no pole order is stable across any 2 x 2 window rectangle")

    monkeypatch.setattr(laurent, "detect_pole_order", no_stable_order)
    grid = make_grid(0.05, 1.0, 60)
    I = np.array([vacuum_closed_form(x) for x in grid.points])
    with pytest.raises(RegularizationError) as exc:
        regularize((grid.points, I))
    assert exc.value.stage == "detect"


def test_laurent_params_validation():
    with pytest.raises(ValueError):
        LaurentParams(N1=-1)
    with pytest.raises(ValueError):
        LaurentParams(N2=1)
    with pytest.raises(ValueError):
        LaurentParams(eps_c=-0.1)
    with pytest.raises(ValueError):
        LaurentParams(eps_c=1.0)
