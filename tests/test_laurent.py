"""Regularization-pipeline oracles.

The vacuum curve has a closed form whose constant term is pi^4/360, which
pins down every stage: window fits, pruning, pole detection and the
turning-point read-off.  Synthetic Laurent data with known poles
covers the rest of the detection range.  The paper's subtract-and-refit
routes, once (`subtract_and_refit`) and per n2 (`laurent_oracles`), are the
references for the curve read off the window matrix, and a 60-digit solve
for its roundoff.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casimir_laurent.laurent as laurent
from casimir_laurent.integrands import SpectrumKind
from casimir_laurent.laurent import (AVERAGE_CANCEL_GUARD, DetectionError,
                                     FitError, FitMatrix, LaurentParams,
                                     PruneReport, RegularizationError, Spacing,
                                     TruncatedLaurentFit, build_matrix,
                                     detect_pole_order, fit_window, make_grid,
                                     prune, regularize, subtract_and_refit)
from casimir_laurent.quadrature import IntegralSample, sample_curve
from laurent_oracles import (SOLVER_BOUND, lstsq_window, per_n2_curves, per_n2_turning_values,
                             prune_by_window, solver_error, turning_point)
from vacuum_oracles import vacuum_closed_form

C0_VACUUM_EXACT = math.pi**4 / 360.0
EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("eps_s,s_R", [(0.05, math.inf), (math.inf, 1.0),
                                       (math.inf, math.inf), (0.05, math.nan),
                                       (math.nan, 1.0)])
def test_make_grid_rejects_non_finite_bounds(eps_s, s_R):
    # an infinite s_R used to pass, and linspace then made NaN grid points
    with pytest.raises(ValueError):
        make_grid(eps_s, s_R, 10)


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
    samples = [IntegralSample(s=float(a), value=float(b), est_error=0.0,
                              kind=SpectrumKind.VACUUM, sigma=1.0)
               for a, b in zip(s, I)]
    by_objects = fit_window(samples, -2, 1)
    assert by_tuple.coeffs == by_objects.coeffs


def test_fit_window_errors():
    s = make_grid(0.1, 1.0, 20).points
    I = 1.0 / s
    with pytest.raises(FitError):
        fit_window((s, I), 2, -2)
    with pytest.raises(FitError):
        fit_window((s[:4], I[:4]), -3, 2)  # 6 coefficients, 4 samples
    # 12 samples at 3 distinct abscissae cannot separate 5 coefficients
    x = np.repeat([0.2, 0.5, 0.9], 4)
    with pytest.raises(FitError, match=r"rank-deficient window \(-2, 2\): rank 3 < 5"):
        fit_window((x, 1.0 / x), -2, 2)
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
    assert (-5, -5, 6) not in report.kept
    assert (-4, -4, 3) in report.kept
    # single-coefficient windows always keep themselves (self-ratio is 1)
    assert (-1, -1, 2) in report.kept


def test_prune_zero_threshold_keeps_everything(vacuum_samples):
    matrix = build_matrix(vacuum_samples)
    report = prune(matrix, eps_c=0.0)
    assert report.kept == {(n, n1, n2) for n1, n2 in matrix.entries for n in range(n1, 0)}


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
    assert (-2, -2, 1) not in report.kept
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


def _random_matrix(rng, N1: int, N2: int, kind: str) -> FitMatrix:
    """The window rectangle of (N1, N2) with random coefficients over 24
    decades and both signs.  kind "cancel": each window's last principal
    coefficient nearly cancels the others, its sum left on either side of
    the AVERAGE_CANCEL_GUARD threshold; "zero": every second window has an
    all-zero principal part."""
    entries = {}
    for n1 in range(N1 + 1, 0):
        for n2 in range(1, N2):
            c = rng.standard_normal(n2 - n1 + 1) * 10.0 ** rng.integers(-12, 12, n2 - n1 + 1)
            principal = c[:-n1]
            if kind == "cancel" and principal.size > 1:
                rest = principal[:-1]
                principal[-1] = -rest.sum() + np.abs(rest).mean() * 10.0 ** rng.uniform(-7, 0)
            if kind == "zero" and (n1 + n2) % 2:
                principal[:] = 0.0
            entries[(n1, n2)] = TruncatedLaurentFit(
                n1, n2, dict(zip(range(n1, n2 + 1), c.tolist())), 0.0, 1.0)
    return _hand_matrix(entries, N1, N2)


@pytest.mark.parametrize("kind", ["random", "cancel", "zero"])
@pytest.mark.parametrize("eps_c", [0.0, 1e-3, 0.3])
def test_prune_equals_the_window_by_window_rule(kind, eps_c):
    # rows of up to 5, 9 and 13 principal coefficients: numpy's pairwise
    # summation unrolls from 8 values on
    rng = np.random.default_rng(["random", "cancel", "zero"].index(kind))
    for N1 in (-6, -10, -14):
        matrix = _random_matrix(rng, N1, 9, kind)
        got, want = prune(matrix, eps_c), prune_by_window(matrix, eps_c)
        assert got.kept == want.kept
        assert list(got.averages) == list(want.averages)
        assert [v.hex() for v in got.averages.values()] == \
            [v.hex() for v in want.averages.values()]


def test_prune_of_a_fitted_matrix_equals_the_window_by_window_rule(vacuum_samples):
    matrix = build_matrix(vacuum_samples)
    for eps_c in (0.0, 1e-3):
        got, want = prune(matrix, eps_c), prune_by_window(matrix, eps_c)
        assert got.kept == want.kept and got.averages == want.averages


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
    return PruneReport(kept=kept, averages={}, N1=N1, N2=N2)


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


def _label_grid(rows, cols, labelled, default):
    return {(r, c): labelled.get((r, c), default) for r in rows for c in cols}


def test_detect_equal_label_tie_takes_first_in_scan_order():
    # two disjoint 2 x 2 rectangles, both labelled -3, in a checkerboard of
    # -1/-2 that admits no other rectangle: rows scan before columns
    rows, cols = range(-5, 0), range(1, 6)
    checker = {(r, c): -1 - (r + c) % 2 for r in rows for c in cols}
    later = {(-2, 1): -3, (-2, 2): -3, (-1, 1): -3, (-1, 2): -3}
    first = {(-5, 4): -3, (-5, 5): -3, (-4, 4): -3, (-4, 5): -3}
    msk = {**checker, **later, **first}
    pole, rectangle = detect_pole_order(_hand_report(msk, -6, 6))
    assert pole == -3
    assert rectangle == frozenset(first)


def test_detect_l_shaped_region_takes_its_largest_rectangle():
    # label -2 covers rows -4..-1 at columns 1-2 and row -1..-2 out to
    # column 5: the 2 x 5 foot (10 windows) beats the 4 x 2 leg (8), and the
    # 4 x 5 bounding box is not uniform
    rows, cols = range(-4, 0), range(1, 6)
    region = {(r, c) for r in rows for c in (1, 2)} | {(r, c) for r in (-2, -1)
                                                         for c in cols}
    msk = _label_grid(rows, cols, {cell: -2 for cell in region}, -1)
    for r in (-4, -3):
        for c in (3, 4, 5):
            msk[(r, c)] = -3 - (c % 2)      # no rectangle of its own
    pole, rectangle = detect_pole_order(_hand_report(msk, -5, 6))
    assert pole == -2
    assert rectangle == frozenset((r, c) for r in (-2, -1) for c in cols)


def test_detect_rejects_box_with_one_foreign_window():
    # a 4 x 4 block of -2 with one interior window relabelled: the box is not
    # uniform, and of the two largest uniform rectangles (4 x 2 and 2 x 4)
    # the 4 x 2 comes first in scan order
    rows, cols = range(-4, 0), range(1, 5)
    msk = _label_grid(rows, cols, {(-3, 3): -1}, -2)
    pole, rectangle = detect_pole_order(_hand_report(msk, -5, 5))
    assert pole == -2
    assert rectangle == frozenset((r, c) for r in rows for c in (1, 2))


def _detect_by_scan(report):
    """Reference: test every cell of every rectangle, in scan order."""
    msk = {(n1, n2): min((n for (n, w1, w2) in report.kept if (w1, w2) == (n1, n2)),
                         default=None)
           for n1 in range(report.N1 + 1, 0) for n2 in range(1, report.N2)}
    rows, cols = list(range(report.N1 + 1, 0)), list(range(1, report.N2))
    best_key, best = None, None
    for lab in sorted({v for v in msk.values() if v is not None}):
        for i0 in range(len(rows)):
            for i1 in range(i0 + 1, len(rows)):
                for j0 in range(len(cols)):
                    for j1 in range(j0 + 1, len(cols)):
                        cells = [(rows[i], cols[j])
                                 for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]
                        key = (len(cells), -lab)
                        if all(msk[c] == lab for c in cells) and (
                                best_key is None or key > best_key):
                            best_key, best = key, (lab, frozenset(cells))
    return best


def test_detect_matches_the_cell_by_cell_scan():
    rng = np.random.default_rng(27)
    found = 0
    for _ in range(300):
        N1, N2 = -int(rng.integers(2, 8)), int(rng.integers(2, 10))
        labels = [-int(x) for x in rng.integers(1, 6, int(rng.integers(1, 4)))]
        kept = set()
        for n1 in range(N1 + 1, 0):
            for n2 in range(1, N2):
                # a dominant label makes large rectangles; the rest break them
                lab = labels[0] if rng.uniform() < 0.6 else rng.choice(labels + [0])
                if lab:
                    kept |= {(n, n1, n2) for n in range(int(lab), 0)
                             if n == lab or rng.uniform() < 0.3}
        report = PruneReport(kept=frozenset(kept), averages={}, N1=N1, N2=N2)
        expected = _detect_by_scan(report)
        if expected is None:
            with pytest.raises(DetectionError):
                detect_pole_order(report)
        else:
            found += 1
            assert detect_pole_order(report) == expected
    assert 100 < found < 300


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


@pytest.fixture(scope="module", params=["vacuum", "noisy"])
def curve_J200(request):
    grid = make_grid(0.05, 1.0, 200)
    if request.param == "vacuum":
        vac = sample_curve(SpectrumKind.VACUUM, 1.0, grid)
        return grid.points, np.array([p.value for p in vac])
    rng = np.random.default_rng(2012)
    s = grid.points
    return s, 1.3 / s**3 - 0.4 + 0.7 * s + 1e-6 * rng.standard_normal(len(s))


def test_matrix_windows_equal_single_window_fits(curve_J200):
    # the matrix solves every window from one QR per row; each window must
    # equal a lone lstsq fit within the roundoff bound of the two solves
    s, I = curve_J200
    matrix = build_matrix((s, I))
    assert len(matrix.entries) == 40
    for (n1, n2), fit in matrix.entries.items():
        ref, _ = lstsq_window(s, I, n1, n2)
        assert (fit.n1, fit.n2, list(fit.coeffs)) == (n1, n2, list(ref.coeffs))
        assert fit.ill_conditioned == ref.ill_conditioned, (n1, n2)
        assert abs(fit.cond / ref.cond - 1.0) <= SOLVER_BOUND * ref.cond * EPS, (n1, n2)
        assert solver_error(fit.coeffs, s, I, n1, n2) <= SOLVER_BOUND, (n1, n2)
        # the residual of the least-squares solution, not of the rounded one
        assert abs(fit.rms_residual - ref.rms_residual) <= (
            SOLVER_BOUND * ref.cond * EPS * np.abs(I).max()), (n1, n2)


def test_curve_points_equal_single_window_fits(curve_J200):
    # the curve is read off the matrix row of the pole; every point must
    # equal the constant term of a lone lstsq fit within that bound
    s, I = curve_J200
    res = regularize((s, I))
    assert [p[0] for p in res.curve] == list(range(1, 9))
    for nhat2, c0hat in res.curve:
        assert solver_error({0: c0hat}, s, I, res.pole_order, nhat2, only=0) <= SOLVER_BOUND


def test_curve_matches_the_subtract_and_refit_reference(curve_J200):
    # subtracting c_minus s^N and refitting gives the same constant terms in
    # exact arithmetic; the two routes differ by roundoff alone
    res = regularize(curve_J200)
    reference = subtract_and_refit(res.matrix, res.pole_order, res.c_minus)
    assert [p[0] for p in reference] == [p[0] for p in res.curve]
    for (_, ref), (nhat2, c0hat) in zip(reference, res.curve):
        assert abs(c0hat - ref) <= 1e-6 * abs(ref), nhat2


@pytest.mark.parametrize("grid", [make_grid(0.05, 1.0, 200),
                                  make_grid(0.05, 0.9, 200, Spacing.LOG)],
                         ids=["default", "log"])
def test_curve_c0_matches_a_60_digit_solve(grid):
    # c0 is the constant term of window (N, nhat2) at the turn; against the
    # same least-squares problem solved at 60 digits it reads 9.5e-8 (default)
    # and 1.9e-8 (log) off.  Without the leading column projected out of the
    # solve, the log grid reads 1.8e-6 off
    s = grid.points
    I = np.array([p.value for p in sample_curve(SpectrumKind.VACUUM, 1.0, grid)])
    res = regularize((s, I))
    N, nhat2 = res.pole_order, res.diagnostics["turning_nhat2"]
    with mp.workdps(60):
        A = mp.matrix([[mp.mpf(x) ** n for n in range(N, nhat2 + 1)] for x in s])
        coef, _ = mp.qr_solve(A, mp.matrix([mp.mpf(v) for v in I]))
        exact = float(coef[-N])
    assert abs(res.c0 - exact) <= 5e-7 * abs(exact)


def test_one_refit_matches_every_per_n2_refit(curve_J200):
    # the per-n2 curves are one fit in exact arithmetic: they differ from the
    # matrix row by roundoff alone, and turn at the same window
    res = regularize(curve_J200)
    for n2, curve in per_n2_curves(res.matrix, res.pole_order).items():
        assert [p[0] for p in curve] == [p[0] for p in res.curve]
        for (_, old), (_, new) in zip(curve, res.curve):
            assert abs(old - new) <= 1e-6 * abs(new), n2
        assert turning_point(curve) == pytest.approx(res.c0, rel=1e-6), n2


def test_regularize_solves_each_window_once(curve_J200, monkeypatch):
    # each of the 40 windows is solved once, from one stacked QR of the 5
    # window rows, with no least-squares call and no refit
    calls = []
    real = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("regularize called lstsq or refitted the curve")

    monkeypatch.setattr(np.linalg, "qr", counting)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(laurent, "subtract_and_refit", refuse)
    res = regularize(curve_J200)
    assert len(res.matrix.entries) == 40
    assert calls == [(5, 200, 15)]


@pytest.mark.parametrize("x,message", [
    # rank 4 at window (-5, 1) comes before the 12 coefficients of (-5, 6)
    (np.repeat([0.2, 0.5, 0.9, 1.3], 3), r"rank-deficient window \(-5, 1\): rank 4 < 7"),
    (np.linspace(0.2, 1.0, 10), r"10 samples cannot determine 10 coefficients"),
    (np.linspace(0.2, 1.0, 7), r"7 samples cannot determine 7 coefficients"),
], ids=["rank-first", "count-after-solvable", "count-first"])
def test_first_failing_window_in_row_major_order_is_named(x, message):
    # a lone window fit raises at its first failing window, row by row; the
    # windows solved together must raise the same error
    with pytest.raises(FitError, match=rf"^{message}$"):
        build_matrix((x, 1.0 / x))
    with pytest.raises(RegularizationError, match=message) as exc:
        regularize((x, 1.0 / x))
    assert exc.value.stage == "fit"


@settings(max_examples=40, deadline=None)
@given(spacing=st.sampled_from(list(Spacing)),
       eps_s=st.floats(0.02, 0.1), s_R=st.floats(0.5, 2.0), J=st.integers(16, 400),
       pole=st.integers(-5, -1), seed=st.integers(0, 2**32 - 1))
def test_every_window_matches_single_window_lstsq(spacing, eps_s, s_R, J, pole, seed):
    # a Laurent polynomial with a pole of order -pole, plus 1e-9 relative
    # noise: every window has lstsq's rank outcome and conditioning flag,
    # and its condition number and coefficients within the solver bound
    s = make_grid(eps_s, s_R, J, spacing).points
    rng = np.random.default_rng(seed)
    I = sum(c * s**float(n) for n, c in zip(range(pole, 5), rng.standard_normal(5 - pole)))
    I = I * (1.0 + 1e-9 * rng.standard_normal(J))
    windows = [(n1, n2) for n1 in range(-5, 0) for n2 in range(1, 9)]
    try:
        entries, failure = build_matrix((s, I)).entries, None
    except FitError as exc:
        entries, failure = {}, str(exc)
    for n1, n2 in windows:
        try:
            ref, _ = lstsq_window(s, I, n1, n2)
        except FitError as exc:
            assert str(exc) == failure
            return
        if failure is None:
            fit = entries[(n1, n2)]
            assert fit.ill_conditioned == ref.ill_conditioned, (n1, n2)
            assert abs(fit.cond / ref.cond - 1.0) <= SOLVER_BOUND * ref.cond * EPS, (n1, n2)
            assert solver_error(fit.coeffs, s, I, n1, n2) <= SOLVER_BOUND, (n1, n2)
    assert failure is None


def test_subtract_and_refit_shape_and_values():
    s = make_grid(0.05, 1.0, 80).points
    I = 5.0 / s**3 + 0.27 + 0.1 * s
    matrix = build_matrix((s, I))
    curve = subtract_and_refit(matrix, -3, 5.0)
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


@pytest.mark.parametrize("curve,nhat2,sign_change", [
    ([(1, 0.30), (2, 0.28), (3, 0.27), (4, 0.275), (5, 0.276)], 3, True),
    ([(1, 0.30), (2, 0.28), (3, 0.27), (4, 0.265), (5, 0.2649)], 5, False),
])
def test_regularize_reports_where_the_curve_turned(vacuum_samples, monkeypatch,
                                                   curve, nhat2, sign_change):
    # an interior turn, and a monotone curve that falls back to the smallest
    # step, injected as the constant terms of the pole's matrix row
    real = laurent.build_matrix

    def injected(samples, N1, N2):
        matrix = real(samples, N1, N2)
        entries = dict(matrix.entries)
        for k, c0hat in curve:
            entries[(-4, k)] = replace(entries[(-4, k)],
                                       coeffs={**entries[(-4, k)].coeffs, 0: c0hat})
        return replace(matrix, entries=entries)

    monkeypatch.setattr(laurent, "build_matrix", injected)
    res = regularize(vacuum_samples, LaurentParams(N2=len(curve) + 1))
    assert res.curve == curve
    assert res.c0 == turning_point(curve) == dict(curve)[nhat2]
    assert res.diagnostics["turning_nhat2"] == nhat2
    assert res.diagnostics["sign_change"] is sign_change


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_regularize_vacuum_closed_form(vacuum_samples):
    res = regularize(vacuum_samples)
    assert res.pole_order == -4
    assert res.c_minus == pytest.approx(2.0, rel=2e-3)
    assert abs(res.c0 - C0_VACUUM_EXACT) < 5e-4
    assert res.c0 == pytest.approx(0.270417018, abs=1e-6)
    assert [nhat2 for nhat2, _ in res.curve] == list(range(1, 9))
    assert res.c0 == turning_point(res.curve)
    for n2, value in per_n2_turning_values(res).items():
        assert abs(value - res.c0) < 1e-5, n2
    assert len(res.diagnostics["rectangle"]) == 16
    for n2 in range(1, 9):
        c = res.matrix.entries[(res.pole_order, n2)].coeffs[res.pole_order]
        assert c == pytest.approx(2.0, rel=1e-2), n2


def test_regularize_returns_its_matrix(vacuum_samples):
    params = LaurentParams(N2=8)
    res = regularize(vacuum_samples, params)
    rebuilt = build_matrix(vacuum_samples, params.N1, params.N2)
    assert (res.matrix.N1, res.matrix.N2) == (-6, 8)
    assert res.matrix.entries == rebuilt.entries
    # c_minus is the mean of the pole row's leading coefficients
    assert res.c_minus == float(np.mean([
        res.matrix.entries[(res.pole_order, n2)].coeffs[res.pole_order]
        for n2 in range(1, 8)]))


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


@pytest.mark.parametrize("sampler", ["closed_form", "quad"])
def test_regularize_log_grid_small_eps_s(sampler):
    # log spacing from eps_s = 0.04 crowds the samples toward the pole, where
    # the read-off keeps its turn only below about 1e-12 relative sample
    # error: closed-form and quadrature samples both land 0.064% from
    # pi^4/360 (0.270407).  Samples good to only ~1e-12 read 0.19351 here
    grid = make_grid(0.04, 1.2, 200, "log")
    if sampler == "closed_form":
        I = np.array([vacuum_closed_form(s) for s in grid.points])
    else:
        I = np.array([p.value for p in sample_curve(SpectrumKind.VACUUM, 1.0, grid)])
    res = regularize((grid.points, I))
    assert res.pole_order == -4
    assert abs(res.c0 - C0_VACUUM_EXACT) / C0_VACUUM_EXACT < 1e-3


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
    # 30 samples at 10 distinct abscissae: enough samples, too low a rank
    s = np.repeat(np.linspace(0.1, 1.0, 10), 3)
    with pytest.raises(RegularizationError) as exc:
        regularize((s, 1.0 / s))
    assert exc.value.stage == "fit"
    with pytest.raises(RegularizationError, match="1-D and congruent") as exc:
        regularize((np.ones(5), np.ones(4)))
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


@pytest.mark.parametrize("s_bad,I_bad", [(0.5, math.nan), (0.5, math.inf),
                                         (0.5, -math.inf), (math.nan, 1.0),
                                         (math.inf, 1.0)])
def test_regularize_rejects_non_finite_samples(s_bad, I_bad):
    # rejected by index before any window is fitted
    grid = make_grid(0.05, 1.0, 60)
    s = grid.points.copy()
    I = np.array([vacuum_closed_form(x) for x in s])
    s[17], I[17] = s_bad, I_bad
    with pytest.raises(RegularizationError, match=r"sample 17 is not finite") as exc:
        regularize((s, I))
    assert exc.value.stage == "fit"


@pytest.mark.parametrize("samples", [(np.array([]), np.array([])), ([], []), []],
                         ids=["arrays", "lists", "no-samples"])
def test_empty_sample_set_is_named(samples):
    # rejected before a power table is built over a grid with no points
    with pytest.raises(ValueError, match=r"^no samples: a fit needs at least one sample point$"):
        fit_window(samples, -4, 2)
    with pytest.raises(RegularizationError, match=r"no samples: a fit needs") as exc:
        regularize(samples)
    assert exc.value.stage == "fit"


@pytest.mark.parametrize("eps_s,norm", [(1e-70, "inf"), (1e40, "0")])
def test_regularize_rejects_a_grid_the_monomials_cannot_represent(monkeypatch, eps_s, norm):
    # s^-5 overflows on the first grid and its square underflows on the
    # second; one error names the column before any window reaches LAPACK
    def refuse(*args, **kwargs):
        raise AssertionError("a window reached LAPACK")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    s = make_grid(eps_s, 2.0 * eps_s, 16).points
    with pytest.raises(RegularizationError) as exc:
        regularize((s, np.ones_like(s)))
    assert exc.value.stage == "fit"
    assert (f"basis column s^-5 has norm {norm} on the grid [{eps_s:g}, {2.0 * eps_s:g}]"
            in str(exc.value))


def test_laurent_params_validation():
    # N1 = -2 leaves one window row, so no 2 x 2 rectangle can agree on a pole;
    # N2 = 3 leaves two curve windows, too few for a turning point
    for bad in ({"N1": -1}, {"N1": -2}, {"N2": 1}, {"N2": 2}, {"N2": 3}):
        with pytest.raises(ValueError):
            LaurentParams(**bad)
    LaurentParams(N1=-3, N2=4)   # the smallest fence that can give a c0
    with pytest.raises(ValueError):
        LaurentParams(eps_c=-0.1)
    with pytest.raises(ValueError):
        LaurentParams(eps_c=1.0)
