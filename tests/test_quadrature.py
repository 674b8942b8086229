"""Quadrature oracles.

The vacuum integral has a closed form and the dielectric double integral is
checked against an independent tensor-product Gauss-Legendre evaluation on
geometric panels (dual route, no shared code with the adaptive path).
"""

import math
import re
import time

import numpy as np
import pytest

from casimir_laurent.integrands import SpectrumKind, dlog_cross, vacuum_integrand
from casimir_laurent.laurent import LaurentParams, Spacing, make_grid, regularize
from scipy.integrate import _quadpack_py, quad

from casimir_laurent.quadrature import (_WG, _WGK, _XGK, ABS_TOL, DIELECTRIC_REL_TOL,
                                        MAX_PANELS, VACUUM_REL_TOL, QuadratureError, _Failed,
                                        _adaptive_gk21, _qk21, check_reach, eval_I_dielectric, eval_I_vacuum,
                                        resolve_rel_tol, sample_curve, truncation_point)
from vacuum_oracles import vacuum_closed_form

SIGMA = 8.0 / 27.0


def gauss_panels(edges, limit, xg, wg):
    """Nodes and weights of the Gauss-Legendre rule (xg, wg) on each panel of
    edges below limit, the last panel cut at limit."""
    a = edges[:-1][edges[:-1] < limit]
    b = np.minimum(edges[1:a.size + 1], limit)
    half = 0.5 * (b - a)
    return ((a + half)[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


def brute_dielectric(kind, s, sigma, n_panels=16, nodes=10):
    """Tensor Gauss-Legendre on geometric panels; converges to ~1e-12 here.
    All (nu, y) nodes go to the cross-product kernel as one array."""
    x_max = (-math.log(1e-13) + 25.0) / s
    edges = np.geomspace(1e-4, x_max, n_panels + 1)
    edges[0] = 0.0
    xg, wg = np.polynomial.legendre.leggauss(nodes)

    nu, w_nu = gauss_panels(edges, x_max, xg, wg)
    g = nu if kind is SpectrumKind.TE else np.hypot(nu, 1.0)
    live = g < x_max
    nu, w_nu, g = nu[live], w_nu[live], g[live]
    inner = [gauss_panels(edges, math.sqrt(x_max * x_max - gi * gi), xg, wg) for gi in g]
    counts = [y.size for y, _ in inner]
    y = np.concatenate([y for y, _ in inner])
    w_y = np.concatenate([w for _, w in inner])
    nu_y, g_y = np.repeat(nu, counts), np.repeat(g, counts)
    terms = w_y * y * dlog_cross(kind, nu_y, y, sigma) * np.exp(-s * np.hypot(g_y, y))
    inner_sums = np.add.reduceat(terms, np.cumsum([0] + counts[:-1]))
    return float(np.sum(w_nu * nu * inner_sums))


def decaying(f, s, upper=None):
    """Int_0^upper f(x) e^{-s x} dx on the batched rule at the vacuum budget;
    upper defaults to X(s)."""
    x_max = truncation_point(s) if upper is None else upper
    values, errors = _adaptive_gk21(lambda x, owner: f(x) * np.exp(-s * x),
                                    np.array([x_max]), VACUUM_REL_TOL)
    return values[0], errors[0]


@pytest.fixture
def no_scipy_quad(monkeypatch):
    """Every scipy.integrate.quad call fails, however `quad` was imported."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sample called scipy.integrate.quad")

    for routine in ("_qagse", "_qagie", "_qagpe"):
        monkeypatch.setattr(_quadpack_py._quadpack, routine, refuse)
    with pytest.raises(AssertionError):
        quad(lambda x: x, 0.0, 1.0)


# ---------------------------------------------------------------------------
# damped integrals over (0, X(s))
# ---------------------------------------------------------------------------


def test_gamma_integral():
    value, err = decaying(lambda x: x**3, 1.0)
    assert value == pytest.approx(6.0, rel=1e-9)
    assert err < 1e-6


def test_gamma_integral_scaled():
    value, _ = decaying(lambda x: x**3, 2.0)
    assert value == pytest.approx(0.375, rel=1e-9)


def test_unit_integral():
    value, _ = decaying(lambda x: 1.0, 1.0)
    assert value == pytest.approx(1.0, rel=1e-10)


def test_tail_truncation_is_converged():
    base, base_err = decaying(lambda x: x**3, 0.5)
    x_max = truncation_point(0.5)
    doubled, doubled_err = decaying(lambda x: x**3, 0.5, upper=2.0 * x_max)
    assert abs(doubled - base) <= base_err + doubled_err + 1e-12 * abs(base)


def test_nonfinite_integrand_raises(monkeypatch):
    import casimir_laurent.quadrature as quadrature

    monkeypatch.setattr(quadrature, "vacuum_integrand", lambda x: np.full(x.shape, math.nan))
    with pytest.raises(QuadratureError, match=r"^sample 0 \(s=1\.0\) failed: quadrature: "
                                              r"non-finite integrand at x="):
        eval_I_vacuum(1.0)


def test_integrate_domain():
    with pytest.raises(ValueError):
        eval_I_vacuum(0.0)
    with pytest.raises(ValueError):
        eval_I_vacuum(-1.0)


@pytest.mark.parametrize("call", [
    lambda: eval_I_vacuum(math.nan),
    lambda: eval_I_vacuum(math.inf),
    lambda: sample_curve(SpectrumKind.VACUUM, 1.0, [0.5, math.nan]),
    lambda: eval_I_dielectric(SpectrumKind.TE, math.inf, SIGMA),
    lambda: eval_I_dielectric(SpectrumKind.TE, math.nan, SIGMA),
    lambda: eval_I_dielectric(SpectrumKind.TE, 1.0, math.nan),
    lambda: eval_I_dielectric(SpectrumKind.TM, 1.0, math.inf),
    lambda: vacuum_closed_form(math.nan),
    lambda: vacuum_closed_form(math.inf),
], ids=["vacuum-s-nan", "vacuum-s-inf", "vacuum-curve-nan", "dielectric-s-inf",
        "dielectric-s-nan", "dielectric-sigma-nan", "dielectric-sigma-inf",
        "closed-form-nan", "closed-form-inf"])
def test_entry_points_reject_non_finite_input(call):
    with pytest.raises(ValueError, match=r"requires 0 < s < inf|sigma must lie in"):
        call()


def test_config_validation():
    for bad in (0.0, 1.0, 1.5, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"rel_tol must lie in \(0,1\)"):
            resolve_rel_tol(SpectrumKind.VACUUM, bad)
    # every entry point resolves its rel_tol before the first integrand call
    for call in (lambda: eval_I_vacuum(1.0, math.nan),
                 lambda: sample_curve(SpectrumKind.VACUUM, 1.0, [0.5], 0.0),
                 lambda: eval_I_dielectric(SpectrumKind.TE, 1.0, SIGMA, 2.0)):
        with pytest.raises(ValueError, match=r"rel_tol must lie in \(0,1\)"):
            call()


def test_default_budgets():
    assert resolve_rel_tol(SpectrumKind.VACUUM) == VACUUM_REL_TOL
    assert resolve_rel_tol(SpectrumKind.TE) == DIELECTRIC_REL_TOL
    assert resolve_rel_tol(SpectrumKind.TM, None) == DIELECTRIC_REL_TOL
    for kind in SpectrumKind:
        assert resolve_rel_tol(kind, 3e-9) == 3e-9


def test_truncation_point_value():
    expect = (13.0 * math.log(10.0) + 20.0)
    assert truncation_point(1.0) == pytest.approx(expect, rel=1e-12)
    assert truncation_point(2.0) == pytest.approx(0.5 * expect, rel=1e-12)


# ---------------------------------------------------------------------------
# batched Gauss-Kronrod rule
# ---------------------------------------------------------------------------

BATCH_REL_TOL = 1e-10
BATCH_UPPER = np.array([1.0, 5.0, 20.0, 80.0])


def damped_cubic(b, s):
    """int_0^b x^3 e^{-s x} dx in closed form."""
    u = s * b
    return 6.0 / s**4 * (1.0 - math.exp(-u) * (1.0 + u + u * u / 2.0 + u**3 / 6.0))


def test_batched_rule_matches_closed_forms():
    values, errors = _adaptive_gk21(lambda x, owner: x**3 * np.exp(-0.5 * x),
                                    BATCH_UPPER, BATCH_REL_TOL)
    for b, value, err in zip(BATCH_UPPER, values, errors):
        assert value == pytest.approx(damped_cubic(b, 0.5), rel=1e-12)
        assert 0.0 < err <= BATCH_REL_TOL * value


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / (1.0 + 100.0 * x * x),
    lambda x: x**3 / (1.0 + x) ** 6,
    lambda x: 1.0 / (1.0 + 50.0 * (x - 3.0) ** 2),
], ids=["peak_at_0", "rational_tail", "peak_at_3"])
def test_batched_rule_matches_scipy_quad(f):
    # The same qk21 rule and stopping test: equal values to rounding.  The
    # error estimate is a running sum from which the bisected panels' errors
    # are subtracted, so it matches to rounding of the first estimate.
    values, errors = _adaptive_gk21(lambda x, owner: f(x), BATCH_UPPER, BATCH_REL_TOL)
    for b, value, err in zip(BATCH_UPPER, values, errors):
        ref, ref_err = quad(f, 0.0, b, epsabs=ABS_TOL, epsrel=BATCH_REL_TOL,
                            limit=MAX_PANELS)
        assert value == pytest.approx(ref, rel=1e-15)
        assert err == pytest.approx(ref_err, rel=1e-12, abs=1e-15 * ref)


def qk21_reference(fx, hlgth):
    """QUADPACK qk21's sums, one node pair at a time, on the (panels, 21)
    values fx at the nodes _qk21 lays out: (result, abserr, resasc)."""
    eps, uflow = np.finfo(float).eps, np.finfo(float).tiny
    fv1, fv2, fc = fx[:, :10], fx[:, 10:20], fx[:, 20]
    resg = np.zeros_like(fc)
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):   # Gauss nodes first, as qk21
        fsum = fv1[:, j] + fv2[:, j]
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[:, j] - reskh) + np.abs(fv2[:, j] - reskh))
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    m = (resasc != 0.0) & (abserr != 0.0)
    abserr[m] = resasc[m] * np.minimum(1.0, (200.0 * abserr[m] / resasc[m]) ** 1.5)
    m = resabs > uflow / (50.0 * eps)
    abserr[m] = np.maximum((eps * 50.0) * resabs[m], abserr[m])
    return result, abserr, resasc


@pytest.mark.parametrize("panels", [1, 7, 84, 700, 2500])
def test_qk21_sums_in_quadpack_order(panels):
    # the node-pair sums are formed as whole arrays; every bit must still be
    # that of QUADPACK's loop, on values spanning 60 decades, both signs,
    # zeros, constant and zero panels, and panels of tiny values
    rng = np.random.default_rng(panels)
    a = rng.uniform(-5.0, 5.0, panels)
    b = a + rng.uniform(1e-6, 10.0, panels)
    fx = rng.standard_normal((panels, 21)) * 10.0 ** rng.uniform(-30.0, 30.0, (panels, 21))
    fx[rng.random((panels, 21)) < 0.05] = 0.0
    fx[::5] = fx[::5, :1]
    fx[1::5] = 0.0
    fx[2::5] *= 1e-300
    seen = []

    def f(x, owner):
        seen.append(x)
        return fx

    got = _qk21(f, a, b, np.arange(panels))
    hlgth = 0.5 * (b - a)
    assert np.array_equal(seen[0][:, 20], 0.5 * (a + b))
    assert np.array_equal(seen[0][:, :10], 0.5 * (a + b)[:, None] - hlgth[:, None] * _XGK[:10])
    for mine, ref in zip(got, qk21_reference(fx, hlgth)):
        assert np.array_equal(mine, ref) and np.array_equal(np.signbit(mine), np.signbit(ref))


def test_batched_rule_grows_its_tables():
    # member 0 converges on its first panel; member 1 (an x^-0.5 endpoint
    # singularity) needs more panels than four doublings of the tables hold
    def f(x, owner):
        return np.where(owner[:, None] == 1, x**-0.5, x * x)

    def alone(i):
        calls = []

        def member_i(x, owner):
            calls.append(x.shape)
            return f(x, np.full(owner.shape, i))

        value, err = _adaptive_gk21(member_i, np.ones(1), BATCH_REL_TOL)
        return value[0], err[0], len(calls)   # a lone integral: one call per panel

    (v0, e0, panels0), (v1, e1, panels1) = alone(0), alone(1)
    assert panels0 == 1 and panels1 > 16
    values, errors = _adaptive_gk21(f, np.ones(2), BATCH_REL_TOL)
    assert (values[0], errors[0], values[1], errors[1]) == (v0, e0, v1, e1)


def test_batched_rule_names_the_member_that_cannot_converge():
    # an x^-0.9 singularity needs ~330 bisections for a 1e-10 budget
    def f(x, owner):
        return np.where(owner[:, None] == 1, x**-0.9, x * x)

    with pytest.raises(_Failed) as exc:
        _adaptive_gk21(f, np.ones(3), BATCH_REL_TOL, "member")
    assert (exc.value.index, exc.value.name) == (1, "member")
    assert exc.value.text == (" did not converge: the maximum number of subdivisions "
                              f"({MAX_PANELS}) was reached")


def test_batched_rule_rejects_non_finite_values():
    def f(x, owner):
        return np.where((owner[:, None] == 2) & (x > 0.5), math.nan, x)

    with pytest.raises(_Failed) as exc:
        _adaptive_gk21(f, np.ones(3), BATCH_REL_TOL, "member")
    assert (exc.value.index, exc.value.name) == (2, "member")
    assert exc.value.text.startswith(": non-finite integrand at x=0.99")


@pytest.mark.parametrize("kind,s,sigma", [(SpectrumKind.TE, 0.3, SIGMA),
                                          (SpectrumKind.TM, 0.3, SIGMA),
                                          (SpectrumKind.TE, 0.7, 27.0 / 8.0),
                                          (SpectrumKind.TM, 0.7, 27.0 / 8.0)])
def test_dielectric_error_within_budget_without_quad(kind, s, sigma, no_scipy_quad):
    sample = eval_I_dielectric(kind, s, sigma)
    assert 0.0 < sample.est_error <= max(ABS_TOL, DIELECTRIC_REL_TOL * abs(sample.value))


# ---------------------------------------------------------------------------
# vacuum integral
# ---------------------------------------------------------------------------


def test_closed_form_at_unit_damping():
    # Psi(3, 1/2) = pi^4, so the closed form is pi^4/24 - 2 there.
    assert vacuum_closed_form(1.0) == pytest.approx(math.pi**4 / 24.0 - 2.0, rel=1e-14)


def test_closed_form_domain():
    with pytest.raises(ValueError):
        vacuum_closed_form(0.0)


@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_vacuum_quadrature_matches_closed_form(s):
    sample = eval_I_vacuum(s)
    assert sample.value == pytest.approx(vacuum_closed_form(s), rel=1e-9)
    assert sample.kind is SpectrumKind.VACUUM
    assert sample.sigma == 1.0
    assert sample.s == s


def test_vacuum_error_within_budget_without_quad(no_scipy_quad):
    grid = make_grid(0.05, 1.0, 200)
    for sample in sample_curve(SpectrumKind.VACUUM, 1.0, grid) + [eval_I_vacuum(0.3)]:
        assert 0.0 < sample.est_error <= max(ABS_TOL, VACUUM_REL_TOL * abs(sample.value))


def test_vacuum_small_s_pole_strength():
    # I(s) -> 2 / s^4 as s -> 0; the correction enters only at O(s).
    s = 1e-3
    assert s**4 * vacuum_closed_form(s) == pytest.approx(2.0, rel=1e-9)


def test_vacuum_monotone_in_damping():
    values = [eval_I_vacuum(s).value for s in (0.5, 1.0, 2.0)]
    assert values[0] > values[1] > values[2] > 0.0


def test_vacuum_fixed_panels_converge():
    # every sample within 1e-13 of 30-digit Psi(3, s/2)/24 - 2/s^4, with an
    # error estimate no smaller than its actual error; at s = 1e-8 the first
    # panel is widened
    import mpmath

    points = np.concatenate([make_grid(0.05, 1.0, 200).points,
                             make_grid(0.04, 1.2, 400, Spacing.LOG).points,
                             [1e-8, 1e-3, 0.05, 1.0, 10.0, 200.0]])
    for sample in sample_curve(SpectrumKind.VACUUM, 1.0, points):
        with mpmath.workdps(30):
            s = mpmath.mpf(sample.s)
            exact = mpmath.polygamma(3, s / 2) / 24 - 2 / s**4
            error = abs(float((sample.value - exact) / exact))
        assert error <= 1e-13
        assert sample.est_error >= error * abs(sample.value)


def test_vacuum_budgets_down_to_1e_13():
    grid = make_grid(0.05, 1.0, 200)
    for rel_tol in (1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
        for sample in sample_curve(SpectrumKind.VACUUM, 1.0, grid, rel_tol):
            assert sample.est_error <= rel_tol * sample.value
    # 1e-14 lies past what the fixed panels reach, and is refused
    with pytest.raises(QuadratureError, match=r"^sample 0 \(s=0\.05\) failed: quadrature did "
                                              r"not converge: the error estimate"):
        sample_curve(SpectrumKind.VACUUM, 1.0, grid, 1e-14)


# ---------------------------------------------------------------------------
# dielectric double integral, dual route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,s", [(SpectrumKind.TE, 0.5), (SpectrumKind.TM, 0.8)])
def test_dielectric_against_brute_tensor(kind, s):
    sample = eval_I_dielectric(kind, s, SIGMA)
    ref = brute_dielectric(kind, s, SIGMA)
    assert sample.value == pytest.approx(ref, rel=1e-8)
    assert sample.kind is kind and sample.sigma == SIGMA


def test_dielectric_sigma_above_one_against_brute():
    sample = eval_I_dielectric(SpectrumKind.TE, 1.0, 27.0 / 8.0)
    ref = brute_dielectric(SpectrumKind.TE, 1.0, 27.0 / 8.0)
    assert math.isfinite(sample.value)
    assert sample.value == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("kind", [SpectrumKind.TE, SpectrumKind.TM])
def test_dielectric_inner_nonconvergence_raises(kind, monkeypatch):
    # one panel cannot meet the budget; the inner integral must say so, in
    # the same words in this process (one CPU) and on the helper team (two
    # CPUs), which is forked after the patch
    import casimir_laurent.quadrature as quadrature

    monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
    errors = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(QuadratureError, match=r"^sample 0 \(s=0\.5\) failed: inner "
                                                  r"quadrature at nu=\S+ did not converge") as exc:
            eval_I_dielectric(kind, 0.5, SIGMA)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert len(quadrature._team) == 2


def test_split_inner_batch_names_a_later_row(monkeypatch):
    # NaN at one node of the first outer step, whose inner integral is row 3
    # of 21: on two helpers that is integral 1 of part 1 (rows 1, 3, 5, ...),
    # and the error must name that node's nu on two CPUs as on one
    import casimir_laurent.quadrature as quadrature

    half = 0.5 * truncation_point(0.5)
    node = half - quadrature._XGK[3] * half

    def poisoned(kind, nu, y, sigma):
        return np.where(nu == node, math.nan, np.ones(np.broadcast(nu, y).shape))

    monkeypatch.setattr(quadrature, "dlog_cross", poisoned)
    errors = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(QuadratureError, match=r"^sample 0 \(s=0\.5\) failed: inner quadrature "
                           rf"at nu={re.escape(str(node))}: non-finite integrand at x=") as exc:
            eval_I_dielectric(SpectrumKind.TE, 0.5, SIGMA)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert len(quadrature._team) == 2


def test_split_inner_failure_is_the_unsplit_batch_failure(monkeypatch):
    # NaN at every y for row 5 of the first outer step's inner batch, and for
    # row 2 only at y in (0.2, 0.215) of its upper limit, which no node of
    # its first panel reaches.  The unsplit batch fails at its first step, in
    # row 5; on two helpers part 0 (rows 0, 2, 4, ...) runs on to row 2's
    # failure at a later step.  Both CPU counts must name row 5's nu
    import casimir_laurent.quadrature as quadrature

    reach = truncation_point(0.5)
    half = 0.5 * reach
    row5, row2 = half - quadrature._XGK[5] * half, half - quadrature._XGK[2] * half
    upper2 = math.sqrt(reach * reach - row2 * row2)

    def poisoned(kind, nu, y, sigma):
        shape = np.broadcast(nu, y).shape
        nu, y = np.broadcast_to(nu, shape), np.broadcast_to(y, shape)
        bad = (nu == row5) | ((nu == row2) & (y > 0.2 * upper2) & (y < 0.215 * upper2))
        return np.where(bad, math.nan, 1.0)

    monkeypatch.setattr(quadrature, "dlog_cross", poisoned)
    errors = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(QuadratureError, match=r"^sample 0 \(s=0\.5\) failed: inner quadrature "
                           r"at nu=16\.00823637090501: non-finite integrand at x=") as exc:
            eval_I_dielectric(SpectrumKind.TE, 0.5, SIGMA)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert len(quadrature._team) == 2


def test_dielectric_domain():
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.VACUUM, 1.0, SIGMA)
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.TE, 0.0, SIGMA)
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.TE, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.TE, 1.0, -0.3)


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------


def test_sample_curve_preserves_order():
    grid = [1.0, 0.5, 2.0]
    samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid)
    assert [smp.s for smp in samples] == grid
    for smp in samples:
        assert smp.value == pytest.approx(vacuum_closed_form(smp.s), rel=1e-9)


def test_sample_curve_accepts_grid_object():
    grid = make_grid(0.5, 1.0, 3, Spacing.LINEAR)
    samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid)
    assert [smp.s for smp in samples] == [0.5, 0.75, 1.0]


def test_sample_curve_tags_failing_index(monkeypatch):
    # a sample takes the fixed panels that start below X(s) = 49.93/s, which
    # is 62.4, 71.3 and 83.2 here: the first sample's last panel is [32, 64],
    # while the second and third also take [64, 128], the only panel with
    # nodes past 64 (its lowest 64.14)
    import casimir_laurent.quadrature as quadrature

    def poisoned(x):
        return np.where(x > 64.0, math.nan, vacuum_integrand(x))

    monkeypatch.setattr(quadrature, "vacuum_integrand", poisoned)
    with pytest.raises(QuadratureError, match=r"sample 1 \(s=0\.7\)"):
        sample_curve(SpectrumKind.VACUUM, 1.0, [0.8, 0.7, 0.6])


def test_vacuum_overflow_names_the_sample():
    # 2/s^4 passes the largest double below s ~ 3e-77, quietly, then fails
    with pytest.raises(QuadratureError, match=r"^sample 1 \(s=1e-80\) failed: quadrature: "
                                              r"the integral overflows a double$"):
        sample_curve(SpectrumKind.VACUUM, 1.0, [1e-76, 1e-80])


def cpus(monkeypatch, count):
    """Make sample_curve see `count` CPUs in its affinity mask."""
    import casimir_laurent.quadrature as quadrature

    monkeypatch.setattr(quadrature.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.mark.parametrize("sigma", [8.0 / 27.0, 27.0 / 8.0])
@pytest.mark.parametrize("kind", [SpectrumKind.TE, SpectrumKind.TM])
def test_dielectric_curve_equals_single_points(kind, sigma, monkeypatch):
    # both kinds in one call, `kind` first: five points make chunks of 3 and
    # 2 on two CPUs and of 5 on one, and the helper team (two helpers) and
    # the serial route return each sample bit for bit, in the order asked for
    other = SpectrumKind.TM if kind is SpectrumKind.TE else SpectrumKind.TE
    grid = [0.7, 0.775, 0.85, 0.925, 1.0]
    alone = [eval_I_dielectric(k, s, sigma) for k in (kind, other) for s in grid]
    for count in (2, 1):
        cpus(monkeypatch, count)
        # dataclass equality: s, value, est_error, kind and sigma, each exactly
        assert sample_curve((kind, other), sigma, grid) == alone, count


def test_dielectric_curve_names_first_failing_index(monkeypatch, tmp_path):
    # two helpers and chunks of two points: 15 chunks for 30 points.  The
    # kernel is a cheap stand-in that sees a chunk start on its first call,
    # which holds every member's first outer nodes, and is NaN at sample 5
    # after 0.5 s and at sample 7 at once; every other chunk starts 0.25 s
    # late.  The error names sample 5, the second member of the third chunk,
    # although its chunk failed after sample 7's; it was raised in a helper,
    # and once the fourth chunk has failed no later chunk is handed out
    import os
    import time

    import casimir_laurent.quadrature as quadrature

    grid = [round(0.5 + 0.05 * j, 2) for j in range(30)]
    reach = truncation_point(np.array(grid))
    top = 0.5 * reach + (0.5 * reach) * quadrature._XGK[0]   # each sample's largest first node

    def poisoned(kind, nu, y, sigma):
        new = [j for j in range(len(grid)) if np.any(nu == top[j])
               and not (tmp_path / f"started-{j}").exists()]
        for j in new:
            (tmp_path / f"started-{j}").touch()
        if new:
            time.sleep(0.5 if 5 in new else 0.0 if 7 in new else 0.25)
        if np.any(nu == top[5]):
            (tmp_path / f"poisoned-{os.getpid()}").touch()
        bad = (nu == top[5]) | (nu == top[7])
        return np.where(bad, math.nan, np.ones(np.broadcast(nu, y).shape))

    monkeypatch.setattr(quadrature, "dlog_cross", poisoned)
    monkeypatch.setattr(quadrature, "MAX_CHUNK", 2)
    cpus(monkeypatch, 2)
    with pytest.raises(QuadratureError, match=r"^sample 5 \(s=0\.75\) failed: inner quadrature "
                                              r"at nu=\S+: non-finite integrand at x="):
        sample_curve(SpectrumKind.TE, SIGMA, grid)
    assert (tmp_path / "started-7").exists()
    poisoned_in = [p.name for p in tmp_path.glob("poisoned-*")]
    assert len(poisoned_in) == 1 and poisoned_in != [f"poisoned-{os.getpid()}"]
    assert not (tmp_path / "started-29").exists()


def test_mixed_kind_curve_names_the_first_failing_chunk(monkeypatch, tmp_path):
    # TE and TM curves of six points in chunks of two: TE chunks 0-2, then
    # TM chunks 3-5 in curve order, TM handed out first.  The stand-in
    # kernel is NaN for TM at sample 0 at once, and for TE at sample 3;
    # sample 2 of each kind starts 0.25 s late, so TM sample 0 has failed
    # while every TE chunk is still queued.  No chunk is handed out after
    # that failure, the TE chunks run here in curve order, and both CPU
    # counts name TE sample 3, the first failure in curve order.  TE samples
    # 4 and 5 never start (a helper freed by TM sample 2 would take them)
    import casimir_laurent.quadrature as quadrature

    grid = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75]
    reach = truncation_point(np.array(grid))
    top = 0.5 * reach + (0.5 * reach) * quadrature._XGK[0]   # each sample's largest first node

    def poisoned(kind, nu, y, sigma):
        new = [j for j in range(len(grid)) if np.any(nu == top[j])
               and not (tmp_path / f"started-{kind.value}-{j}").exists()]
        for j in new:
            (tmp_path / f"started-{kind.value}-{j}").touch()
        if 2 in new:
            time.sleep(0.25)
        bad = (nu == top[0]) if kind is SpectrumKind.TM else (nu == top[3])
        return np.where(bad, math.nan, np.ones(np.broadcast(nu, y).shape))

    monkeypatch.setattr(quadrature, "dlog_cross", poisoned)
    monkeypatch.setattr(quadrature, "MAX_CHUNK", 2)
    errors = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        for started in tmp_path.glob("started-*"):
            started.unlink()
        with pytest.raises(QuadratureError, match=r"^sample 3 \(s=0\.65\) failed: inner quadrature "
                                                  r"at nu=\S+: non-finite integrand at x=") as exc:
            sample_curve((SpectrumKind.TE, SpectrumKind.TM), SIGMA, grid)
        errors.append(str(exc.value))
        assert (tmp_path / "started-tm-0").exists() == (count == 2)
        assert not (tmp_path / "started-te-4").exists()
    assert errors[0] == errors[1]


def test_dielectric_curve_names_the_chunk_of_a_kernel_error(monkeypatch):
    # the kernel raises for its whole array, so a batch cannot tell which
    # member failed: the error names the chunk, as a QuadratureError (exit 3)
    import casimir_laurent.quadrature as quadrature
    from casimir_laurent.integrands import CrossProductError

    def broken(kind, nu, y, sigma):
        raise CrossProductError("TE cross product lost its fixed sign at nu=1.0, y=2.0")

    monkeypatch.setattr(quadrature, "dlog_cross", broken)
    cpus(monkeypatch, 1)
    with pytest.raises(QuadratureError, match=r"^one of samples 0 to 2 \(s=0\.5 to 0\.7\) "
                                              r"failed: TE cross product lost its fixed sign"):
        sample_curve(SpectrumKind.TE, SIGMA, [0.5, 0.6, 0.7])


def test_single_point_on_two_cpus_equals_one_cpu(monkeypatch):
    # on one CPU a lone point is sampled in this process and starts no
    # other, nor does a vacuum point on two; on two CPUs the helper team
    # takes its inner integrals, and every field keeps its bits
    import os

    import casimir_laurent.quadrature as quadrature

    def refuse():
        raise AssertionError("a process was started")

    cases = [(kind, sigma) for kind in (SpectrumKind.TE, SpectrumKind.TM)
             for sigma in (8.0 / 27.0, 27.0 / 8.0)]
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", refuse)
        cpus(patch, 1)
        alone = [eval_I_dielectric(kind, 0.9, sigma) for kind, sigma in cases]
        cpus(patch, 2)
        assert eval_I_vacuum(0.5).value == pytest.approx(vacuum_closed_form(0.5), rel=1e-9)
    cpus(monkeypatch, 2)
    # dataclass equality: s, value, est_error, kind and sigma, each exactly
    assert [eval_I_dielectric(kind, 0.9, sigma) for kind, sigma in cases] == alone
    assert len(quadrature._team) == 2


def test_a_helper_that_ends_mid_sample_closes_the_team(monkeypatch):
    # a helper that ends before it replies (killed, say) is named, and the
    # team is closed, so that the next call forks a new one
    import os

    import casimir_laurent.quadrature as quadrature

    parent = os.getpid()

    def ending(kind, nu, y, sigma):
        if os.getpid() != parent:
            os._exit(1)
        return dlog_cross(kind, nu, y, sigma)

    monkeypatch.setattr(quadrature, "dlog_cross", ending)
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"^a sampling helper process ended before it replied"):
        eval_I_dielectric(SpectrumKind.TE, 1.0, SIGMA)
    assert quadrature._team == []


def test_single_point_kernel_error_names_the_sample(monkeypatch):
    # the kernel's error at a lone point is a QuadratureError naming it, in
    # the same words on one CPU and, raised in a helper, on two
    import casimir_laurent.quadrature as quadrature
    from casimir_laurent.integrands import CrossProductError

    def broken(kind, nu, y, sigma):
        raise CrossProductError("TM cross product lost its fixed sign at nu=1.0, y=2.0")

    monkeypatch.setattr(quadrature, "dlog_cross", broken)
    errors = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        with pytest.raises(QuadratureError, match=r"^sample 0 \(s=0\.5\) failed: "
                                                  r"TM cross product lost its fixed sign") as exc:
            eval_I_dielectric(SpectrumKind.TM, 0.5, SIGMA)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert len(quadrature._team) == 2


@pytest.mark.parametrize("kind,sigma,grid", [
    (SpectrumKind.TE, 1.0, [0.5, 0.6]),
    (SpectrumKind.TM, 0.0, [0.5, 0.6]),
    (SpectrumKind.TE, math.nan, [0.5, 0.6]),
    (SpectrumKind.TM, math.inf, [0.5, 0.6]),
    (SpectrumKind.TE, SIGMA, [0.5, math.nan]),
    (SpectrumKind.TM, SIGMA, [0.5, 0.6, math.inf]),
    (SpectrumKind.TE, SIGMA, [0.5, 0.0]),
    ("te", SIGMA, [0.5, 0.6]),
    ((SpectrumKind.TE, "tm"), SIGMA, [0.5, 0.6]),
    ((SpectrumKind.TM, SpectrumKind.TE), SIGMA, [0.5, -0.6]),
    (SpectrumKind.TE, SIGMA, [0.5, 1e-9]),
    ((SpectrumKind.VACUUM, SpectrumKind.TM), 1e300, [0.5, 0.6]),
], ids=["sigma-1", "sigma-0", "sigma-nan", "sigma-inf", "s-nan", "s-inf", "s-0", "kind",
        "second-kind", "both-kinds-s", "reach-small-s", "reach-large-sigma"])
def test_dielectric_curve_checks_before_any_sample(kind, sigma, grid, monkeypatch):
    import casimir_laurent.quadrature as quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("a sample or the helper team was started")

    for name in ("eval_I_dielectric", "_sample_chunk", "_batch", "_helpers"):
        monkeypatch.setattr(quadrature, name, refuse)
    cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=r"requires 0 < s < inf|sigma must lie in|no cross|"
                                         r"past 2\^30"):
        sample_curve(kind, sigma, grid)


def test_check_reach_holds_kernel_arguments_to_two_to_the_thirty():
    # the largest argument is max(1, sigma) * X(s), X(5e-8) ~ 1.0e9
    check_reach(SIGMA, 5e-8)
    check_reach(SIGMA * 3.0, 5e-8)
    for sigma, s in [(SIGMA, 4e-8), (27.0 / 8.0, 5e-8), (1.5e308, 29.0)]:
        with pytest.raises(ValueError, match=r"reach kernel arguments of \S+, past 2\^30"):
            check_reach(sigma, s)
    assert sample_curve(SpectrumKind.VACUUM, 1.0, [1e-9])[0].value > 0.0


@pytest.mark.parametrize("grid", [make_grid(0.05, 1.0, 200),
                                  make_grid(0.01, 1.0, 200, Spacing.LOG)],
                         ids=["linear", "log"])
def test_vacuum_curve_equals_single_points(grid):
    for sample in sample_curve(SpectrumKind.VACUUM, 1.0, grid):
        alone = eval_I_vacuum(sample.s)
        assert sample.value == alone.value and sample.est_error == alone.est_error


def test_vacuum_curve_nonconvergence_names_the_sample(monkeypatch):
    import casimir_laurent.quadrature as quadrature

    monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
    with pytest.raises(QuadratureError, match=r"^sample 0 \(s=0\.5\) failed: "
                                              r"quadrature did not converge"):
        sample_curve(SpectrumKind.VACUUM, 1.0, [0.5, 0.6])


def test_vacuum_damping_shift_identity():
    # Moving the damping radius r to sqrt(r^2 + c^2) shifts c0 by
    # -c^2 a1/2 + c^4 a3/4 for F(r) ~ a3 r^3 + a2 r^2 + a1 r + a0, and adds
    # an s ln s term with coefficient c^2 a0/2 - c^4 a2/8.  The vacuum
    # F = r^3 coth(r)/3 has a3 = 1/3 and no other power, so at c = 1 the
    # difference curve I_c - I is Laurent with a pole of order -2 and c0 = 1/12.
    grid = make_grid(0.05, 1.0, 200)
    s = grid.points

    def integrand(x, owner):
        return vacuum_integrand(x) * np.exp(-s[owner, None] * np.sqrt(x * x + 1.0))

    shifted, _ = _adaptive_gk21(integrand, truncation_point(s), 1e-11)
    diff = shifted - np.array([vacuum_closed_form(float(v)) for v in s])
    result = regularize((s, diff), LaurentParams(N2=12))
    assert result.pole_order == -2
    assert result.c0 == pytest.approx(1.0 / 12.0, rel=1e-5)
