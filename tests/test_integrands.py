"""Cross-product oracles.

Every nontrivial value is checked against a 40-digit dual route built from
mpmath Bessel functions, including the reduction of the oscillatory real-axis
cross products to the modified-Bessel form used by the package, and the
log-derivatives also against the graded-medium mode equations integrated
directly, a route that uses no Bessel function at all.  The package
needs only the log-derivatives of the cross products; their values are read
here from the same log-form parts the log-derivatives are built from.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from casimir_laurent import integrands
from casimir_laurent.integrands import (Y_SMALL, CrossProductError, SpectrumKind,
                                        _te_term, _tm_term, dlog_cross,
                                        dlog_cross_te, dlog_cross_tm,
                                        vacuum_integrand)
from casimir_laurent.quadrature import sample_curve

mp.mp.dps = 40

SIGMA = 8.0 / 27.0


def mp_te(nu, y, sigma):
    nu, y, sigma = mp.mpf(nu), mp.mpf(y), mp.mpf(sigma)
    return (mp.besseli(nu, y) * mp.besselk(nu, sigma * y)
            - mp.besseli(nu, sigma * y) * mp.besselk(nu, y))


def mp_tm(nu, y, sigma):
    nu, y, sigma = mp.mpf(nu), mp.mpf(y), mp.mpf(sigma)
    mu = mp.sqrt(nu * nu + 1)

    def it(t):
        return t * mp.besseli(mu, t, derivative=1) + mp.besseli(mu, t)

    def kt(t):
        # mpmath's besselk does not honour the derivative keyword; use the
        # exact recurrence K' = -(K_{mu-1} + K_{mu+1}) / 2 instead.
        kp = -(mp.besselk(mu - 1, t) + mp.besselk(mu + 1, t)) / 2
        return t * kp + mp.besselk(mu, t)

    return it(y) * kt(sigma * y) - it(sigma * y) * kt(y)


def magnitude(term, nu, y, sigma):
    """|A - B| = |A (1 - e^delta)| from the package's log-form term."""
    ln_a, _ = term(nu, y, sigma * y, 1.0, sigma)
    ln_b, _ = term(nu, sigma * y, y, sigma, 1.0)
    return math.exp(ln_a + math.log(abs(math.expm1(ln_b - ln_a))))


def cross_te(nu, y, sigma):
    """|P_nu(y, sigma)| from the package's TE terms."""
    return magnitude(_te_term, nu, y, sigma)


def cross_tm(nu, y, sigma):
    """|Q_mu(y, sigma)| from the package's TM terms."""
    return magnitude(_tm_term, nu, y, sigma)


# ---------------------------------------------------------------------------
# vacuum kernel
# ---------------------------------------------------------------------------


def test_vacuum_at_one_zero():
    # (1/3) coth(1), exact arithmetic
    assert vacuum_integrand(1.0) == pytest.approx(0.4376784284997771, rel=1e-15)


def test_vacuum_large_argument():
    ref = float(mp.mpf(1000) / 3 / mp.tanh(10))
    assert vacuum_integrand(10.0) == pytest.approx(ref, rel=1e-8)


def test_vacuum_small_argument_leading_term():
    r = 1e-4
    assert vacuum_integrand(r) == pytest.approx(r * r / 3.0, rel=1e-7)


def test_vacuum_series_seam():
    # The truncated series and the closed form must agree where they meet.
    r = 1e-2
    r2 = r * r
    series = (r2 / 3.0 + r2 * r2 / 9.0 - r2**3 / 135.0 + 2.0 * r2**4 / 2835.0)
    closed = (r**3 / 3.0) / math.tanh(r)
    assert series == pytest.approx(closed, rel=1e-12)


def test_vacuum_domain():
    with pytest.raises(ValueError):
        vacuum_integrand(-0.1)
    with pytest.raises(ValueError):
        vacuum_integrand(np.array([0.5, -0.1]))


def test_vacuum_array_equals_scalar():
    # both sides of the r = 1e-2 series seam, and r = 0 (series only)
    r = np.array([[0.0, 1e-4, 5e-3, 0.0099999], [1e-2, 0.0100001, 1.0, 40.0]])
    out = vacuum_integrand(r)
    assert out.shape == r.shape
    for x, v in zip(r.ravel(), out.ravel()):
        scalar = vacuum_integrand(float(x))
        assert type(scalar) is float and v == scalar


# ---------------------------------------------------------------------------
# generators and dispatch
# ---------------------------------------------------------------------------


def test_generator_rejects_unit_contrast():
    # A curve samples one mode-condition family: vacuum, or TE/TM at contrast
    # sigma; sigma = 1 makes the TE/TM cross product vanish identically.
    with pytest.raises(ValueError):
        sample_curve(SpectrumKind.TE, 1.0, [0.5])
    with pytest.raises(ValueError):
        sample_curve(SpectrumKind.TM, 1.0, [0.5])
    sample_curve(SpectrumKind.VACUUM, 1.0, [0.5])


def test_generator_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        sample_curve(SpectrumKind.TE, 0.0, [0.5])
    with pytest.raises(ValueError):
        sample_curve(SpectrumKind.TM, -2.0, [0.5])


def test_dispatch_matches_direct():
    assert dlog_cross(SpectrumKind.TE, 1.0, 2.0, SIGMA) == dlog_cross_te(1.0, 2.0, SIGMA)
    assert dlog_cross(SpectrumKind.TM, 1.0, 2.0, SIGMA) == dlog_cross_tm(1.0, 2.0, SIGMA)
    with pytest.raises(ValueError):
        dlog_cross(SpectrumKind.VACUUM, 1.0, 2.0, SIGMA)


@pytest.mark.parametrize("func", [dlog_cross_te, dlog_cross_tm])
def test_cross_domain_errors(func):
    with pytest.raises(ValueError):
        func(1.0, 0.0, SIGMA)
    with pytest.raises(ValueError):
        func(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        func(1.0, 2.0, -0.5)


# ---------------------------------------------------------------------------
# TE cross product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu,y", [(0.0, 0.5), (1.0, 1.0), (2.5, 4.0),
                                  (10.0, 0.7), (0.3, 12.0), (40.0, 20.0)])
def test_te_value_against_mpmath(nu, y):
    ref = float(mp_te(nu, y, SIGMA))
    assert ref > 0.0
    assert cross_te(nu, y, SIGMA) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("nu,y", [(0.0, 0.5), (1.0, 1.0), (2.5, 4.0),
                                  (10.0, 0.7), (0.3, 12.0), (40.0, 20.0)])
def test_te_dlog_against_mpmath(nu, y):
    ref = float(mp.diff(lambda u: mp.log(mp_te(nu, u, SIGMA)), mp.mpf(y)))
    assert dlog_cross_te(nu, y, SIGMA) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_te_value_small_y_limit():
    # P -> (sigma^-nu - sigma^nu) / (2 nu) as y -> 0
    nu, y = 0.7, 1e-6
    limit = (SIGMA**-nu - SIGMA**nu) / (2.0 * nu)
    assert cross_te(nu, y, SIGMA) == pytest.approx(limit, rel=1e-6)


@pytest.mark.parametrize("nu", [0.0, 0.4, 1.0, 3.0])
def test_te_dlog_small_y_branch(nu):
    # The analytic small-y limit has to splice onto the log-domain formula.
    y = 5e-5
    got = dlog_cross_te(nu, y, SIGMA)
    ref = float(mp.diff(lambda u: mp.log(mp_te(nu, u, SIGMA)), mp.mpf(y)))
    assert got == pytest.approx(ref, rel=1e-4, abs=1e-12)
    assert abs(got) < 1e-3


def test_te_dlog_large_y_asymptote():
    y = 1000.0
    assert abs(dlog_cross_te(1.0, y, SIGMA) - (1.0 - SIGMA)) <= 2.0 / y


def test_te_dlog_matches_own_log_value():
    nu, y, h = 2.0, 5.0, 1e-5

    def ln_p(u):
        return math.log(cross_te(nu, u, SIGMA))

    est = (ln_p(y + h) - ln_p(y - h)) / (2.0 * h)
    assert dlog_cross_te(nu, y, SIGMA) == pytest.approx(est, abs=1e-6)


# ---------------------------------------------------------------------------
# TM cross product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu,y", [(0.0, 0.5), (1.0, 1.0), (2.5, 4.0),
                                  (10.0, 0.7), (0.3, 12.0), (40.0, 20.0)])
def test_tm_value_against_mpmath(nu, y):
    ref = float(mp_tm(nu, y, SIGMA))
    assert ref < 0.0
    assert cross_tm(nu, y, SIGMA) == pytest.approx(abs(ref), rel=1e-10)


@pytest.mark.parametrize("nu,y", [(0.0, 0.5), (1.0, 1.0), (2.5, 4.0),
                                  (10.0, 0.7), (0.3, 12.0), (40.0, 20.0)])
def test_tm_dlog_against_mpmath(nu, y):
    ref = float(mp.diff(lambda u: mp.log(-mp_tm(nu, u, SIGMA)), mp.mpf(y)))
    assert dlog_cross_tm(nu, y, SIGMA) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_tm_value_small_y_limit():
    # |Q| -> nu^2 (sigma^-mu - sigma^mu) / (2 mu) as y -> 0
    nu, y = 0.7, 1e-6
    mu = math.hypot(nu, 1.0)
    limit = nu * nu * (SIGMA**-mu - SIGMA**mu) / (2.0 * mu)
    assert cross_tm(nu, y, SIGMA) == pytest.approx(limit, rel=1e-6)


@pytest.mark.parametrize("nu", [0.3, 0.6, 2.0])
def test_tm_dlog_small_y_branch(nu):
    y = 5e-5
    got = dlog_cross_tm(nu, y, SIGMA)
    ref = float(mp.diff(lambda u: mp.log(-mp_tm(nu, u, SIGMA)), mp.mpf(y)))
    assert got == pytest.approx(ref, rel=1e-4, abs=1e-12)


def test_tm_dlog_matches_own_log_value():
    nu, y, h = 2.0, 5.0, 1e-5

    def ln_q(u):
        return math.log(cross_tm(nu, u, SIGMA))

    est = (ln_q(y + h) - ln_q(y - h)) / (2.0 * h)
    assert dlog_cross_tm(nu, y, SIGMA) == pytest.approx(est, abs=1e-6)


# ---------------------------------------------------------------------------
# imaginary-axis reduction of the oscillatory cross products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu,y", [(0.5, 1.0), (1.0, 3.0), (4.2, 8.0), (2.0, 20.0)])
def test_te_phase_reduction(nu, y):
    # |J_nu(iy) Y_nu(i sigma y) - J_nu(i sigma y) Y_nu(iy)| = (2/pi) P_nu(y, sigma)
    z = mp.mpc(0, y)
    f = (mp.besselj(nu, z) * mp.bessely(nu, SIGMA * z)
         - mp.besselj(nu, SIGMA * z) * mp.bessely(nu, z))
    assert float(abs(f)) == pytest.approx(
        (2.0 / math.pi) * cross_te(nu, y, SIGMA), rel=1e-8)


@pytest.mark.parametrize("nu,y", [(0.5, 1.0), (1.0, 3.0), (4.2, 8.0), (2.0, 20.0)])
def test_tm_phase_reduction(nu, y):
    mu = mp.sqrt(mp.mpf(nu) ** 2 + 1)
    z = mp.mpc(0, y)

    def jt(t):
        return t * mp.besselj(mu, t, derivative=1) + mp.besselj(mu, t)

    def yt(t):
        return t * mp.bessely(mu, t, derivative=1) + mp.bessely(mu, t)

    f = jt(z) * yt(SIGMA * z) - jt(SIGMA * z) * yt(z)
    assert float(abs(f)) == pytest.approx(
        (2.0 / math.pi) * cross_tm(nu, y, SIGMA), rel=1e-8)


# ---------------------------------------------------------------------------
# Maxwell shooting through the graded layer
# ---------------------------------------------------------------------------


def shoot(kind, nu, y, sigma):
    """d/dy ln|P| (TE) or d/dy ln|Q| (TM) from the mode equation of the
    layer z in [0, 1] with beta = ln sigma, integrated with its y-variation.

    With u = y e^{beta z} the TE field obeys E'' = beta^2 (u^2 + nu^2) E, and
    E(0) = 0, E'(0) = 1 give E(1) = -P / beta; the TM field obeys
    H'' - 2 beta H' = beta^2 (u^2 + nu^2) H, and H(0) = 1, H'(0) = 0 give
    H'(1) = beta sigma Q.  Neither factor depends on y, so the log-derivative
    is E_y(1) / E(1) or H'_y(1) / H'(1), with no finite difference.
    """
    beta = math.log(sigma)
    drag = 2.0 * beta if kind == "tm" else 0.0

    def rhs(z, w):
        f, df, fy, dfy = w
        e2 = math.exp(2.0 * beta * z)
        k = beta * beta * (y * y * e2 + nu * nu)
        return [df, drag * df + k * f,
                dfy, drag * dfy + k * fy + 2.0 * beta * beta * y * e2 * f]

    w0 = [0.0, 1.0, 0.0, 0.0] if kind == "te" else [1.0, 0.0, 0.0, 0.0]
    sol = solve_ivp(rhs, (0.0, 1.0), w0, method="DOP853", rtol=1e-12, atol=1e-18)
    assert sol.success, sol.message
    f, df, fy, dfy = sol.y[:, -1]
    return fy / f if kind == "te" else dfy / df


@pytest.mark.parametrize("kind,func", [("te", dlog_cross_te), ("tm", dlog_cross_tm)])
def test_dlog_matches_maxwell_shooting(kind, func):
    worst = 0.0
    for sigma in (8.0 / 27.0, 0.6, 2.5, 27.0 / 8.0):
        for nu in (0.0, 0.4, 1.0, 3.0, 12.0):
            for y in (0.05, 0.7, 4.0, 20.0):
                ref = shoot(kind, nu, y, sigma)
                worst = max(worst, abs(func(nu, y, sigma) - ref) / abs(ref))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# sigma > 1 reduction
# ---------------------------------------------------------------------------


def test_sigma_above_one_exact_reduction():
    nu, y, sigma = 0.8, 2.0, 27.0 / 8.0
    for dlog in (dlog_cross_te, dlog_cross_tm):
        assert dlog(nu, y, sigma) == sigma * dlog(nu, sigma * y, 1.0 / sigma)


@pytest.mark.parametrize("maker,mp_func,sign", [(cross_te, mp_te, -1.0),
                                                (cross_tm, mp_tm, +1.0)])
def test_sigma_above_one_against_mpmath(maker, mp_func, sign):
    # P flips sign when sigma crosses 1 (and Q flips back to positive); the
    # log-derivatives reduce through |P(y, sigma)| = |P(sigma y, 1/sigma)|.
    nu, y, sigma = 1.3, 1.7, 27.0 / 8.0
    ref = mp_func(nu, y, sigma)
    assert float(ref) * sign > 0.0
    assert maker(nu, sigma * y, 1.0 / sigma) == pytest.approx(float(abs(ref)), rel=1e-9)
    dref = float(mp.diff(lambda u: mp.log(abs(mp_func(nu, u, sigma))), mp.mpf(y)))
    dlog = dlog_cross_te if maker is cross_te else dlog_cross_tm
    assert dlog(nu, y, sigma) == pytest.approx(dref, rel=1e-9)


# ---------------------------------------------------------------------------
# robustness scan
# ---------------------------------------------------------------------------


def test_no_sign_loss_over_working_range():
    # The quadrature sweeps roughly this (nu, y) box; nothing may raise and
    # every dlog must come back finite.
    for nu in (0.0, 0.3, 1.0, 2.5, 10.0, 50.0, 200.0):
        for k in range(-6, 3):
            y = 10.0**k
            for fn in (dlog_cross_te, dlog_cross_tm):
                val = fn(nu, y, SIGMA)
                assert math.isfinite(val), (fn.__name__, nu, y)


# ---------------------------------------------------------------------------
# array evaluation
# ---------------------------------------------------------------------------

ARRAY_NU = np.array([0.0, 0.3, 0.6, 1.0, 2.5, 40.0, 250.0])
# on both sides of Y_SMALL before and after the sigma > 1 reflection y -> sigma y
ARRAY_Y = np.array([1e-6, 2e-5, 5e-5, 9.9e-5, 1e-4, 2e-4, 0.3, 5.0, 60.0])


@pytest.mark.parametrize("func", [dlog_cross_te, dlog_cross_tm])
@pytest.mark.parametrize("sigma", [SIGMA, 27.0 / 8.0])
def test_dlog_array_equals_scalar(func, sigma):
    reflected = max(sigma, 1.0) * ARRAY_Y
    assert (reflected < Y_SMALL).any() and (reflected >= Y_SMALL).any()
    nu, y = np.meshgrid(ARRAY_NU, ARRAY_Y, indexing="ij")
    got = func(nu, y, sigma)
    assert got.shape == nu.shape
    ref = np.array([[func(float(n), float(v), sigma) for v in ARRAY_Y] for n in ARRAY_NU])
    assert np.isfinite(ref).all()
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("func,name", [(dlog_cross_te, "_te_term"),
                                       (dlog_cross_tm, "_tm_term")])
def test_dlog_array_names_first_sign_loss(func, name, monkeypatch):
    # rho = e^delta = 1 makes the cross product vanish: force it at the last
    # two of four points (ln B = ln A, the B call with its arguments swapped);
    # the error must name the first of them
    original = getattr(integrands, name)

    def forced(nu, x, t, cx, ct):
        ln, d = original(nu, x, t, cx, ct)
        if cx == 1.0:   # A = term(y, sigma y, 1, sigma)
            return ln, d
        return np.where(t >= 2.0, original(nu, t, x, ct, cx)[0], ln), d

    monkeypatch.setattr(integrands, name, forced)
    with pytest.raises(CrossProductError, match=r"at nu=3\.0, y=2\.0, sigma="):
        func(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 1.0, 2.0, 3.0]), SIGMA)
