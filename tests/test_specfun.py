"""Special-function oracles: closed forms, Wronskian, recurrences, and
dual-route checks against 40-digit arithmetic.

The package evaluates modified Bessel functions only through
`log_bessel_ik`, so the closed forms and recurrences are checked on its
logarithms and adjacent-order ratios.  The ordinary J, Y checks call
`scipy.special` directly: they pin the real-axis conventions from which the
phase-reduction oracles in `test_integrands.py` start.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ive, jv, jvp, kv, kve, yv, yvp

from casimir_laurent.integrands import _tm_i_factor, _tm_k_factor
from casimir_laurent.specfun import _GAP_LIMIT, _gap, _gap_below_limit, log_bessel_ik
from vacuum_oracles import polygamma3

mp.mp.dps = 40


def test_i_scaled_half_order_closed_form():
    # e^{-1} I_{1/2}(1) = e^{-1} sqrt(2/pi) sinh(1)
    expect = math.exp(-1.0) * math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    li, _, _, _ = log_bessel_ik(0.5, 1.0)
    assert math.exp(li - 1.0) == pytest.approx(expect, rel=1e-12)


def test_k_scaled_half_order_closed_form():
    # e^{+1} K_{1/2}(1) = sqrt(pi/2)
    _, _, lk, _ = log_bessel_ik(0.5, 1.0)
    assert math.exp(lk + 1.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)


def test_k_scaled_even_in_order():
    # The ratio K_{nu-1}/K_nu is evaluated with order |nu - 1| (K_{-nu} = K_nu).
    _, _, _, r = log_bessel_ik(0.3, 2.0)
    assert r == pytest.approx(kv(-0.7, 2.0) / kv(0.3, 2.0), rel=1e-14)


def test_j_half_order_zero_at_pi():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin(x) vanishes at x = pi
    assert abs(jv(0.5, math.pi)) < 1e-10


def test_j_small_argument_limit():
    assert jv(0.0, 1e-8) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.5, 0.7, 1.7, 5.0, 20.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 2.3, 10.0, 100.0])
def test_jy_wronskian(nu, x):
    w = jv(nu, x) * yvp(nu, x) - jvp(nu, x) * yv(nu, x)
    assert abs(x * w - 2.0 / math.pi) <= 1e-9


def test_log_bessel_ik_domain():
    with pytest.raises(ValueError):
        log_bessel_ik(1.0, 0.0)
    with pytest.raises(ValueError):
        log_bessel_ik(1.0, -2.0)
    with pytest.raises(ValueError, match=r"got -2\.0$"):
        log_bessel_ik(np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 0.0]))
    with pytest.raises(ValueError, match=r"requires finite nu >= 0, got -0\.5$"):
        log_bessel_ik(-0.5, 1.0)


@pytest.mark.parametrize("nu,x,t,bad", [
    (math.nan, 1.0, None, "nu >= 0, got nan"),
    (math.inf, 1.0, None, "nu >= 0, got inf"),
    (1.0, math.nan, None, "arguments > 0, got nan"),
    (1.0, math.inf, None, "arguments > 0, got inf"),
    (1.0, 1.0, math.nan, "arguments > 0, got nan"),
    (1.0, 1.0, math.inf, "arguments > 0, got inf"),
    (np.array([1.0, 2.0]), np.array([1.0, math.nan]), None, "arguments > 0, got nan"),
], ids=["nu-nan", "nu-inf", "x-nan", "x-inf", "t-nan", "t-inf", "x-array-nan"])
def test_log_bessel_ik_rejects_non_finite_input(nu, x, t, bad):
    # each is rejected by name before any branch sees it
    with pytest.raises(ValueError, match=rf"requires finite {bad}$"):
        log_bessel_ik(nu, x, t)


def test_k_series_stops_at_the_last_positive_order():
    # nu = 1.2 at t = 1e-250 is past the gap limit below order 200, so ln K
    # comes from the ascending series, which stops once nu - k < 1/2; the
    # ratio's order 0.2 stays on the scaled branch
    _, _, lk, r = log_bessel_ik(1.2, 1e-250)
    nu, t = mp.mpf(1.2), mp.mpf(1e-250)
    k = mp.besselk(nu, t)
    assert lk == pytest.approx(float(mp.log(k)), rel=1e-15, abs=0)
    assert r == pytest.approx(float(mp.besselk(nu - 1, t) / k), rel=1e-12, abs=0)


def test_i_derivative_recurrence_symmetry():
    # I_0' = I_1 (I_{-1} = I_1): the log-derivative q + nu/t at nu = 0.
    _, q, _, _ = log_bessel_ik(0.0, 2.0)
    ref = float(mp.besseli(0, 2, derivative=1) / mp.besseli(0, 2))
    assert q == pytest.approx(ref, rel=1e-12)


def test_k_derivative_recurrence_symmetry():
    # K_0' = -K_1 (K_{-1} = K_1): the log-derivative -(r + nu/t) at nu = 0.
    _, _, _, r = log_bessel_ik(0.0, 2.0)
    ref = float(mp.diff(lambda u: mp.log(mp.besselk(0, u)), mp.mpf(2)))
    assert -r == pytest.approx(ref, rel=1e-12)


def test_derivative_against_central_difference():
    # I' = I (q + nu/y) and K' = -K (r + nu/y) from the adjacent-order ratios.
    nu, y, h = 1.4, 3.0, 1e-4
    li, q, lk, r = log_bessel_ik(nu, y)
    i_deriv = math.exp(li) * (q + nu / y)
    k_deriv = -math.exp(lk) * (r + nu / y)
    i_est = (math.exp(log_bessel_ik(nu, y + h)[0])
             - math.exp(log_bessel_ik(nu, y - h)[0])) / (2.0 * h)
    k_est = (math.exp(log_bessel_ik(nu, y + h)[2])
             - math.exp(log_bessel_ik(nu, y - h)[2])) / (2.0 * h)
    assert abs(i_deriv - i_est) <= 1e-6
    assert abs(k_deriv - k_est) <= 1e-6


def test_tilde_composes_with_derivatives():
    # The TM factors It = t I' + I and Kt = t K' + K at mu = 1 (the nu = 0
    # mode), against 40-digit derivatives.
    mu, t = 1.0, 2.0
    li, q, lk, r = log_bessel_ik(mu, t)
    ln_it, _ = _tm_i_factor(mu, 0.0, t, li, q)
    ln_kt, _ = _tm_k_factor(mu, 0.0, t, lk, r)
    it = t * mp.besseli(mu, t, derivative=1) + mp.besseli(mu, t)
    kt = -t * (mp.besselk(mu - 1, t) + mp.besselk(mu + 1, t)) / 2 + mp.besselk(mu, t)
    assert math.exp(ln_it) == pytest.approx(float(it), rel=1e-14)
    assert math.exp(ln_kt) == pytest.approx(float(-kt), rel=1e-14)


# polygamma3 is the test-only oracle behind the vacuum closed form
def test_polygamma3_at_one():
    assert polygamma3(1.0) == pytest.approx(math.pi**4 / 15.0, rel=1e-12)


def test_polygamma3_at_half():
    assert polygamma3(0.5) == pytest.approx(math.pi**4, rel=1e-12)


@pytest.mark.parametrize("x", [0.3, 1.0, 1.7, 9.2, 40.0])
def test_polygamma3_recurrence(x):
    assert polygamma3(x + 1.0) == pytest.approx(polygamma3(x) - 6.0 / x**4, rel=1e-12)


def test_polygamma3_leading_singularity():
    x = 1e-2
    assert abs(x**4 * polygamma3(x) - 6.0) < 1e-6


def test_polygamma3_domain():
    with pytest.raises(ValueError):
        polygamma3(0.0)
    with pytest.raises(ValueError):
        polygamma3(-1.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.5, 10.0])
@pytest.mark.parametrize("y", [0.1, 1.0, 5.0, 30.0])
def test_scaled_unscaled_consistency(nu, y):
    direct = float(mp.besseli(nu, y))
    li, _, _, _ = log_bessel_ik(nu, y)
    assert math.exp(li) == pytest.approx(direct, rel=1e-9)


def test_k_scaled_monotone_in_argument():
    for nu in (0.0, 1.3, 6.0):
        ys = np.linspace(0.05, 40.0, 120)
        vals = [log_bessel_ik(nu, float(y))[2] + float(y) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_scaled_pair_product_bound():
    # I_nu(y) K_nu(y) ~ 1/(2y) for large y.
    for y in (20.0, 50.0, 200.0):
        li, _, lk, _ = log_bessel_ik(1.2, y)
        assert math.isfinite(li) and math.isfinite(lk)
        assert li + lk < math.log(1.1 / (2.0 * y))


def assert_matches_mpmath(got, nu, t):
    """log_bessel_ik's four values at (nu, t) against 40-digit mpmath."""
    li, q, lk, r = got
    li_ref = float(mp.log(mp.besseli(nu, t)))
    lk_ref = float(mp.log(mp.besselk(nu, t)))
    q_ref = float(mp.besseli(nu + 1, t) / mp.besseli(nu, t))
    r_ref = float(mp.besselk(abs(nu - 1), t) / mp.besselk(nu, t))
    assert li == pytest.approx(li_ref, rel=1e-10, abs=1e-10), (nu, t)
    assert lk == pytest.approx(lk_ref, rel=1e-10, abs=1e-10), (nu, t)
    assert q == pytest.approx(q_ref, rel=1e-10), (nu, t)
    assert r == pytest.approx(r_ref, rel=1e-10), (nu, t)


def test_log_bessel_ik_against_mpmath():
    cases = [(0.3, 1e-3), (1.0, 0.3), (2.5, 4.0), (7.0, 17.0), (20.7, 1e-3),
             (49.9, 0.05), (80.0, 90.0), (150.0, 1.0), (350.0, 0.3),
             (700.0, 4.0), (1000.0, 1.0), (1000.0, 950.0)]
    for nu, t in cases:
        assert_matches_mpmath(log_bessel_ik(nu, t), nu, t)


@pytest.mark.xfail(strict=True, reason=(
    "above t ~ 2^30 scipy's ive and kve return NaN: orders below 200 fall back to the "
    "small-argument series (a math domain error, inf or NaN), and the Debye ratios "
    "exp(l1 - l0) keep about 7 digits"))
@pytest.mark.parametrize("nu,t", [(5.0, 3e9), (0.5, 1e10), (150.0, 1e12), (250.0, 3e9)])
def test_log_bessel_ik_against_mpmath_past_the_scaled_pair(nu, t):
    # the sampler reaches t > 2^30 only for s below about 5e-8 (y <= X(s) ~ 50/s)
    assert_matches_mpmath(log_bessel_ik(nu, t), nu, t)


@pytest.mark.parametrize("nu", [0.0, 1e-160, 1e-200, 1e-300, 1e-307, 1e-310, 5e-324])
def test_log_bessel_ik_at_tiny_orders(nu):
    # t/nu is past 1e154, where z*z would overflow in the exponent gap, and
    # at the subnormal orders t/nu itself overflows; the gap must stay
    # finite, so that the K side takes the scaled pair and not the
    # small-argument series, which keeps only the (2/t)^nu part, and the I
    # side not the series, which its 400 terms cut short at t = 700.  At
    # order 0 the gap is its limit 0, so that the ratios past t = 620 come
    # from the scaled pair and not from exp(l1 - l0), which misses them by
    # ~1e-11 at t = 1e5, past approx's default absolute tolerance 1e-12.
    # ln I is near 0 at t = 1e-3, hence the absolute tolerance there
    with mp.workdps(30):
        for t in (1e-3, 1.0, 30.0, 700.0, 1e5):
            li, q, lk, r = log_bessel_ik(nu, t)
            i0, k0 = mp.besseli(nu, t), mp.besselk(nu, t)
            assert li == pytest.approx(float(mp.log(i0)), rel=1e-15, abs=1e-15), t
            assert q == pytest.approx(float(mp.besseli(nu + 1, t) / i0), rel=1e-15, abs=0), t
            assert lk == pytest.approx(float(mp.log(k0)), rel=1e-15, abs=0), t
            assert r == pytest.approx(float(mp.besselk(1 - nu, t) / k0), rel=1e-15, abs=0), t


def test_log_bessel_ik_survives_extreme_order():
    # nu >> t underflows the scaled pair itself; the log form must not.
    li, q, lk, r = log_bessel_ik(1000.0, 1.0)
    assert math.isfinite(li) and li < -5000.0
    assert math.isfinite(lk) and lk > 5000.0
    assert q > 0.0 and r > 0.0


# ---------------------------------------------------------------------------
# array evaluation
# ---------------------------------------------------------------------------

# (nu, t) on every branch of log_bessel_ik: the scaled scipy pair (at nu = 0,
# nu in (0, 1) and moderate orders), and past the exponent-gap limit the
# Debye expansion (nu >= 200) and the ascending series (nu < 200).
BRANCH_NU = np.array([0.0, 0.0, 0.4, 0.7, 1.0, 2.5, 40.0, 30.0,
                      150.0, 150.0, 199.0, 200.0, 250.0, 350.0, 1000.0])
BRANCH_T = np.array([1e-3, 700.0, 1e-5, 3.0, 0.5, 600.0, 2.0, 1e-4,
                     0.5, 1.0, 1e-3, 0.8, 2.0, 0.3, 1.0])


# (nu, t) on the main branch only: 0 < nu <= 50 and t >= 1e-3
MAIN_NU = np.array([0.3, 1.0, 2.5, 7.0, 20.7, 49.9, 12.0, 3.3])
MAIN_T = np.array([1e-3, 0.3, 4.0, 17.0, 1e-3, 0.05, 300.0, 900.0])


def test_log_bessel_ik_array_equals_scalar():
    beyond = _gap(BRANCH_NU, BRANCH_T) >= _GAP_LIMIT
    assert (~beyond & (BRANCH_NU == 0.0)).any()
    assert (~beyond & (BRANCH_NU > 0.0) & (BRANCH_NU < 1.0)).any()
    assert (beyond & (BRANCH_NU >= 200.0)).any()
    assert (beyond & (BRANCH_NU > 0.0) & (BRANCH_NU < 200.0)).any()
    got = log_bessel_ik(BRANCH_NU, BRANCH_T)
    ref = np.array([log_bessel_ik(float(nu), float(t))
                    for nu, t in zip(BRANCH_NU, BRANCH_T)]).T
    for g, r in zip(got, ref):
        assert g.shape == BRANCH_NU.shape
        np.testing.assert_array_equal(g, r)
    # the whole-array path, where no element falls back: nu > 0, the box of
    # orders and arguments proven inside the gap, both scaled values in range
    assert _gap_below_limit(MAIN_NU.min(), MAIN_NU.max(), MAIN_T.min(), MAIN_T.max())
    for scaled, neighbour in ((ive, MAIN_NU + 1.0), (kve, np.abs(MAIN_NU - 1.0))):
        for order in (MAIN_NU, neighbour):
            v = scaled(order, MAIN_T)
            assert ((v > 0.0) & (v < math.inf)).all()
    got = log_bessel_ik(MAIN_NU, MAIN_T)
    ref = np.array([log_bessel_ik(float(nu), float(t)) for nu, t in zip(MAIN_NU, MAIN_T)]).T
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, r)


def test_gap_bound_proves_only_what_the_gap_shows():
    # the box 0 < nu <= 50, t >= 1e-3 is inside, with room to spare
    assert _gap(np.array([50.0]), np.array([1e-3]))[0] < 527.0
    assert _gap_below_limit(1e-3, 50.0, 1e-3, 1e3)
    # no proof with an order 0, past 2^30, or outside the gap
    assert not _gap_below_limit(0.0, 50.0, 1e-3, 1e3)
    assert not _gap_below_limit(1.0, 50.0, 1e-3, 2.0**31)
    assert not _gap_below_limit(1.0, 1000.0, 1.0, 2.0)
    # nor where some t/nu is past 1e150, where the bound's scalar z*z may
    # overflow: that point must take the branch in an array it takes alone
    assert not _gap_below_limit(1e-300, 1.0, 1.0, 1.0)
    nu, t = np.array([1e-300, 1.0]), np.array([1.0, 1.0])
    got = log_bessel_ik(nu, t)
    ref = np.array([log_bessel_ik(n, x) for n, x in zip(nu, t)]).T
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, r)
    # wherever a random box is proven, the gap of every point in it is below
    # the limit; the boxes straddle the limit so that both answers occur
    rng = np.random.default_rng(5)
    proven = 0
    for _ in range(400):
        nu = np.sort(np.exp(rng.uniform(math.log(1e-6), math.log(2e3), 2)))
        t = np.sort(np.exp(rng.uniform(math.log(1e-8), math.log(1e6), 2)))
        if _gap_below_limit(nu[0], nu[1], t[0], t[1]):
            proven += 1
            grid_nu, grid_t = np.meshgrid(np.geomspace(*nu, 9), np.geomspace(*t, 9))
            assert (_gap(grid_nu, grid_t) < _GAP_LIMIT).all()
    assert 50 < proven < 350


def test_log_bessel_ik_broadcasts():
    grid = log_bessel_ik(BRANCH_NU.reshape(3, 5), BRANCH_T.reshape(3, 5))
    flat = log_bessel_ik(BRANCH_NU, BRANCH_T)
    for g, f in zip(grid, flat):
        np.testing.assert_array_equal(g, f.reshape(3, 5))
    row = log_bessel_ik(250.0, BRANCH_T)
    for k, t in enumerate(BRANCH_T):
        assert tuple(part[k] for part in row) == log_bessel_ik(250.0, float(t))


def test_log_bessel_ik_sides_at_own_arguments():
    # I side at x, K side at t, each on its own branch: the reversed
    # arguments pair every branch of one side with other branches of the other
    x, t = BRANCH_T, BRANCH_T[::-1].copy()
    li, q, lk, r = log_bessel_ik(BRANCH_NU, x, t)
    li_x, q_x, _, _ = log_bessel_ik(BRANCH_NU, x)
    _, _, lk_t, r_t = log_bessel_ik(BRANCH_NU, t)
    for got, ref in ((li, li_x), (q, q_x), (lk, lk_t), (r, r_t)):
        np.testing.assert_array_equal(got, ref)
    assert log_bessel_ik(2.5, 600.0, 1e-3) == (li_x[5], q_x[5], *log_bessel_ik(2.5, 1e-3)[2:])
    with pytest.raises(ValueError, match=r"got 0\.0$"):
        log_bessel_ik(1.0, 1.0, 0.0)


def test_log_bessel_ik_array_against_mpmath():
    got = log_bessel_ik(BRANCH_NU, BRANCH_T)
    for k, (nu, t) in enumerate(zip(BRANCH_NU.tolist(), BRANCH_T.tolist())):
        assert_matches_mpmath([part[k] for part in got], nu, t)
