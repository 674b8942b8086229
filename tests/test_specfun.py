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
from scipy.special import jv, jvp, kv, yv, yvp

from casimir_laurent.integrands import _tm_factor
from casimir_laurent.specfun import log_bessel_ik, polygamma3

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
    ln_it, ln_kt, _, _ = _tm_factor(mu, 0.0, t)
    it = t * mp.besseli(mu, t, derivative=1) + mp.besseli(mu, t)
    kt = -t * (mp.besselk(mu - 1, t) + mp.besselk(mu + 1, t)) / 2 + mp.besselk(mu, t)
    assert math.exp(ln_it) == pytest.approx(float(it), rel=1e-14)
    assert math.exp(ln_kt) == pytest.approx(float(-kt), rel=1e-14)


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


def test_log_bessel_ik_against_mpmath():
    cases = [(0.3, 1e-3), (1.0, 0.3), (2.5, 4.0), (7.0, 17.0), (20.7, 1e-3),
             (49.9, 0.05), (80.0, 90.0), (150.0, 1.0), (350.0, 0.3),
             (700.0, 4.0), (1000.0, 1.0), (1000.0, 950.0)]
    for nu, t in cases:
        li, q, lk, r = log_bessel_ik(nu, t)
        li_ref = float(mp.log(mp.besseli(nu, t)))
        lk_ref = float(mp.log(mp.besselk(nu, t)))
        q_ref = float(mp.besseli(nu + 1, t) / mp.besseli(nu, t))
        r_ref = float(mp.besselk(abs(nu - 1), t) / mp.besselk(nu, t))
        assert li == pytest.approx(li_ref, rel=1e-10, abs=1e-10), (nu, t)
        assert lk == pytest.approx(lk_ref, rel=1e-10, abs=1e-10), (nu, t)
        assert q == pytest.approx(q_ref, rel=1e-10), (nu, t)
        assert r == pytest.approx(r_ref, rel=1e-10), (nu, t)


def test_log_bessel_ik_survives_extreme_order():
    # nu >> t underflows the scaled pair itself; the log form must not.
    li, q, lk, r = log_bessel_ik(1000.0, 1.0)
    assert math.isfinite(li) and li < -5000.0
    assert math.isfinite(lk) and lk > 5000.0
    assert q > 0.0 and r > 0.0
