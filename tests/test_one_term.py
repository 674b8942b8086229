"""The one-term shortcut of the cross-product kernels.

`dlog_cross_te|tm` return d1, the log-derivative of the A term alone,
wherever closed-form bounds show that (d1 - rho d2) / (1 - rho) rounds to
d1.  These tests hold the shortcut to three things: the kernel equals the
full two-term formula bit for bit (the formula below is the kernel as it
was before the shortcut, with both terms evaluated everywhere); the bounds
hold against 40-digit arithmetic; and a point past the cut makes one
`log_bessel_ik` call, where a point before it makes two.
"""

import mpmath as mp
import numpy as np
import pytest

from casimir_laurent import integrands
from casimir_laurent.integrands import (_LN2, _ONE_TERM_LN_RATIO, _ONE_TERM_LN_RHO,
                                        Y_SMALL, _dlog_te_limit, _dlog_tm_limit, _one_term,
                                        _te_d2_max, _te_ln_rho_max, _te_term,
                                        _tm_d2_max, _tm_ln_rho_max, _tm_term,
                                        dlog_cross_te, dlog_cross_tm)
from casimir_laurent.specfun import _GAP_LIMIT, _gap, log_bessel_ik

mp.mp.dps = 40

SIGMAS = (8.0 / 27.0, 0.6, 2.5, 27.0 / 8.0)


# ---------------------------------------------------------------------------
# the two-term reference
# ---------------------------------------------------------------------------


def two_term_te(nu, y, sigma):
    """(delta, d1, d2) with the I and K factors of each argument from one
    single-argument log_bessel_ik call."""
    t = sigma * y
    li_y, q_y, lk_y, r_y = log_bessel_ik(nu, y)
    li_t, q_t, lk_t, r_t = log_bessel_ik(nu, t)
    ln_a = li_y + lk_t
    delta = (li_t + lk_y) - ln_a
    return delta, q_y - sigma * r_t, sigma * q_t - r_y


def tm_factor(mu, mum1, t):
    li, q, lk, r = log_bessel_ik(mu, t)
    wi = t * q + 1.0 + mu
    wk = t * r + mum1
    return (li + np.log(wi), lk + np.log(wk), (t - mum1 * q) / wi,
            ((mu + 1.0) * r - t) / wk)


def two_term_tm(nu, y, sigma):
    mu = np.hypot(nu, 1.0)
    mum1 = nu * nu / (mu + 1.0)
    t = sigma * y
    li_y, lk_y, gi_y, gk_y = tm_factor(mu, mum1, y)
    li_t, lk_t, gi_t, gk_t = tm_factor(mu, mum1, t)
    ln_a = li_y + lk_t
    delta = (li_t + lk_y) - ln_a
    return delta, gi_y + sigma * gk_t, sigma * gi_t + gk_y


def two_term_dlog(parts, limit, limit_min_nu, nu, y, sigma):
    if sigma > 1.0:
        return sigma * two_term_dlog(parts, limit, limit_min_nu, nu, sigma * y, 1.0 / sigma)
    out = np.empty(y.shape)
    small = (y < Y_SMALL) & (nu >= limit_min_nu)
    out[small] = limit(nu[small], y[small], sigma)
    delta, d1, d2 = parts(nu[~small], y[~small], sigma)
    out[~small] = (d1 - np.exp(delta) * d2) / -np.expm1(delta)
    return out


KERNELS = {
    "te": (dlog_cross_te, "_te_term",
           lambda nu, y, s: two_term_dlog(two_term_te, _dlog_te_limit, 0.0, nu, y, s)),
    "tm": (dlog_cross_tm, "_tm_term",
           lambda nu, y, s: two_term_dlog(two_term_tm, _dlog_tm_limit, 0.5, nu, y, s)),
}


def kernel_points(seed):
    """16,000 (nu, y) points: the quadrature's working box, both sides of
    Y_SMALL, Debye orders at small arguments and series orders below them."""
    rng = np.random.default_rng(seed)
    parts = [
        (rng.uniform(0.0, 80.0, 6000), rng.uniform(0.0, 120.0, 6000)),
        (10.0 ** rng.uniform(-3.0, 3.0, 6000), 10.0 ** rng.uniform(-6.0, 3.0, 6000)),
        (rng.uniform(0.0, 3.0, 2000), rng.uniform(1e-6, 3e-4, 2000)),
        (rng.uniform(200.0, 2000.0, 1800), rng.uniform(1e-3, 5.0, 1800)),
        (rng.uniform(120.0, 199.0, 200), 10.0 ** rng.uniform(-5.0, -2.0, 200)),
    ]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([np.maximum(p[1], 1e-7) for p in parts]))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("kind", ["te", "tm"])
def test_kernel_equals_two_term_formula(kind, sigma, monkeypatch):
    func, name, reference = KERNELS[kind]
    nu, y = kernel_points(2027)
    seen = {"A": 0, "B": 0}
    original = getattr(integrands, name)

    def counted(n, x, t, cx, ct):
        # A = term(y, sigma y, 1, sigma), B = term(sigma y, y, sigma, 1)
        seen["A" if cx == 1.0 else "B"] += n.size
        return original(n, x, t, cx, ct)

    monkeypatch.setattr(integrands, name, counted)
    got = func(nu, y, sigma)
    monkeypatch.undo()
    np.testing.assert_array_equal(got, reference(nu, y, sigma))
    assert np.isfinite(got).all()

    # the arguments the kernel works on after the sigma > 1 reflection
    lo, hi = min(sigma, 1.0) * y, max(sigma, 1.0) * y
    assert (hi < Y_SMALL).any() and (hi >= Y_SMALL).any()
    for arg in (lo, hi):
        beyond = _gap(nu, arg) >= _GAP_LIMIT
        assert (beyond & (nu >= 200.0)).any() and (beyond & (nu < 200.0)).any()
    # both sides of the cut: every non-limit point evaluates A, only some B
    assert 0 < seen["B"] < seen["A"]


# ---------------------------------------------------------------------------
# the one-term mask
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", [8.0 / 27.0, 27.0 / 8.0])
@pytest.mark.parametrize("kind,term,ln_rho_max,d2_max", [
    ("te", _te_term, _te_ln_rho_max, _te_d2_max), ("tm", _tm_term, _tm_ln_rho_max, _tm_d2_max)],
    ids=["te", "tm"])
def test_one_term_mask_equals_full_bound_expression(kind, term, ln_rho_max, d2_max, sigma):
    # the mask evaluates the |d2| bound and both logarithms only below the
    # ln rho cut; it must equal both conditions evaluated at every point
    nu, y = kernel_points(404)
    if sigma > 1.0:   # the arguments the kernel works on after the reflection
        y, sigma = sigma * y, 1.0 / sigma
    nu, y = nu[y >= Y_SMALL], y[y >= Y_SMALL]
    _, d1 = term(nu, y, sigma * y, 1.0, sigma)
    ln_rho = ln_rho_max(nu, y, sigma)
    with np.errstate(divide="ignore"):
        full = ((ln_rho < _ONE_TERM_LN_RHO)
                & (ln_rho + np.log(d2_max(nu, y, sigma)) + _LN2
                   < np.log(np.abs(d1)) + _ONE_TERM_LN_RATIO))
    np.testing.assert_array_equal(_one_term(nu, y, sigma, ln_rho, d1, d2_max), full)
    # both conditions decide some points
    assert full.any() and ((ln_rho < _ONE_TERM_LN_RHO) & ~full).any()


# ---------------------------------------------------------------------------
# the bounds against 40-digit arithmetic
# ---------------------------------------------------------------------------


def mp_k_ratio(mu, t):
    return mp.besselk(abs(mu - 1), t) / mp.besselk(mu, t)


def mp_te_b(nu, y, sigma):
    """(ln rho, d ln B/dy) for B = I(sigma y) K(y)."""
    t = sigma * y
    ln_rho = (mp.log(mp.besseli(nu, t)) + mp.log(mp.besselk(nu, y))
              - mp.log(mp.besseli(nu, y)) - mp.log(mp.besselk(nu, t)))
    d2 = sigma * mp.besseli(nu + 1, t) / mp.besseli(nu, t) - mp_k_ratio(nu, y)
    return ln_rho, d2


def mp_tm_b(nu, y, sigma):
    """(ln rho, d ln |B|/dy) for B = It(sigma y) Kt(y), from
    It' = (x + mu^2/x) I + I' and Kt' = (x + mu^2/x) K + K'."""
    mu = mp.sqrt(nu * nu + 1)

    def tilde_i(x):
        i, di = mp.besseli(mu, x), mp.besseli(mu, x, derivative=1)
        return x * di + i, (x + mu * mu / x) * i + di

    def tilde_k(x):
        k = mp.besselk(mu, x)
        dk = -(mp.besselk(mu - 1, x) + mp.besselk(mu + 1, x)) / 2
        return x * dk + k, (x + mu * mu / x) * k + dk

    t = sigma * y
    (it_t, dit_t), (it_y, _) = tilde_i(t), tilde_i(y)
    (kt_y, dkt_y), (kt_t, _) = tilde_k(y), tilde_k(t)
    ln_rho = mp.log(it_t) + mp.log(-kt_y) - mp.log(it_y) - mp.log(-kt_t)
    return ln_rho, sigma * dit_t / it_t + dkt_y / kt_y


def _te_bounds(nu, y, sigma):
    """(L, D) of the TE cut: L >= ln(B/A) and D >= |d ln B/dy|."""
    return _te_ln_rho_max(nu, y, sigma), _te_d2_max(nu, y, sigma)


def _tm_bounds(nu, y, sigma):
    """(L, D) of the TM cut: L >= ln(B/A) and D >= |d ln |B|/dy|."""
    return _tm_ln_rho_max(nu, y, sigma), _tm_d2_max(nu, y, sigma)


BOUND_NU = (0.0, 0.2, 0.7, 1.0, 3.0, 12.0, 60.0, 120.0)
BOUND_Y = (1e-4, 3e-3, 0.05, 0.4, 2.0, 9.0, 40.0, 150.0, 600.0)


@pytest.mark.parametrize("kind,bounds,mp_b", [("te", _te_bounds, mp_te_b),
                                               ("tm", _tm_bounds, mp_tm_b)])
def test_bounds_hold_against_mpmath(kind, bounds, mp_b):
    rng = np.random.default_rng(11)
    points = [(float(rng.choice(BOUND_NU)), float(rng.choice(BOUND_Y)),
               float(rng.choice([8.0 / 27.0, 0.6, 1.0 / 2.5]))) for _ in range(50)]
    for nu, y, sigma in points:
        ln_rho_max, d2_max = bounds(np.array([nu]), np.array([y]), sigma)
        ln_rho, d2 = mp_b(mp.mpf(nu), mp.mpf(y), mp.mpf(sigma))
        assert ln_rho_max[0] >= float(ln_rho), (kind, nu, y, sigma)
        assert d2_max[0] >= float(abs(d2)), (kind, nu, y, sigma)


# ---------------------------------------------------------------------------
# the traced layer sees the shortcut
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("func", [dlog_cross_te, dlog_cross_tm])
def test_one_term_point_makes_one_bessel_call(func, monkeypatch):
    # integrands.log_bessel_ik is the name the benchmark's tracer rebinds
    calls = []
    original = integrands.log_bessel_ik

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(integrands, "log_bessel_ik", counted)
    func(50.0, 200.0, 8.0 / 27.0)
    assert len(calls) == 1
    calls.clear()
    func(1.0, 0.5, 8.0 / 27.0)
    assert len(calls) == 2
