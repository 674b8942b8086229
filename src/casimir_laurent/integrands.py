"""Pointwise integrands: the vacuum mode kernel and the imaginary-axis
cross products of the stratified-medium mode conditions.

On the imaginary axis the oscillatory cross products of J and Y reduce,
up to a constant phase, to combinations of modified Bessel functions:

    TE:  P_nu(y, sigma) = I_nu(y) K_nu(sigma y) - I_nu(sigma y) K_nu(y)
    TM:  Q_mu(y, sigma) = It_mu(y) Kt_mu(sigma y) - It_mu(sigma y) Kt_mu(y)

with mu = sqrt(nu^2 + 1) and the radial transform f -> y f' + f applied
to each factor at its own argument (It, Kt above).  P is positive and Q
is negative throughout sigma in (0,1); the mode integrals need only their
log-derivatives d/dy ln|P| and d/dy ln|Q|, assembled from log-form factors.
These and the vacuum kernel are evaluated elementwise over numpy arrays.

Each cross product is a difference A - B of two values of one term,
T(x, t) = I(x) K(t) for TE and It(x) Kt(t) for TM: A = T(y, sigma y) and
B = T(sigma y, y).  With rho = B/A = e^delta and d1, d2 the log-derivatives
of A and B,

    d/dy ln|A - B| = (d1 - rho d2) / (1 - rho).

For sigma < 1, rho is often far below the double-precision unit, and the
quotient then rounds to d1 exactly.  Closed-form bounds on ln rho and |d2|
find those points from A alone, so B (half the Bessel evaluations) is
computed only where it can change a bit of the result.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from numpy.typing import ArrayLike

from .specfun import log_bessel_ik

# Below this argument the closed small-y limits replace the log-domain
# formulas (K diverges while I vanishes; the direct difference cancels).
Y_SMALL = 1e-4


class SpectrumKind(enum.Enum):
    VACUUM = "vacuum"
    TE = "te"
    TM = "tm"


class CrossProductError(ArithmeticError):
    """The cross product lost its fixed sign (unexpected imaginary-axis root)."""


def check_sigma(sigma, lead: str = "sigma must lie in") -> None:
    """Raise ValueError, `lead` followed by the domain and sigma, unless the
    contrast sigma lies in (0,1) or (1,inf): at sigma = 1 both cross
    products vanish."""
    if not 0.0 < sigma < math.inf or sigma == 1.0:
        raise ValueError(f"{lead} (0,1) or (1,inf), got {sigma}")


def vacuum_integrand(r: ArrayLike):
    """(1/3) r^3 coth(r), elementwise; series below r = 1e-2 for a clean r -> 0 limit."""
    r = np.asarray(r, dtype=float)
    x = r if r.ndim else r.reshape(1)
    # one pass over every point; the series then replaces it below 1e-2,
    # where r = 0 gave 0/0.  inf past r ~ 5e102: the quadrature reports it
    with np.errstate(over="ignore", invalid="ignore"):
        out = (x**3 / 3.0) / np.tanh(x)
    small = x < 1e-2
    if small.any():
        if (x < 0.0).any():
            raise ValueError(f"vacuum_integrand requires r >= 0, got {x[x < 0.0][0]}")
        r2 = x[small] * x[small]
        # (1/3) r^3 coth r = r^2/3 + r^4/9 - r^6/135 + 2 r^8/2835 + O(r^10)
        out[small] = r2 / 3.0 + r2 * r2 / 9.0 - r2 * r2 * r2 / 135.0 + 2.0 * r2**4 / 2835.0
    return out if r.ndim else float(out[0])


# ---------------------------------------------------------------------------
# TE cross product
# ---------------------------------------------------------------------------


def _te_term(nu, x, t, cx: float, ct: float):
    """(ln T, cx q(x) - ct r(t)) for T = I_nu(x) K_nu(t), q = I_{nu+1}/I_nu
    and r = K_{nu-1}/K_nu.

    The order/argument terms of the factor log-derivatives cancel inside
    each product, so (x, t, cx, ct) = (y, sigma y, 1, sigma) gives
    d(ln A)/dy and (sigma y, y, sigma, 1) gives d(ln B)/dy.
    """
    li, q, lk, r = log_bessel_ik(nu, x, t)
    return li + lk, cx * q - ct * r


def _te_ln_rho_max(nu, y, sigma: float):
    """L >= ln(B/A), for sigma < 1.

    x^{-nu} I_nu and x^nu K_nu are monotone (DLMF 10.29.4) and so is
    e^x K_nu (DLMF 10.32.9): I(sigma y)/I(y) <= sigma^nu and
    K(y)/K(sigma y) <= min(sigma^nu, e^{-(1-sigma) y}).
    """
    ls = math.log(sigma)
    return nu * ls + np.minimum(nu * ls, -(1.0 - sigma) * y)


def _te_d2_max(nu, y, sigma: float):
    """D >= |d ln B/dy|, for sigma < 1.

    With 0 <= q < 1 and r <= 1 + 1/y (Segura, J. Math. Anal. Appl. 374
    (2011) 516), |d ln B/dy| <= sigma + 1 + 1/y; D doubles the 1/y term
    for margin.
    """
    return sigma + 1.0 + 2.0 / y


def _dlog_te_limit(nu, y, sigma: float):
    # Leading linear-in-y behaviour of d/dy ln P near y = 0, overflow-safe.
    ls = math.log(sigma)
    out = y * (0.5 * (1.0 + sigma * sigma) + (1.0 - sigma * sigma) / (2.0 * ls))  # nu < 1e-3
    m = nu >= 1e-3
    nu, y = nu[m], y[m]
    s2n = np.exp(2.0 * nu * ls)
    num1 = (1.0 - s2n * sigma * sigma) / (1.0 + nu)
    # near nu = 1, (sigma^{2 nu} - sigma^2)/(1 - nu) via expm1
    x = (2.0 * nu - 2.0) * ls
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(x != 0.0, np.expm1(x) / x, 1.0)
        num2 = np.where(np.abs(1.0 - nu) < 0.5, sigma * sigma * (-2.0 * ls) * phi,
                        (s2n - sigma * sigma) / (1.0 - nu))
    den = 2.0 * (1.0 - s2n)
    out[m] = y * (num1 - num2) / den
    return out


def dlog_cross_te(nu: ArrayLike, y: ArrayLike, sigma: float):
    """d/dy ln P_nu(y, sigma).  Tends to (1 - sigma) - 1/y as y -> infinity."""
    return _dlog_cross("TE", nu, y, sigma, _te_term, _te_ln_rho_max, _te_d2_max,
                       _dlog_te_limit, 0.0)


# ---------------------------------------------------------------------------
# TM cross product
# ---------------------------------------------------------------------------


def _tm_i_factor(mu, mum1, t, li, q):
    """ln It_mu(t) and its shifted log-derivative, from ln I_mu(t) and q.

    It(t) = t I' + I = I (t q + 1 + mu) > 0.  The returned g omits a +mu/t
    shift that cancels against the K factor of the same cross-product term.
    """
    wi = t * q + 1.0 + mu
    return li + np.log(wi), (t - mum1 * q) / wi


def _tm_k_factor(mu, mum1, t, lk, r):
    """ln |Kt_mu(t)| and its shifted log-derivative, from ln K_mu(t) and r.

    Kt(t) = t K' + K = -K (t r + mu - 1) < 0 for mu > 1; the returned g
    omits a -mu/t shift.
    """
    wk = t * r + mum1
    return lk + np.log(wk), ((mu + 1.0) * r - t) / wk


def _tm_term(nu, x, t, cx: float, ct: float):
    """(ln |T|, cx g_i(x) + ct g_k(t)) for T = It_mu(x) Kt_mu(t) at
    mu = sqrt(nu^2 + 1); d ln |A|/dy and d ln |B|/dy as in :func:`_te_term`."""
    mu = np.hypot(nu, 1.0)
    mum1 = nu * nu / (mu + 1.0)  # mu - 1 without cancellation
    li, q, lk, r = log_bessel_ik(mu, x, t)
    ln_i, g_i = _tm_i_factor(mu, mum1, x, li, q)
    ln_k, g_k = _tm_k_factor(mu, mum1, t, lk, r)
    return ln_i + ln_k, cx * g_i + ct * g_k


def _tm_ln_rho_max(nu, y, sigma: float):
    """L >= ln(B/A), for sigma < 1.

    x^{-mu} It and x^{mu-2} |Kt| = x^{mu-1} K_{mu-1} + (mu - 1) x^{mu-2} K_mu
    are monotone, and so is e^x |Kt| / x (the bounds of
    :func:`_te_ln_rho_max` applied to each part).
    """
    mu = np.hypot(nu, 1.0)
    ls = math.log(sigma)
    return mu * ls + np.minimum((mu - 2.0) * ls, -ls - (1.0 - sigma) * y)


def _tm_d2_max(nu, y, sigma: float):
    """D >= |d ln |B|/dy|, for sigma < 1: the two g terms bounded with
    0 <= q < 1 and y / (mu + sqrt(mu^2 + y^2)) <= r <= 1 + 1/y."""
    mu = np.hypot(nu, 1.0)
    return sigma * (1.0 + sigma * y / (1.0 + mu)) + (mu + 1.0) / y + (mu + np.hypot(mu, y)) / y


def _dlog_tm_limit(nu, y, sigma: float):
    mu = np.hypot(nu, 1.0)
    ls = math.log(sigma)
    a1 = (mu + 3.0) / (4.0 * (mu + 1.0) ** 2)
    a2 = (3.0 - mu) / (4.0 * (1.0 - mu) ** 2)
    s2m = np.exp(2.0 * mu * ls)
    num = a1 * (1.0 - s2m * sigma * sigma) + a2 * (sigma * sigma - s2m)
    den = 1.0 - s2m
    return 2.0 * y * num / den


def dlog_cross_tm(nu: ArrayLike, y: ArrayLike, sigma: float):
    """d/dy ln |Q_mu(y, sigma)|."""
    # the small-y limit needs mu - 1 clear of 0
    return _dlog_cross("TM", nu, y, sigma, _tm_term, _tm_ln_rho_max, _tm_d2_max,
                       _dlog_tm_limit, 0.5)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------


# The one-term result: where rho = B/A < 2^-56, 1 - rho rounds to 1, and
# where also 2 rho |d2| < 2^-55 |d1|, rho d2 lies below half an ulp of d1
# (at least 2^-54 |d1|), so (d1 - rho d2) / (1 - rho) rounds to d1 exactly.
_LN2 = math.log(2.0)
_ONE_TERM_LN_RHO = -56.0 * _LN2
_ONE_TERM_LN_RATIO = -55.0 * _LN2


def _one_term(nu, y, sigma: float, ln_rho, d1, d2_max):
    """The points where (d1 - rho d2) / (1 - rho) rounds to d1, from the
    bound ln_rho on ln rho and the bound d2_max(nu, y, sigma) on |d2|, which
    is evaluated only where ln_rho is already below the cut."""
    one = ln_rho < _ONE_TERM_LN_RHO
    near = np.flatnonzero(one)
    if near.size:
        with np.errstate(divide="ignore"):
            one[near] = (ln_rho[near] + np.log(d2_max(nu[near], y[near], sigma)) + _LN2
                         < np.log(np.abs(d1[near])) + _ONE_TERM_LN_RATIO)
    return one


def _dlog_cross(tag: str, nu, y, sigma: float, term, ln_rho_max, d2_max,
                limit, limit_min_nu: float):
    """(d1 - rho d2) / (1 - rho) from the log-form terms A = term(y, sigma y)
    and B = term(sigma y, y), elementwise over the broadcast shape of nu and
    y; the closed small-y limit below Y_SMALL for nu >= limit_min_nu.  B is
    evaluated only where the bounds ln_rho_max and d2_max leave rho d2 able
    to change the rounded result."""
    nu, y = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(y, dtype=float))
    shape = y.shape
    # flat from here on (a copy where broadcast); the result takes the broadcast shape
    nu, y = nu.ravel(), y.ravel()
    if y.size and not (y.min() > 0.0 and y.max() < math.inf):
        ok = (y > 0.0) & (y < math.inf)
        raise ValueError(f"dlog_cross_{tag.lower()} requires finite y > 0, got {y[~ok][0]}")
    check_sigma(sigma, f"dlog_cross_{tag.lower()} requires sigma in")
    # the kernel runs at (yk, sk) with sk < 1; errors name the caller's y and sigma
    yk, sk = y, sigma
    if sigma > 1.0:
        # |P(y, sigma)| = |P(sigma y, 1/sigma)|, and likewise for Q
        with np.errstate(over="ignore"):
            yk, sk = sigma * y, 1.0 / sigma
        ok = yk < math.inf
        if not ok.all():
            raise ValueError(f"dlog_cross_{tag.lower()} requires finite sigma*y, got "
                             f"y={y[~ok][0]}, sigma={sigma}")
    small = (yk < Y_SMALL) & (nu >= limit_min_nu)
    # every element is on the log-form path unless some are small: a slice
    # then stands for all of them, and nothing is gathered or scattered
    full = ~small if small.any() else slice(None)
    n, v = nu[full], yk[full]
    sv = sk * v
    ln_a, d1 = term(n, v, sv, 1.0, sk)  # d1 becomes the result in place
    two = np.flatnonzero(~_one_term(n, v, sk, ln_rho_max(n, v, sk), d1, d2_max))
    if two.size:
        ln_b, d2 = term(n[two], sv[two], v[two], sk, 1.0)
        delta = ln_b - ln_a[two]
        one_m = -np.expm1(delta)
        bad = np.flatnonzero(~(one_m > 0.0))
        if bad.size:
            i = np.arange(y.size)[full][two[bad[0]]]
            raise CrossProductError(f"{tag} cross product lost its fixed sign at "
                                    f"nu={nu[i]}, y={y[i]}, sigma={sigma}")
        d1[two] = (d1[two] - np.exp(delta) * d2) / one_m
    out = d1
    if isinstance(full, np.ndarray):
        out = np.empty(y.shape)
        out[small] = limit(nu[small], yk[small], sk)
        out[full] = d1
    if sigma > 1.0:
        out = sigma * out
    return out.reshape(shape) if shape else float(out[0])


def dlog_cross(kind: SpectrumKind, nu: ArrayLike, y: ArrayLike, sigma: float):
    if kind is SpectrumKind.TE:
        return dlog_cross_te(nu, y, sigma)
    if kind is SpectrumKind.TM:
        return dlog_cross_tm(nu, y, sigma)
    raise ValueError(f"no cross product for kind {kind}")
