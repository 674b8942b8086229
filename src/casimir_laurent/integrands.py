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


def vacuum_integrand(r: ArrayLike):
    """(1/3) r^3 coth(r), elementwise; series below r = 1e-2 for a clean r -> 0 limit."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError(f"vacuum_integrand requires r >= 0, got {r[r < 0.0][0]}")
    r2 = r * r
    # (1/3) r^3 coth r = r^2/3 + r^4/9 - r^6/135 + 2 r^8/2835 + O(r^10)
    series = r2 / 3.0 + r2 * r2 / 9.0 - r2 * r2 * r2 / 135.0 + 2.0 * r2**4 / 2835.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r < 1e-2, series, (r**3 / 3.0) / np.tanh(r))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# TE cross product
# ---------------------------------------------------------------------------


def _te_parts(nu, y, sigma: float):
    """(ln A, delta, d1, d2) for P = A - B, rho = B/A = e^{delta}.

    A = I(y) K(sigma y), B = I(sigma y) K(y).  The order/argument terms of
    the factor log-derivatives cancel inside each product, leaving
    d(ln A)/dy = q(y) - sigma r(sigma y) and d(ln B)/dy = sigma q(sigma y) - r(y)
    with q = I_{nu+1}/I_nu and r = K_{nu-1}/K_nu.
    """
    t = sigma * y
    li_y, q_y, lk_y, r_y = log_bessel_ik(nu, y)
    li_t, q_t, lk_t, r_t = log_bessel_ik(nu, t)
    ln_a = li_y + lk_t
    delta = (li_t + lk_y) - ln_a
    d1 = q_y - sigma * r_t
    d2 = sigma * q_t - r_y
    return ln_a, delta, d1, d2


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
    return _dlog_cross("TE", nu, y, sigma, _te_parts, _dlog_te_limit, 0.0)


# ---------------------------------------------------------------------------
# TM cross product
# ---------------------------------------------------------------------------


def _tm_factor(mu, mum1, t):
    """ln It_mu(t), ln |Kt_mu(t)|, and their (shifted) log-derivatives.

    It(t) = t I' + I = I (t q + 1 + mu) > 0,
    Kt(t) = t K' + K = -K (t r + mu - 1) < 0 for mu > 1.
    The returned gI, gK omit +mu/t and -mu/t shifts that cancel between the
    I and K factors of each cross-product term.
    """
    li, q, lk, r = log_bessel_ik(mu, t)
    wi = t * q + 1.0 + mu
    wk = t * r + mum1
    ln_it = li + np.log(wi)
    ln_kt = lk + np.log(wk)
    g_i = (t - mum1 * q) / wi
    g_k = ((mu + 1.0) * r - t) / wk
    return ln_it, ln_kt, g_i, g_k


def _tm_parts(nu, y, sigma: float):
    mu = np.hypot(nu, 1.0)
    mum1 = nu * nu / (mu + 1.0)  # mu - 1 without cancellation
    t = sigma * y
    li_y, lk_y, gi_y, gk_y = _tm_factor(mu, mum1, y)
    li_t, lk_t, gi_t, gk_t = _tm_factor(mu, mum1, t)
    ln_a = li_y + lk_t  # ln |It(y) Kt(sigma y)|
    delta = (li_t + lk_y) - ln_a
    d1 = gi_y + sigma * gk_t
    d2 = sigma * gi_t + gk_y
    return ln_a, delta, d1, d2


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
    return _dlog_cross("TM", nu, y, sigma, _tm_parts, _dlog_tm_limit, 0.5)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------


def _dlog_cross(tag: str, nu, y, sigma: float, parts, limit, limit_min_nu: float):
    """(d1 - rho d2) / (1 - rho) from the log-form parts, elementwise over the
    broadcast shape of nu and y; the closed small-y limit below Y_SMALL for
    nu >= limit_min_nu."""
    nu, y = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(y, dtype=float))
    if np.any(y <= 0.0):
        raise ValueError(f"dlog_cross_{tag.lower()} requires y > 0, got {y[y <= 0.0][0]}")
    if sigma <= 0.0 or sigma == 1.0:
        raise ValueError(
            f"dlog_cross_{tag.lower()} requires sigma in (0,1) or (1,inf), got {sigma}")
    if sigma > 1.0:
        # |P(y, sigma)| = |P(sigma y, 1/sigma)|, and likewise for Q
        return sigma * _dlog_cross(tag, nu, sigma * y, 1.0 / sigma, parts, limit, limit_min_nu)
    out = np.empty(y.shape)
    small = (y < Y_SMALL) & (nu >= limit_min_nu)
    if small.any():
        out[small] = limit(nu[small], y[small], sigma)
    full = ~small
    _, delta, d1, d2 = parts(nu[full], y[full], sigma)
    one_m = -np.expm1(delta)
    bad = np.flatnonzero(~(one_m > 0.0))
    if bad.size:
        i = np.flatnonzero(full)[bad[0]]
        raise CrossProductError(f"{tag} cross product lost its fixed sign at "
                                f"nu={nu.flat[i]}, y={y.flat[i]}, sigma={sigma}")
    out[full] = (d1 - np.exp(delta) * d2) / one_m
    return out if out.ndim else float(out)


def dlog_cross(kind: SpectrumKind, nu: ArrayLike, y: ArrayLike, sigma: float):
    if kind is SpectrumKind.TE:
        return dlog_cross_te(nu, y, sigma)
    if kind is SpectrumKind.TM:
        return dlog_cross_tm(nu, y, sigma)
    raise ValueError(f"no cross product for kind {kind}")
