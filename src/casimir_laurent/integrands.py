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
"""

from __future__ import annotations

import enum
import math

from .specfun import BesselOrder, log_bessel_ik

# Below this argument the closed small-y limits replace the log-domain
# formulas (K diverges while I vanishes; the direct difference cancels).
Y_SMALL = 1e-4


class SpectrumKind(enum.Enum):
    VACUUM = "vacuum"
    TE = "te"
    TM = "tm"


class CrossProductError(ArithmeticError):
    """The cross product lost its fixed sign (unexpected imaginary-axis root)."""


def vacuum_integrand(r: float, s: float) -> float:
    """(1/3) r^3 e^{-s r} coth(r); series below r = 1e-2 for a clean r -> 0 limit."""
    if r < 0.0:
        raise ValueError(f"vacuum_integrand requires r >= 0, got {r}")
    if r < 1e-2:
        r2 = r * r
        # (1/3) r^3 coth r = r^2/3 + r^4/9 - r^6/135 + 2 r^8/2835 + O(r^10)
        poly = r2 / 3.0 + r2 * r2 / 9.0 - r2 * r2 * r2 / 135.0 + 2.0 * r2**4 / 2835.0
        return poly * math.exp(-s * r)
    return (r**3 / 3.0) * math.exp(-s * r) / math.tanh(r)


# ---------------------------------------------------------------------------
# TE cross product
# ---------------------------------------------------------------------------


def _te_parts(nu: float, y: float, sigma: float) -> tuple[float, float, float, float]:
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


def _dlog_te_limit(nu: float, y: float, sigma: float) -> float:
    # Leading linear-in-y behaviour of d/dy ln P near y = 0, overflow-safe.
    ls = math.log(sigma)
    if nu < 1e-3:
        return y * (0.5 * (1.0 + sigma * sigma) + (1.0 - sigma * sigma) / (2.0 * ls))
    s2n = math.exp(2.0 * nu * ls)
    num1 = (1.0 - s2n * sigma * sigma) / (1.0 + nu)
    if abs(1.0 - nu) < 0.5:
        # (sigma^{2 nu} - sigma^2)/(1 - nu) via expm1 to survive nu -> 1
        x = (2.0 * nu - 2.0) * ls
        phi = math.expm1(x) / x if x != 0.0 else 1.0
        num2 = sigma * sigma * (-2.0 * ls) * phi
    else:
        num2 = (s2n - sigma * sigma) / (1.0 - nu)
    den = 2.0 * (1.0 - s2n)
    return y * (num1 - num2) / den


def dlog_cross_te(nu: BesselOrder, y: float, sigma: float) -> float:
    """d/dy ln P_nu(y, sigma).  Tends to (1 - sigma) - 1/y as y -> infinity."""
    if y <= 0.0:
        raise ValueError(f"dlog_cross_te requires y > 0, got {y}")
    if sigma <= 0.0 or sigma == 1.0:
        raise ValueError(f"dlog_cross_te requires sigma in (0,1) or (1,inf), got {sigma}")
    if sigma > 1.0:
        return sigma * dlog_cross_te(nu, sigma * y, 1.0 / sigma)
    if y < Y_SMALL:
        return _dlog_te_limit(nu, y, sigma)
    _, delta, d1, d2 = _te_parts(nu, y, sigma)
    rho = math.exp(delta)
    one_m = -math.expm1(delta)
    if not one_m > 0.0:
        raise CrossProductError(
            f"TE cross product non-positive at nu={nu}, y={y}, sigma={sigma}")
    return (d1 - rho * d2) / one_m


# ---------------------------------------------------------------------------
# TM cross product
# ---------------------------------------------------------------------------


def _tm_factor(mu: float, mum1: float, t: float) -> tuple[float, float, float, float]:
    """ln It_mu(t), ln |Kt_mu(t)|, and their (shifted) log-derivatives.

    It(t) = t I' + I = I (t q + 1 + mu) > 0,
    Kt(t) = t K' + K = -K (t r + mu - 1) < 0 for mu > 1.
    The returned gI, gK omit +mu/t and -mu/t shifts that cancel between the
    I and K factors of each cross-product term.
    """
    li, q, lk, r = log_bessel_ik(mu, t)
    wi = t * q + 1.0 + mu
    wk = t * r + mum1
    ln_it = li + math.log(wi)
    ln_kt = lk + math.log(wk)
    g_i = (t - mum1 * q) / wi
    g_k = ((mu + 1.0) * r - t) / wk
    return ln_it, ln_kt, g_i, g_k


def _tm_parts(nu: float, y: float, sigma: float) -> tuple[float, float, float, float]:
    mu = math.hypot(nu, 1.0)
    mum1 = nu * nu / (mu + 1.0)  # mu - 1 without cancellation
    t = sigma * y
    li_y, lk_y, gi_y, gk_y = _tm_factor(mu, mum1, y)
    li_t, lk_t, gi_t, gk_t = _tm_factor(mu, mum1, t)
    ln_a = li_y + lk_t  # ln |It(y) Kt(sigma y)|
    delta = (li_t + lk_y) - ln_a
    d1 = gi_y + sigma * gk_t
    d2 = sigma * gi_t + gk_y
    return ln_a, delta, d1, d2


def _dlog_tm_limit(nu: float, y: float, sigma: float) -> float:
    mu = math.hypot(nu, 1.0)
    ls = math.log(sigma)
    a1 = (mu + 3.0) / (4.0 * (mu + 1.0) ** 2)
    a2 = (3.0 - mu) / (4.0 * (1.0 - mu) ** 2)
    s2m = math.exp(2.0 * mu * ls)
    num = a1 * (1.0 - s2m * sigma * sigma) + a2 * (sigma * sigma - s2m)
    den = 1.0 - s2m
    return 2.0 * y * num / den


def dlog_cross_tm(nu: BesselOrder, y: float, sigma: float) -> float:
    """d/dy ln |Q_mu(y, sigma)|."""
    if y <= 0.0:
        raise ValueError(f"dlog_cross_tm requires y > 0, got {y}")
    if sigma <= 0.0 or sigma == 1.0:
        raise ValueError(f"dlog_cross_tm requires sigma in (0,1) or (1,inf), got {sigma}")
    if sigma > 1.0:
        return sigma * dlog_cross_tm(nu, sigma * y, 1.0 / sigma)
    if y < Y_SMALL and nu >= 0.5:
        return _dlog_tm_limit(nu, y, sigma)
    _, delta, d1, d2 = _tm_parts(nu, y, sigma)
    rho = math.exp(delta)
    one_m = -math.expm1(delta)
    if not one_m > 0.0:
        raise CrossProductError(
            f"TM cross product changed sign at nu={nu}, y={y}, sigma={sigma}")
    return (d1 - rho * d2) / one_m


def dlog_cross(kind: SpectrumKind, nu: BesselOrder, y: float, sigma: float) -> float:
    if kind is SpectrumKind.TE:
        return dlog_cross_te(nu, y, sigma)
    if kind is SpectrumKind.TM:
        return dlog_cross_tm(nu, y, sigma)
    raise ValueError(f"no cross product for kind {kind}")
