"""Special functions of arbitrary real order and argument.

Logarithms and adjacent-order ratios of the modified Bessel functions
I_nu(t) and K_nu(t), the form every integrand in this package consumes,
evaluated elementwise over numpy arrays.  The exponentially scaled pair
e^{-t} I_nu(t), e^{+t} K_nu(t) still underflows or overflows in IEEE
doubles once the order greatly exceeds the argument (e.g. nu = 1000, t = 1,
where I_nu ~ (t/2)^nu / nu!); :func:`log_bessel_ik` stays finite there.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike
from scipy.special import ive, kve


# ---------------------------------------------------------------------------
# Log-domain modified Bessel evaluation.
#
# Three branches, chosen per element and separately for the I and the K
# side: scipy's scaled pair wherever it stays inside IEEE range, else one
# fallback, `_log`: the scaled value alone where it is > 0, Debye uniform
# asymptotics for order >= 200, ascending series below.  One evaluator
# serves both sides, keyed by sign = +1 for I and -1 for K: the sign picks
# ive or kve and the series, flips the odd Debye terms and gives the
# neighbour order |nu + sign| (K_{-nu} = K_nu).  The branch seam is
# controlled by the predicted exponent gap t - nu*eta(t/nu) = -log(ive) and
# kicks in before ive/kve degrade.  The scipy and Debye branches run on
# whole arrays; the series, needed only where an order below 200 meets a
# tiny argument, is summed element by element.  Orders are >= 0.
# ---------------------------------------------------------------------------

_GAP_LIMIT = 620.0
_DEBYE_MIN_ORDER = 200.0


def _debye_u(p):
    # Debye polynomials u_k(p), k = 0..4 (DLMF 10.41.10).
    p2 = p * p
    u1 = p * (3 - 5 * p2) / 24.0
    u2 = p2 * (81 + p2 * (-462 + 385 * p2)) / 1152.0
    u3 = p * p2 * (30375 + p2 * (-369603 + p2 * (765765 - 425425 * p2))) / 414720.0
    u4 = p2 * p2 * (4465125 + p2 * (-94121676 + p2 * (349922430 + p2 * (-446185740 + 185910725 * p2)))) / 39813120.0
    return 1.0, u1, u2, u3, u4


def _eta(z):
    w = np.sqrt(1.0 + z * z)
    return w + np.log(z / (1.0 + w))


def _gap(nu, t):
    """t - nu * eta(t/nu) where nu > 0, t where nu = 0."""
    gap = t.copy()
    pos = nu > 0.0
    gap[pos] = t[pos] - nu[pos] * _eta(t[pos] / nu[pos])
    return gap


def _log_debye(nu, t, sign):
    """ln I_nu(t) (sign +1) or ln K_nu(t) (sign -1), DLMF 10.41.3-4."""
    z = t / nu
    u = _debye_u(1.0 / np.sqrt(1.0 + z * z))
    s = u[0] + sign * u[1] / nu + u[2] / nu**2 + sign * u[3] / nu**3 + u[4] / nu**4
    lead = -0.5 * np.log(2.0 * math.pi * nu) if sign > 0.0 else 0.5 * np.log(math.pi / (2.0 * nu))
    return lead - 0.25 * np.log(1.0 + z * z) + sign * nu * _eta(z) + np.log(s)


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


def _log(nu, t, sign):
    """ln F_nu(t) for F = I (sign +1) or F = K (sign -1): the scaled scipy
    value where the exponent gap allows and it is > 0, the Debye expansion
    where nu >= 200, the ascending series below that."""
    out = np.empty_like(t)
    rest = np.ones(t.shape, dtype=bool)
    pair = np.flatnonzero((nu == 0.0) | (_gap(nu, t) < _GAP_LIMIT))
    v = (ive if sign > 0.0 else kve)(nu[pair], t[pair])
    ok = v > 0.0
    out[pair[ok]] = np.log(v[ok]) + sign * t[pair[ok]]
    rest[pair[ok]] = False
    big = rest & (nu >= _DEBYE_MIN_ORDER)
    out[big] = _log_debye(nu[big], t[big], sign)
    low = rest & ~big
    series = _log_i_series if sign > 0.0 else _log_k_series
    out[low] = [series(n, x) for n, x in zip(nu[low].tolist(), t[low].tolist())]
    return out


def _log_and_ratio(nu, x, sign):
    """(ln F_nu(x), F_|nu+sign|(x) / F_nu(x)) for F = I (sign +1) or F = K
    (sign -1): the scaled scipy pair where the exponent gap allows and both
    values are finite with v0 > 0, v1 >= 0, :func:`_log` at both orders
    elsewhere."""
    ln, ratio = np.empty_like(x), np.empty_like(x)
    pair = np.flatnonzero(_gap(nu, x) < _GAP_LIMIT)
    n, xp = nu[pair], x[pair]
    scaled = ive if sign > 0.0 else kve
    v0, v1 = scaled(n, xp), scaled(np.abs(n + sign), xp)
    good = np.isfinite(v0) & np.isfinite(v1) & (v0 > 0.0) & (v1 >= 0.0)
    done = pair[good]
    ln[done] = np.log(v0[good]) + sign * xp[good]
    ratio[done] = v1[good] / v0[good]
    if done.size < x.size:
        rest = np.ones(x.shape, dtype=bool)
        rest[done] = False
        n, xr = nu[rest], x[rest]
        l0 = _log(n, xr, sign)
        l1 = _log(np.abs(n + sign), xr, sign)
        ln[rest], ratio[rest] = l0, np.exp(l1 - l0)
    return ln, ratio


def log_bessel_ik(nu: ArrayLike, x: ArrayLike, t: ArrayLike | None = None):
    """(ln I_nu(x), I_{nu+1}/I_nu at x, ln K_nu(t), K_{nu-1}/K_nu at t) for
    x, t > 0; t defaults to x.

    The I side is evaluated at x and the K side at t, so that one call gives
    both factors of a cross-product term I_nu(x) K_nu(t).  Each side takes
    its own branch.  Elementwise over the broadcast shape of nu, x and t:
    arrays in, arrays of that shape out; scalars in, four floats out.  Safe
    over order and argument ranges where the scaled pair leaves IEEE range;
    worst observed deviation vs 40-digit arithmetic is ~4e-12.
    """
    nu, x, t = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(x, dtype=float),
                                   np.asarray(x if t is None else t, dtype=float))
    shape = x.shape
    nu, x, t = nu.ravel(), x.ravel(), t.ravel()
    if np.any(nu < 0.0):
        raise ValueError(f"log_bessel_ik requires nu >= 0, got {nu[nu < 0.0][0]}")
    for arg in (x, t):
        if np.any(arg <= 0.0):
            raise ValueError(f"log_bessel_ik requires arguments > 0, got {arg[arg <= 0.0][0]}")
    li, q = _log_and_ratio(nu, x, 1.0)
    lk, r = _log_and_ratio(nu, t, -1.0)
    if not shape:
        return float(li[0]), float(q[0]), float(lk[0]), float(r[0])
    return li.reshape(shape), q.reshape(shape), lk.reshape(shape), r.reshape(shape)
