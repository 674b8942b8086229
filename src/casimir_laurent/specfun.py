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
# kicks in before ive/kve degrade.  Orders are >= 0.
#
# A call costs little more than its ive/kve work where no element falls
# back, the common case: the scaled pair runs on the whole arrays and the
# logs and ratios are formed in place, with no index gathered.  The ranges
# that validate the input also bound the gap, which grows with the order
# and falls with the argument, so that where the bound is well inside the
# limit the gap is not evaluated at all.  Only the elements that fall back
# are gathered; the Debye branch runs on them as arrays, and the series,
# needed only where an order below 200 meets a tiny argument, is summed
# element by element.
# ---------------------------------------------------------------------------

_GAP_LIMIT = 620.0
_DEBYE_MIN_ORDER = 200.0
# A box of orders and arguments whose largest gap, computed as one scalar,
# is below _GAP_PROVEN lies wholly inside the limit (:func:`_gap_below_limit`).
_GAP_PROVEN = 600.0
_BOX_MAX = 2.0**30


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
    """t - nu * eta(t/nu) where nu > 0, t where nu = 0 (t - 0 * eta(1)).
    Its sqrt(1 + z^2) is hypot(1, z), which stays finite where z = t/nu
    passes 1e154 and z*z would overflow."""
    z = np.divide(t, nu, out=np.ones_like(t), where=nu > 0.0)
    w = np.hypot(1.0, z)
    return t - nu * (w + np.log(z / (1.0 + w)))


def _gap_below_limit(nu_lo: float, nu_hi: float, t_lo: float, t_hi: float) -> bool:
    """Whether every order in [nu_lo, nu_hi] and argument in [t_lo, t_hi] is
    proven to have its computed gap below _GAP_LIMIT without evaluating it.

    For nu > 0 the gap grows with nu and falls with t (d/dnu = -ln(z/(1+w))
    and d/dt = 1 - w/z, with z = t/nu and w = sqrt(1 + z^2)), so the gap at
    (nu_hi, t_lo) bounds the box.  Up to 2^30 in order and argument, and
    with every z = t/nu in [1e-150, 1e150], so that z*z neither overflows
    nor underflows, the computed gap is far within 1 of the exact one, and
    a bound below _GAP_PROVEN leaves every elementwise branch decision as it
    would be."""
    if not (0.0 < nu_lo and nu_hi <= _BOX_MAX and t_hi <= _BOX_MAX
            and t_hi <= 1e150 * nu_lo):
        return False
    z = t_lo / nu_hi
    if not z >= 1e-150:
        return False
    w = math.sqrt(1.0 + z * z)
    return t_lo - nu_hi * (w + math.log(z / (1.0 + w))) < _GAP_PROVEN


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


def _log_and_ratio(nu, x, sign, inside: bool):
    """(ln F_nu(x), F_|nu+sign|(x) / F_nu(x)) for F = I (sign +1) or F = K
    (sign -1): the scaled scipy pair where the exponent gap allows and both
    values are finite with v0 > 0, v1 >= 0, :func:`_log` at both orders
    elsewhere.  `inside` says the gap is proven below the limit everywhere,
    so that it need not be evaluated.

    The pair runs on the whole arrays, also past the gap limit, where its
    values are cheap and discarded: scipy's ufuncs do not honour a `where`
    mask.  Only the elements that fall back are gathered."""
    scaled = ive if sign > 0.0 else kve
    v0, v1 = scaled(nu, x), scaled(np.abs(nu + sign), x)
    good = np.isfinite(v0) & np.isfinite(v1) & (v0 > 0.0) & (v1 >= 0.0)
    if not inside:
        good &= _gap(nu, x) < _GAP_LIMIT
    done = True if good.all() else good
    ratio = np.divide(v1, v0, out=v1, where=done)
    ln = np.log(v0, out=v0, where=done)
    (np.add if sign > 0.0 else np.subtract)(ln, x, out=ln, where=done)
    if done is not True:
        rest = ~good
        n, xr = nu[rest], x[rest]
        # both orders in one evaluation
        l0, l1 = np.split(_log(np.concatenate([n, np.abs(n + sign)]), np.concatenate([xr, xr]),
                               sign), 2)
        ln[rest], ratio[rest] = l0, np.exp(l1 - l0)
    return ln, ratio


def log_bessel_ik(nu: ArrayLike, x: ArrayLike, t: ArrayLike | None = None):
    """(ln I_nu(x), I_{nu+1}/I_nu at x, ln K_nu(t), K_{nu-1}/K_nu at t) for
    finite nu >= 0 and finite x, t > 0; t defaults to x.  Any other input
    raises ValueError naming the first value out of range.

    The I side is evaluated at x and the K side at t, so that one call gives
    both factors of a cross-product term I_nu(x) K_nu(t).  Each side takes
    its own branch.  Elementwise over the broadcast shape of nu, x and t:
    arrays in, arrays of that shape out; scalars in, four floats out.  Safe
    over order and argument ranges where the scaled pair leaves IEEE range;
    worst observed deviation vs 40-digit arithmetic is ~4e-12.

    Arguments above about 1.07e9 (2^30) are outside that range: scipy's ive
    and kve return NaN there.  Below order 200 the ascending series that
    takes over gives a math domain error, inf or NaN, with a numpy
    RuntimeWarning; from order 200 the Debye logarithms hold, but the ratios
    exp(l1 - l0) cancel logs of that size and keep about 7 digits.  Sampling
    reaches such arguments only for s below about 5e-8.  At subnormal orders,
    where t/nu overflows, the K side falls back to the truncated series and
    is wrong; sampling never reaches them.
    """
    nu, x, t = (np.asarray(a, dtype=float) for a in (nu, x, x if t is None else t))
    if not nu.shape == x.shape == t.shape:
        nu, x, t = np.broadcast_arrays(nu, x, t)
    shape = x.shape
    nu, x, t = nu.ravel(), x.ravel(), t.ravel()
    # each check is one pass for the least and one for the greatest value,
    # NaN included (it propagates through both); the ranges also bound the gap
    nu_lo, nu_hi = _range(nu, "finite nu >= 0", True)
    x_lo, x_hi = _range(x, "finite arguments > 0", False)
    t_lo, t_hi = _range(t, "finite arguments > 0", False)
    li, q = _log_and_ratio(nu, x, 1.0, _gap_below_limit(nu_lo, nu_hi, x_lo, x_hi))
    lk, r = _log_and_ratio(nu, t, -1.0, _gap_below_limit(nu_lo, nu_hi, t_lo, t_hi))
    if not shape:
        return float(li[0]), float(q[0]), float(lk[0]), float(r[0])
    return li.reshape(shape), q.reshape(shape), lk.reshape(shape), r.reshape(shape)


def _range(values, what: str, zero_ok: bool) -> tuple[float, float]:
    """(min, max) of values, which must be finite and > 0, or >= 0 with
    zero_ok; raises ValueError naming `what` and the first value out of
    range.  (inf, -inf) for no values."""
    if not values.size:
        return math.inf, -math.inf
    lo, hi = float(np.minimum.reduce(values)), float(np.maximum.reduce(values))
    if (lo >= 0.0 if zero_ok else lo > 0.0) and hi < math.inf:
        return lo, hi
    ok = (values >= 0.0 if zero_ok else values > 0.0) & (values < math.inf)
    raise ValueError(f"log_bessel_ik requires {what}, got {values[~ok][0]}")
