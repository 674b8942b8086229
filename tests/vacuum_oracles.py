"""Test-only closed form of the vacuum mode integral, and a reference form
of its integrand.

(1/3) Int_0^inf r^3 coth(r) e^{-s r} dr = Psi(3, s/2)/24 - 2/s^4, with
Psi(3, x) = sum_{k>=0} 6/(x+k)^4 the polygamma of order 3.  The package
samples the integral by quadrature only; the tests compare against this.
`vacuum_integrand_by_branch` evaluates each branch of the integrand only on
its own points, which `integrands.vacuum_integrand` must match bit for bit.
"""

import math

import numpy as np
from scipy.special import polygamma


def polygamma3(x: float) -> float:
    """Psi(3, x) = sum_{k>=0} 6/(x+k)^4 for x > 0."""
    if x <= 0.0:
        raise ValueError(f"polygamma3 requires x > 0, got {x}")
    return float(polygamma(3, x))


def vacuum_closed_form(s: float) -> float:
    """Exact value of the vacuum integral: Psi(3, s/2)/24 - 2/s^4."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"vacuum_closed_form requires 0 < s < inf, got {s}")
    return polygamma3(0.5 * s) / 24.0 - 2.0 / s**4


def vacuum_integrand_by_branch(r):
    """(1/3) r^3 coth(r): the series r^2/3 + r^4/9 - r^6/135 + 2 r^8/2835 on
    the points below 1e-2 and (r^3/3)/tanh r on the rest, each branch
    gathered apart; a float for a scalar or 0-d r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError(f"vacuum_integrand requires r >= 0, got {r[r < 0.0][0]}")
    out = np.empty(r.shape)
    small = r < 1e-2
    r2 = r[small] * r[small]
    out[small] = r2 / 3.0 + r2 * r2 / 9.0 - r2 * r2 * r2 / 135.0 + 2.0 * r2**4 / 2835.0
    big = r[~small]
    with np.errstate(over="ignore"):
        out[~small] = (big**3 / 3.0) / np.tanh(big)
    return out if out.ndim else float(out)
