"""Test-only closed form of the vacuum mode integral.

(1/3) Int_0^inf r^3 coth(r) e^{-s r} dr = Psi(3, s/2)/24 - 2/s^4, with
Psi(3, x) = sum_{k>=0} 6/(x+k)^4 the polygamma of order 3.  The package
samples the integral by quadrature only; the tests compare against this.
"""

import math

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
