"""The nested TM route, kept as the oracle of the radial TM samples.

Before the radial route, a TM sample was the TE sampler's nested double
integral with the mode threshold g = sqrt(nu^2 + 1): outer nu integrals over
[0, X(s)] of inner y integrals over [0, sqrt(X(s)^2 - g^2)] of
y dlog_cross_tm(nu, y) e^{-s sqrt(g^2 + y^2)}, each on the batched qag rule
`quadrature._adaptive_gk21`.  This is that route, serial, with the same
bits: at the default rel_tol it returns the nested samples bit for bit.
"""

import numpy as np

from casimir_laurent.integrands import dlog_cross_tm
from casimir_laurent.quadrature import _adaptive_gk21, truncation_point


def nested_tm(points, sigma, rel_tol):
    """(values, est_errors) of the TM integrals at every s of points, as one
    batch of outer nu integrals whose inner y integrals advance together."""
    s = np.asarray(points, dtype=float)
    r_max = truncation_point(s)

    def inner(nu, member):
        g = np.hypot(nu, 1.0)
        out = np.zeros(nu.shape)
        live = g < r_max[member, None]
        nu_l, g_l = nu[live], g[live]
        owner = member[np.nonzero(live)[0]]
        s_l, r_l = s[owner], r_max[owner]

        def integrand(y, i):
            damping = np.exp(-s_l[i, None] * np.hypot(g_l[i, None], y))
            return y * dlog_cross_tm(nu_l[i, None], y, sigma) * damping

        out[live] = _adaptive_gk21(integrand, np.sqrt(r_l * r_l - g_l * g_l), rel_tol)[0]
        return out

    return _adaptive_gk21(lambda nu, member: nu * inner(nu, member), r_max, rel_tol)
