"""Output checks that do not take their reference values from the program.

Every reference is computed here by another route: 20- and 40-digit mpmath
for the vacuum closed form and the TE/TM integrands, `scipy.integrate.quad`
for the dielectric leading coefficient, a tensor-product Gauss-Legendre rule
for dielectric samples, and typed-in constants for the force block.  A check
that does not hold raises CheckError with the failing quantity in the message.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

C0_EXACT = math.pi**4 / 360.0
C0_BAND = 0.012            # release-gate band around pi^4/360 (criterion 2)
VACUUM_SAMPLE_RTOL = 1e-8  # quadrature runs at rel_tol 1e-9
C_MINUS_VACUUM = 2.0       # I(s) -> 2/s^4 as s -> 0
C_MINUS_RTOL = 2e-5        # measured deviations 5e-7 (vacuum), 4e-6 (J = 16)
BRUTE_RTOL = 1e-7          # dielectric quadrature runs at rel_tol 1e-7
INTEGRAND_RTOL = 1e-9
IDENTITY_RTOL = 1e-12
HBAR_C = 1.054571817e-34 * 2.99792458e8   # CODATA 2018 hbar times exact c

# (nu, y, sigma) points for the integrand check.  (250, 2, 8/27) lies beyond
# the IEEE range of the scaled Bessel pair at order >= 200, where the program
# switches to Debye asymptotics; (2.5, 1.5, 27/8) takes the sigma > 1 path.
INTEGRAND_POINTS = (
    (0.5, 0.3, 8.0 / 27.0),
    (3.0, 5.0, 8.0 / 27.0),
    (40.0, 25.0, 8.0 / 27.0),
    (250.0, 2.0, 8.0 / 27.0),
    (2.5, 1.5, 27.0 / 8.0),
)


class CheckError(AssertionError):
    """An output of the program disagrees with its independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got: float, ref: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# vacuum
# ---------------------------------------------------------------------------


class VacuumReference:
    """Psi(3, s/2)/24 - 2/s^4 at 20 digits, memoised per abscissa."""

    def __init__(self) -> None:
        self._values: dict[float, float] = {}

    def __call__(self, s: float) -> float:
        value = self._values.get(s)
        if value is None:
            with mp.workdps(20):
                x = mp.mpf(s)
                value = float(mp.psi(3, x / 2) / 24 - 2 / x**4)
            self._values[s] = value
        return value


def expected_grid(eps_s: float, s_max: float, J: int, spacing: str) -> np.ndarray:
    if spacing == "log":
        return np.exp(np.linspace(math.log(eps_s), math.log(s_max), J))
    return eps_s + (s_max - eps_s) * np.arange(J) / (J - 1)


def check_grid(s_values, eps_s: float, s_max: float, J: int, spacing: str) -> None:
    s = np.asarray(s_values, dtype=float)
    _require(s.shape == (J,), f"expected {J} grid points, got {s.shape[0]}")
    ref = expected_grid(eps_s, s_max, J, spacing)
    worst = float(np.max(np.abs(s - ref) / ref))
    _require(worst <= 1e-12, f"{spacing} grid on [{eps_s}, {s_max}] off by {worst:.1e}")


def check_vacuum_samples(rows, reference: VacuumReference) -> None:
    """Every (s, I, err) row against the closed form."""
    for s, value, _ in rows:
        ref = reference(s)
        _require(_close(value, ref, VACUUM_SAMPLE_RTOL),
                 f"vacuum I({s!r}) = {value!r}, closed form {ref!r}")


def _check_c0(c0: float, what: str) -> None:
    dev = abs(c0 - C0_EXACT) / C0_EXACT
    _require(dev <= C0_BAND, f"{what}: c0 {c0!r} is {dev:.2%} from pi^4/360")


def check_vacuum_report(report: dict) -> None:
    _require(report["pole_order"] == -4, f"vacuum pole order {report['pole_order']}")
    _require(_close(report["c_minus"], C_MINUS_VACUUM, C_MINUS_RTOL),
             f"vacuum c_minus {report['c_minus']!r}, expected 2")
    _check_c0(report["c0"], "vacuum report")


def check_sensitivity(vary: str, values: list[float], rows: list[dict]) -> None:
    _require([r["value"] for r in rows] == values,
             f"{vary} sweep rows {[r['value'] for r in rows]} for values {values}")
    for row in rows:
        _require(row["pole_order"] == -4, f"{vary}={row['value']}: pole {row['pole_order']}")
        _check_c0(row["c0"], f"{vary}={row['value']}")
    if vary == "eps_c":
        # the pruning threshold gates only detection: c0 must not move at all
        c0s = {row["c0"] for row in rows}
        _require(len(c0s) == 1, f"eps_c sweep moved c0: {sorted(c0s)}")


def check_identical(first: dict[str, str], again: dict[str, str], what: str) -> None:
    """Digests of every artifact of two runs of the same command."""
    _require(first == again, f"rerun of {what} changed artifacts: "
             f"{sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))}")


# ---------------------------------------------------------------------------
# dielectric
# ---------------------------------------------------------------------------


def c_minus_reference(sigma: float) -> float:
    """6 * int_0^1 |1 - sqrt(1 - (1 - sigma^2) u^2)| du, the large-r limit of
    the mode integrand, for sigma on either side of 1."""
    a = 1.0 - sigma * sigma
    value, _ = quad(lambda u: abs(1.0 - math.sqrt(1.0 - a * u * u)), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13)
    return 6.0 * value


def check_dielectric_report(report: dict, sigma: float) -> None:
    """Pole order and leading coefficient per polarization, then the force block."""
    ref = c_minus_reference(sigma)
    for tag in ("te", "tm"):
        block = report[tag]
        _require(block["pole_order"] == -4, f"{tag} pole order {block['pole_order']}")
        _require(_close(block["c_minus"], ref, C_MINUS_RTOL),
                 f"{tag} c_minus {block['c_minus']!r}, reference {ref!r}")
    check_force_identity(report)


def check_force_identity(report: dict) -> None:
    """Force ratio identity of criterion 4, per polarization, on the unit box:
    ratio = F0 c0 / F_vac = c0 * 15 alpha^4 / (4 pi^4)."""
    alpha = report["alpha"]
    force = report["force"]
    f0 = HBAR_C * alpha**4 / (64.0 * math.pi**2)
    vacuum = math.pi**2 * HBAR_C / 240.0
    for tag in ("te", "tm"):
        c0 = report[tag]["c0"]
        identity = c0 * 15.0 * alpha**4 / (4.0 * math.pi**4)
        _require(_close(force[f"ratio_{tag}"], identity, IDENTITY_RTOL),
                 f"ratio_{tag} {force[f'ratio_{tag}']!r}, identity {identity!r}")
    _require(_close(force["F0"], f0, IDENTITY_RTOL), f"F0 {force['F0']!r}, expected {f0!r}")
    _require(_close(force["vacuum_force"], vacuum, IDENTITY_RTOL),
             f"vacuum_force {force['vacuum_force']!r}, expected {vacuum!r}")
    total = f0 * (report["te"]["c0"] + report["tm"]["c0"])
    _require(_close(force["delta_force"], total, IDENTITY_RTOL),
             f"delta_force {force['delta_force']!r}, expected {total!r}")


def brute_sample(dlog_cross, kind_is_te: bool, s: float, sigma: float,
                 n_panels: int = 16, nodes: int = 10) -> float:
    """The dielectric mode integral by a fixed tensor Gauss-Legendre rule on
    geometric panels in nu and y, with no adaptivity."""
    x_max = (-math.log(1e-13) + 25.0) / s
    edges = np.geomspace(1e-4, x_max, n_panels + 1)
    edges[0] = 0.0
    xg, wg = np.polynomial.legendre.leggauss(nodes)

    def nodes_below(limit):
        for a, b in zip(edges[:-1], edges[1:]):
            if a >= limit:
                break
            half = 0.5 * (min(b, limit) - a)
            yield from zip((a + half + half * xg).tolist(), (half * wg).tolist())

    total = 0.0
    for nu, w_nu in nodes_below(x_max):
        g = nu if kind_is_te else math.hypot(nu, 1.0)
        if g >= x_max:
            continue
        inner = 0.0
        for y, w_y in nodes_below(math.sqrt(x_max * x_max - g * g)):
            inner += w_y * y * dlog_cross(nu, y, sigma) * math.exp(-s * math.hypot(g, y))
        total += w_nu * nu * inner
    return total


def check_sample(value: float, ref: float, what: str) -> None:
    """A dielectric sample against its brute_sample reference."""
    _require(_close(value, ref, BRUTE_RTOL), f"{what} = {value!r}, Gauss-Legendre {ref!r}")


def _mp_ik(nu, x):
    """I_nu, I_nu', K_nu, K_nu' at x, derivatives by the adjacent-order
    recurrences I' = (I_{nu-1} + I_{nu+1})/2, K' = -(K_{nu-1} + K_{nu+1})/2."""
    i = mp.besseli(nu, x)
    di = (mp.besseli(nu - 1, x) + mp.besseli(nu + 1, x)) / 2
    k = mp.besselk(nu, x)
    dk = -(mp.besselk(nu - 1, x) + mp.besselk(nu + 1, x)) / 2
    return i, di, k, dk


def mp_dlog_te(nu: float, y: float, sigma: float) -> float:
    """d/dy ln|I_nu(y) K_nu(sigma y) - I_nu(sigma y) K_nu(y)| at 40 digits."""
    with mp.workdps(40):
        nu, y, sigma = mp.mpf(nu), mp.mpf(y), mp.mpf(sigma)
        i_y, di_y, k_y, dk_y = _mp_ik(nu, y)
        i_t, di_t, k_t, dk_t = _mp_ik(nu, sigma * y)
        p = i_y * k_t - i_t * k_y
        dp = di_y * k_t + sigma * i_y * dk_t - sigma * di_t * k_y - i_t * dk_y
        return float(dp / p)


def mp_dlog_tm(nu: float, y: float, sigma: float) -> float:
    """d/dy ln|It(y) Kt(sigma y) - It(sigma y) Kt(y)| at order sqrt(nu^2 + 1),
    with f~(x) = x f'(x) + f(x), at 40 digits."""
    with mp.workdps(40):
        y, sigma = mp.mpf(y), mp.mpf(sigma)
        mu = mp.sqrt(mp.mpf(nu) ** 2 + 1)

        def tilde(x):
            # f~ and its derivative x f'' + 2 f', with f'' from the modified
            # Bessel equation: f'' = (1 + mu^2/x^2) f - f'/x
            i, di, k, dk = _mp_ik(mu, x)
            curv = 1 + mu * mu / (x * x)
            return (x * di + i, x * (curv * i - di / x) + 2 * di,
                    x * dk + k, x * (curv * k - dk / x) + 2 * dk)

        it_y, dit_y, kt_y, dkt_y = tilde(y)
        it_t, dit_t, kt_t, dkt_t = tilde(sigma * y)
        q = it_y * kt_t - it_t * kt_y
        dq = dit_y * kt_t + sigma * it_y * dkt_t - sigma * dit_t * kt_y - it_t * dkt_y
        return float(dq / q)


def check_integrands(dlog_te, dlog_tm) -> None:
    for nu, y, sigma in INTEGRAND_POINTS:
        for tag, got_fn, ref_fn in (("te", dlog_te, mp_dlog_te), ("tm", dlog_tm, mp_dlog_tm)):
            got, ref = got_fn(nu, y, sigma), ref_fn(nu, y, sigma)
            _require(_close(got, ref, INTEGRAND_RTOL),
                     f"dlog_cross_{tag}({nu}, {y}, {sigma:.6g}) = {got!r}, mpmath {ref!r}")


def debye_gap(nu: float, t: float) -> float:
    """t - nu * eta(t/nu): the log of the scaled I_nu(t), which leaves IEEE
    range beyond ~700."""
    z = t / nu
    w = math.sqrt(1.0 + z * z)
    return t - nu * (w + math.log(z / (1.0 + w)))
