"""Controlled-accuracy evaluation of the damped semi-infinite mode integrals.

Produces I(s) samples for the regularization pipeline: the single vacuum
integral (which has the closed form Psi(3, s/2)/24 - 2/s^4) and the nested
dielectric double integral over mode order nu and radial argument y.

The dielectric integrand is y * dlog_cross weighted by the damping
exp(-s * sqrt(g^2 + y^2)) with g = nu (TE) or g = sqrt(nu^2 + 1) (TM):
the damping attaches to the mode radius.  That convention is fixed by the
vacuum limit, where the same polar weighting reproduces the closed form
above exactly; a separable e^{-s nu} e^{-s y} weighting does not (it
changes the pole order of I(s) from -4 to -3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy.integrate import quad

from .integrands import SpectrumKind, dlog_cross, vacuum_integrand
from .specfun import polygamma3

# Default relative budgets: the vacuum integral is cheap and feeds a
# 7-significant-figure comparison; the dielectric double integral is
# ~10^5 evaluations per sample point.
VACUUM_REL_TOL = 1e-9
DIELECTRIC_REL_TOL = 1e-7

# Subinterval limit of every adaptive quad call.
MAX_PANELS = 200


class QuadratureError(ArithmeticError):
    """Quadrature failed to converge or the integrand returned non-finite values."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = VACUUM_REL_TOL
    abs_tol: float = 1e-14
    tail_tol: float = 1e-13

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "tail_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0,1), got {v}")


@dataclass(frozen=True)
class IntegralSample:
    s: float
    value: float
    est_error: float
    kind: SpectrumKind
    sigma: float


def default_config(kind: SpectrumKind) -> QuadratureConfig:
    if kind is SpectrumKind.VACUUM:
        return QuadratureConfig(rel_tol=VACUUM_REL_TOL)
    return QuadratureConfig(rel_tol=DIELECTRIC_REL_TOL)


def truncation_point(s: float, cfg: QuadratureConfig) -> float:
    """Upper limit X(s): beyond it e^{-s x} alone is below tail_tol with margin."""
    return (-math.log(cfg.tail_tol) + 20.0) / s


def _checked_quad(f: Callable[[float], float], upper: float,
                  cfg: QuadratureConfig, what: str) -> tuple[float, float]:
    """Adaptive quad of f over (0, upper); raises QuadratureError naming `what`
    on non-convergence or a non-finite result."""
    out = quad(f, 0.0, upper, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
               limit=MAX_PANELS, full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(f"{what} did not converge: {out[3]}")
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureError(f"{what} returned non-finite result")
    return float(value), float(err)


def integrate_decaying(
    f: Callable[[float], float],
    s: float,
    cfg: QuadratureConfig | None = None,
    upper: float | None = None,
) -> tuple[float, float]:
    """Integrate f(x) e^{-s x} over (0, infinity), truncated at X(s).

    Returns (value, est_error).  Raises QuadratureError on non-convergence
    or non-finite integrand values.
    """
    if s <= 0.0:
        raise ValueError(f"integrate_decaying requires s > 0, got {s}")
    cfg = cfg or QuadratureConfig()
    x_max = truncation_point(s, cfg) if upper is None else upper

    def integrand(x: float) -> float:
        v = f(x) * math.exp(-s * x)
        if not math.isfinite(v):
            raise QuadratureError(f"non-finite integrand at x={x}")
        return v

    return _checked_quad(integrand, x_max, cfg, "quadrature")


def vacuum_closed_form(s: float) -> float:
    """Exact value of the vacuum integral: Psi(3, s/2)/24 - 2/s^4."""
    if s <= 0.0:
        raise ValueError(f"vacuum_closed_form requires s > 0, got {s}")
    return polygamma3(0.5 * s) / 24.0 - 2.0 / s**4


def eval_I_vacuum(s: float, cfg: QuadratureConfig | None = None) -> IntegralSample:
    """(1/3) Int_0^inf r^3 coth(r) e^{-s r} dr by adaptive quadrature."""
    cfg = cfg or default_config(SpectrumKind.VACUUM)
    value, err = integrate_decaying(vacuum_integrand, s, cfg)
    return IntegralSample(s=s, value=value, est_error=err,
                          kind=SpectrumKind.VACUUM, sigma=1.0)


def _dielectric_order(kind: SpectrumKind, nu: float) -> float:
    return nu if kind is SpectrumKind.TE else math.hypot(nu, 1.0)


def eval_I_dielectric(
    kind: SpectrumKind,
    s: float,
    sigma: float,
    cfg: QuadratureConfig | None = None,
) -> IntegralSample:
    """Nested quadrature of the dielectric mode integral at damping s.

    Outer variable nu in [0, R], inner y in [0, sqrt(R^2 - g^2)] where
    R = truncation_point(s) and g is the kind's effective order; the inner
    integrand is y * dlog_cross(nu, y, sigma) * exp(-s * hypot(g, y)).
    """
    if kind is SpectrumKind.VACUUM:
        raise ValueError("use eval_I_vacuum for the vacuum integral")
    if s <= 0.0:
        raise ValueError(f"eval_I_dielectric requires s > 0, got {s}")
    if sigma <= 0.0 or sigma == 1.0:
        raise ValueError(f"sigma must lie in (0,1) or (1,inf), got {sigma}")
    cfg = cfg or default_config(kind)
    r_max = truncation_point(s, cfg)

    def inner(nu: float) -> float:
        g = _dielectric_order(kind, nu)
        if g >= r_max:
            return 0.0
        y_max = math.sqrt(r_max * r_max - g * g)
        return _checked_quad(
            lambda y: y * dlog_cross(kind, nu, y, sigma) * math.exp(-s * math.hypot(g, y)),
            y_max, cfg, f"inner quadrature at nu={nu}")[0]

    value, err = _checked_quad(lambda nu: nu * inner(nu), r_max, cfg, "outer quadrature")
    return IntegralSample(s=s, value=value, est_error=err, kind=kind, sigma=sigma)


def sample_curve(
    kind: SpectrumKind,
    sigma: float,
    grid: Sequence[float],
    cfg: QuadratureConfig | None = None,
) -> list[IntegralSample]:
    """One IntegralSample per grid point, in grid order, evaluated serially."""
    points = getattr(grid, "points", grid)
    cfg = cfg or default_config(kind)
    samples: list[IntegralSample] = []
    for j, s in enumerate(points):
        try:
            if kind is SpectrumKind.VACUUM:
                samples.append(eval_I_vacuum(float(s), cfg))
            else:
                samples.append(eval_I_dielectric(kind, float(s), sigma, cfg))
        except ArithmeticError as exc:
            raise QuadratureError(f"sample {j} (s={s}) failed: {exc}") from exc
    return samples
