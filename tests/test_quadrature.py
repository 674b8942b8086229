"""Quadrature oracles.

The vacuum integral has a closed form and the dielectric double integral is
checked against an independent tensor-product Gauss-Legendre evaluation on
geometric panels (dual route, no shared code with the adaptive path).
"""

import math

import numpy as np
import pytest

from casimir_laurent.integrands import SpectrumKind, dlog_cross
from casimir_laurent.laurent import Spacing, make_grid
from casimir_laurent.quadrature import (DIELECTRIC_REL_TOL, VACUUM_REL_TOL,
                                        QuadratureConfig, QuadratureError,
                                        default_config, eval_I_dielectric,
                                        eval_I_vacuum, integrate_decaying,
                                        sample_curve, truncation_point,
                                        vacuum_closed_form)

SIGMA = 8.0 / 27.0


def brute_dielectric(kind, s, sigma, n_panels=16, nodes=10):
    """Tensor Gauss-Legendre on geometric panels; converges to ~1e-12 here."""
    x_max = (-math.log(1e-13) + 25.0) / s
    edges = np.geomspace(1e-4, x_max, n_panels + 1)
    edges[0] = 0.0
    xg, wg = np.polynomial.legendre.leggauss(nodes)

    def panels(limit):
        for a, b in zip(edges[:-1], edges[1:]):
            if a >= limit:
                break
            half = 0.5 * (min(b, limit) - a)
            mid = a + half
            yield mid + half * xg, half * wg

    total = 0.0
    for nu_vals, nu_ws in panels(x_max):
        for nu, wn in zip(nu_vals, nu_ws):
            g = nu if kind is SpectrumKind.TE else math.hypot(nu, 1.0)
            if g >= x_max:
                continue
            y_lim = math.sqrt(x_max * x_max - g * g)
            inner = 0.0
            for y_vals, y_ws in panels(y_lim):
                for y, wy in zip(y_vals, y_ws):
                    inner += (wy * y * dlog_cross(kind, nu, y, sigma)
                              * math.exp(-s * math.hypot(g, y)))
            total += wn * nu * inner
    return total


# ---------------------------------------------------------------------------
# integrate_decaying
# ---------------------------------------------------------------------------


def test_gamma_integral():
    value, err = integrate_decaying(lambda x: x**3, 1.0)
    assert value == pytest.approx(6.0, rel=1e-9)
    assert err < 1e-6


def test_gamma_integral_scaled():
    value, _ = integrate_decaying(lambda x: x**3, 2.0)
    assert value == pytest.approx(0.375, rel=1e-9)


def test_unit_integral():
    value, _ = integrate_decaying(lambda x: 1.0, 1.0)
    assert value == pytest.approx(1.0, rel=1e-10)


def test_tail_truncation_is_converged():
    cfg = QuadratureConfig()
    base, base_err = integrate_decaying(lambda x: x**3, 0.5, cfg)
    x_max = truncation_point(0.5, cfg)
    doubled, doubled_err = integrate_decaying(lambda x: x**3, 0.5, cfg, upper=2.0 * x_max)
    assert abs(doubled - base) <= base_err + doubled_err + 1e-12 * abs(base)


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_decaying(lambda x: math.nan, 1.0)


def test_integrate_domain():
    with pytest.raises(ValueError):
        integrate_decaying(lambda x: 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_decaying(lambda x: 1.0, -1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(tail_tol=1.5)


def test_default_budgets():
    assert default_config(SpectrumKind.VACUUM).rel_tol == VACUUM_REL_TOL
    assert default_config(SpectrumKind.TE).rel_tol == DIELECTRIC_REL_TOL
    assert default_config(SpectrumKind.TM).rel_tol == DIELECTRIC_REL_TOL


def test_truncation_point_value():
    cfg = QuadratureConfig()
    expect = (13.0 * math.log(10.0) + 20.0)
    assert truncation_point(1.0, cfg) == pytest.approx(expect, rel=1e-12)
    assert truncation_point(2.0, cfg) == pytest.approx(0.5 * expect, rel=1e-12)


# ---------------------------------------------------------------------------
# vacuum integral
# ---------------------------------------------------------------------------


def test_closed_form_at_unit_damping():
    # Psi(3, 1/2) = pi^4, so the closed form is pi^4/24 - 2 there.
    assert vacuum_closed_form(1.0) == pytest.approx(math.pi**4 / 24.0 - 2.0, rel=1e-14)


def test_closed_form_domain():
    with pytest.raises(ValueError):
        vacuum_closed_form(0.0)


@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_vacuum_quadrature_matches_closed_form(s):
    sample = eval_I_vacuum(s)
    assert sample.value == pytest.approx(vacuum_closed_form(s), rel=1e-9)
    assert sample.kind is SpectrumKind.VACUUM
    assert sample.sigma == 1.0
    assert sample.s == s


def test_vacuum_small_s_pole_strength():
    # I(s) -> 2 / s^4 as s -> 0; the correction enters only at O(s).
    s = 1e-3
    assert s**4 * vacuum_closed_form(s) == pytest.approx(2.0, rel=1e-9)


def test_vacuum_monotone_in_damping():
    values = [eval_I_vacuum(s).value for s in (0.5, 1.0, 2.0)]
    assert values[0] > values[1] > values[2] > 0.0


# ---------------------------------------------------------------------------
# dielectric double integral, dual route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,s", [(SpectrumKind.TE, 0.5), (SpectrumKind.TM, 0.8)])
def test_dielectric_against_brute_tensor(kind, s):
    sample = eval_I_dielectric(kind, s, SIGMA)
    ref = brute_dielectric(kind, s, SIGMA)
    assert sample.value == pytest.approx(ref, rel=1e-8)
    assert sample.kind is kind and sample.sigma == SIGMA


def test_dielectric_sigma_above_one_against_brute():
    sample = eval_I_dielectric(SpectrumKind.TE, 1.0, 27.0 / 8.0)
    ref = brute_dielectric(SpectrumKind.TE, 1.0, 27.0 / 8.0)
    assert math.isfinite(sample.value)
    assert sample.value == pytest.approx(ref, rel=1e-8)


def test_dielectric_domain():
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.VACUUM, 1.0, SIGMA)
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.TE, 0.0, SIGMA)
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.TE, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_I_dielectric(SpectrumKind.TE, 1.0, -0.3)


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------


def test_sample_curve_preserves_order():
    grid = [1.0, 0.5, 2.0]
    samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid)
    assert [smp.s for smp in samples] == grid
    for smp in samples:
        assert smp.value == pytest.approx(vacuum_closed_form(smp.s), rel=1e-9)


def test_sample_curve_accepts_grid_object():
    grid = make_grid(0.5, 1.0, 3, Spacing.LINEAR)
    samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid)
    assert [smp.s for smp in samples] == [0.5, 0.75, 1.0]


def test_sample_curve_tags_failing_index(monkeypatch):
    import casimir_laurent.quadrature as quadrature

    calls = []

    def boom(s, cfg=None):
        calls.append(s)
        if len(calls) == 2:
            raise QuadratureError("synthetic failure")
        return eval_I_vacuum(s, cfg)

    monkeypatch.setattr(quadrature, "eval_I_vacuum", boom)
    with pytest.raises(QuadratureError, match=r"sample 1 \(s=0\.7\)"):
        sample_curve(SpectrumKind.VACUUM, 1.0, [0.6, 0.7, 0.8])
