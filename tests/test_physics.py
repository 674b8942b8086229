"""Unit-conversion oracles: every number here is re-derived from the frozen
constants by independent arithmetic inside the test."""

import math
import warnings

import pytest

from casimir_laurent.physics import (C_LIGHT, HBAR, HBAR_C, DielectricSpec,
                                     ForceReport, PlateGeometry, f0_prefactor,
                                     force_report, vacuum_force_per_area)

SIGMA = 8.0 / 27.0
ALPHA = 2.0 * math.log(SIGMA)           # -2.432790648648986
MICRON_BOX = dict(Lx=1e-3, Ly=1e-3, Lz=1e-6)


def quiet_geometry(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PlateGeometry(**kwargs)


def test_constants():
    assert HBAR == 1.054571817e-34
    assert C_LIGHT == 2.99792458e8
    assert HBAR_C == pytest.approx(3.16152677e-26, rel=1e-8, abs=0)
    assert HBAR_C == HBAR * C_LIGHT


# ---------------------------------------------------------------------------
# geometry and dielectric spec
# ---------------------------------------------------------------------------


def test_geometry_area_and_validation():
    geom = PlateGeometry(**MICRON_BOX)
    assert geom.area == 1e-6
    with pytest.raises(ValueError):
        PlateGeometry(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PlateGeometry(1.0, 1.0, -1e-6)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="Lx must be positive and finite"):
            PlateGeometry(bad, 1e-3, 1e-6)


def test_geometry_aspect_warning():
    with pytest.warns(UserWarning, match="Lx, Ly >> Lz"):
        PlateGeometry(1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PlateGeometry(**MICRON_BOX)  # 1000:1 aspect, no warning


def test_dielectric_spec_sigma_derivation():
    spec = DielectricSpec(alpha=ALPHA)
    assert spec.sigma == pytest.approx(SIGMA, rel=1e-15, abs=0)
    spec2 = DielectricSpec.from_sigma(SIGMA)
    assert spec2.alpha == pytest.approx(ALPHA, rel=1e-15, abs=0)


def test_dielectric_spec_validation():
    with pytest.raises(ValueError):
        DielectricSpec.from_sigma(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            DielectricSpec.from_sigma(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            DielectricSpec(alpha=bad)
    # finite, but exp(alpha/2) underflows to 0 or overflows
    for bad in (-1e6, 1500.0):
        with pytest.raises(ValueError, match="outside the positive finite doubles"):
            DielectricSpec(alpha=bad)
    with pytest.warns(UserWarning, match="alpha = 0"):
        DielectricSpec(alpha=0.0)


def test_alpha_fourth_power_value():
    # sigma = 8/27 gives alpha^4 = (6 ln(2/3))^4 = 35.0282911672820773...
    assert ALPHA**4 == pytest.approx(35.02829116728208, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# pressures
# ---------------------------------------------------------------------------


def test_vacuum_pressure_at_one_micron():
    expect = math.pi**2 * HBAR_C / 240.0 * 1e24
    got = vacuum_force_per_area(1e-6)
    assert got == pytest.approx(expect, rel=1e-14, abs=0)
    assert got == pytest.approx(1.30013e-3, rel=1e-5, abs=0)


def test_vacuum_pressure_quartic_scaling():
    assert vacuum_force_per_area(0.5e-6) == pytest.approx(
        16.0 * vacuum_force_per_area(1e-6), rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        vacuum_force_per_area(0.0)


def test_f0_prefactor_micron_example():
    spec = DielectricSpec.from_sigma(SIGMA)
    geom = PlateGeometry(**MICRON_BOX)
    expect = HBAR_C * ALPHA**4 * 1e-6 / (64.0 * math.pi**2 * 1e-24)
    got = f0_prefactor(spec, geom)
    assert got == pytest.approx(expect, rel=1e-14, abs=0)
    assert got == pytest.approx(1.7532187e-27 * 1e18, rel=1e-6, abs=0)


def test_f0_prefactor_unit_box_default():
    spec = DielectricSpec.from_sigma(SIGMA)
    assert f0_prefactor(spec) == pytest.approx(
        HBAR_C * ALPHA**4 / (64.0 * math.pi**2), rel=1e-14, abs=0)
    assert f0_prefactor(spec) == pytest.approx(1.7532187e-27, rel=1e-6, abs=0)


def test_f0_quartic_in_alpha():
    geom = PlateGeometry(**MICRON_BOX)
    a = f0_prefactor(DielectricSpec(alpha=1.0), geom)
    b = f0_prefactor(DielectricSpec(alpha=2.0), geom)
    assert b == pytest.approx(16.0 * a, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# force report
# ---------------------------------------------------------------------------


@pytest.fixture()
def report():
    spec = DielectricSpec.from_sigma(SIGMA)
    geom = PlateGeometry(**MICRON_BOX)
    return force_report(0.19744, 0.20231, spec, geom)


def test_report_delta_force(report):
    assert report.delta_force == pytest.approx(
        report.F0 * (0.19744 + 0.20231), rel=1e-14, abs=0)
    # each coefficient lands in its own polarization's slot
    assert report.ratio_te / report.ratio_tm == pytest.approx(0.19744 / 0.20231, rel=1e-14, abs=0)


def test_report_ratio_identity(report):
    # ratio = c0 * 15 alpha^4 / (4 pi^4), independent of the geometry
    expect_te = 0.19744 * 15.0 * ALPHA**4 / (4.0 * math.pi**4)
    assert report.ratio_te == pytest.approx(expect_te, rel=1e-12, abs=0)
    assert report.ratio_te == pytest.approx(0.26625, rel=1e-4, abs=0)
    assert report.ratio_tm == pytest.approx(0.27282, rel=1e-4, abs=0)


def test_report_scaled_coefficients(report):
    scale = HBAR_C * ALPHA**4 / (64.0 * math.pi**2)
    assert report.scaled_te == pytest.approx(scale * 0.19744, rel=1e-14, abs=0)
    assert report.scaled_te == pytest.approx(3.46159e-28, rel=1e-4, abs=0)
    assert report.scaled_tm == pytest.approx(3.54697e-28, rel=1e-4, abs=0)
    assert report.scaled_total == pytest.approx(report.scaled_te + report.scaled_tm,
                                                rel=1e-14, abs=0)


def test_report_vacuum_benchmark(report):
    assert report.vacuum_force == pytest.approx(1e-6 * vacuum_force_per_area(1e-6),
                                                rel=1e-14, abs=0)
    # force difference is a fraction of the vacuum attraction
    assert 0.3 < report.delta_force / report.vacuum_force < 0.7


def test_ratio_is_area_invariant():
    spec = DielectricSpec.from_sigma(SIGMA)
    small = force_report(0.2, 0.2, spec, quiet_geometry(Lx=1e-4, Ly=1e-4, Lz=1e-6))
    large = force_report(0.2, 0.2, spec, quiet_geometry(Lx=1e-2, Ly=1e-2, Lz=1e-6))
    assert small.ratio_te == pytest.approx(large.ratio_te, rel=1e-12, abs=0)
    assert large.F0 == pytest.approx(1e4 * small.F0, rel=1e-12, abs=0)
    assert small.scaled_te == large.scaled_te


def test_report_signs_and_finiteness(report):
    assert report.F0 > 0.0 and report.vacuum_force > 0.0
    assert report.delta_force > 0.0
    for name in ("scaled_te", "scaled_tm", "scaled_total", "ratio_te", "ratio_tm"):
        assert math.isfinite(getattr(report, name))


def test_report_rejects_nonfinite():
    spec = DielectricSpec.from_sigma(SIGMA)
    with pytest.raises(ValueError):
        force_report(math.nan, 0.2, spec)
    with pytest.raises(ValueError):
        force_report(0.2, math.inf, spec)


def test_report_unit_box_default_matches_explicit():
    spec = DielectricSpec.from_sigma(SIGMA)
    default = force_report(0.19744, 0.20231, spec)
    explicit = force_report(0.19744, 0.20231, spec, quiet_geometry(Lx=1.0, Ly=1.0, Lz=1.0))
    assert default == explicit
    assert isinstance(default, ForceReport)
