"""SI-unit conversion of regularized Casimir coefficients.

Energies, pressures, and force differences for parallel plates bounding
an exponentially graded dielectric eps(z) = eps0 * exp(alpha z / Lz).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

# Frozen constants table.
HBAR = 1.054571817e-34     # J s, CODATA 2018 recommended value
C_LIGHT = 2.99792458e8     # m / s, exact by SI definition
HBAR_C = HBAR * C_LIGHT    # J m = 3.16152677e-26


@dataclass(frozen=True)
class PlateGeometry:
    """Plate dimensions in meters; Lx, Ly are lateral, Lz is the gap."""

    Lx: float
    Ly: float
    Lz: float

    def __post_init__(self) -> None:
        for name in ("Lx", "Ly", "Lz"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.Lx / self.Lz < 100.0 or self.Ly / self.Lz < 100.0:
            warnings.warn(
                "parallel-plate formulas assume Lx, Ly >> Lz; "
                f"got Lx/Lz={self.Lx / self.Lz:.3g}, Ly/Lz={self.Ly / self.Lz:.3g}",
                stacklevel=3)

    @property
    def area(self) -> float:
        return self.Lx * self.Ly


# The scaled form uses a unit box; the aspect warning does not apply there.
def _unit_geometry() -> PlateGeometry:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PlateGeometry(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class DielectricSpec:
    """Exponential grading exponent alpha; contrast sigma = exp(alpha/2)."""

    alpha: float
    sigma: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        try:
            sigma = math.exp(0.5 * self.alpha)
        except OverflowError:
            sigma = math.inf
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"alpha = {self.alpha} gives a contrast exp(alpha/2) "
                             f"outside the positive finite doubles")
        object.__setattr__(self, "sigma", sigma)
        if self.alpha == 0.0:
            warnings.warn("alpha = 0 is a homogeneous medium: zero force difference",
                          stacklevel=3)

    @classmethod
    def from_sigma(cls, sigma: float) -> "DielectricSpec":
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        return cls(alpha=2.0 * math.log(sigma))


@dataclass(frozen=True)
class ForceReport:
    F0: float                  # N
    delta_force: float         # N, F0 * (c0_te + c0_tm)
    vacuum_force: float        # N, total attraction on a plate in vacuum
    ratio_te: float
    ratio_tm: float
    # Geometry-free coefficients of Lx*Ly/Lz^4 (N m^2), the scaled form.
    scaled_te: float
    scaled_tm: float
    scaled_total: float


def vacuum_force_per_area(Lz: float) -> float:
    """Magnitude of the vacuum Casimir pressure pi^2 hbar c / (240 Lz^4), Pa."""
    if Lz <= 0.0:
        raise ValueError(f"Lz must be positive, got {Lz}")
    return math.pi**2 * HBAR_C / (240.0 * Lz**4)


def f0_prefactor(spec: DielectricSpec, geom: PlateGeometry | None = None) -> float:
    """Force-difference prefactor hbar c alpha^4 Lx Ly / (64 pi^2 Lz^4), Newtons."""
    geom = geom or _unit_geometry()
    return HBAR_C * spec.alpha**4 * geom.area / (64.0 * math.pi**2 * geom.Lz**4)


def force_report(c0_te: float, c0_tm: float, spec: DielectricSpec,
                 geom: PlateGeometry | None = None) -> ForceReport:
    """Assemble forces, the vacuum benchmark, and dimensionless ratios."""
    if not (math.isfinite(c0_te) and math.isfinite(c0_tm)):
        raise ValueError("coefficients must be finite")
    geom = geom or _unit_geometry()
    f0 = f0_prefactor(spec, geom)
    vac = geom.area * vacuum_force_per_area(geom.Lz)
    scale = f0_prefactor(spec)   # the unit box
    return ForceReport(
        F0=f0,
        delta_force=f0 * (c0_te + c0_tm),
        vacuum_force=vac,
        ratio_te=f0 * c0_te / vac,
        ratio_tm=f0 * c0_tm / vac,
        scaled_te=scale * c0_te,
        scaled_tm=scale * c0_tm,
        scaled_total=scale * (c0_te + c0_tm),
    )
