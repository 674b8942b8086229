"""Laurent-series regularization of exponentially damped spectral integrals,
with Casimir-force applications for vacuum and exponentially graded media."""

from .integrands import (CrossProductError, SpectrumKind, dlog_cross_te,
                         dlog_cross_tm, vacuum_integrand)
from .laurent import (DetectionError, FitError, FitMatrix, LaurentParams,
                      PruneReport, RegularizationError, RegularizationResult,
                      SGrid, Spacing, TruncatedLaurentFit, build_matrix,
                      detect_pole_order, make_grid, prune, regularize)
from .physics import (C_LIGHT, HBAR, HBAR_C, DielectricSpec, ForceReport,
                      PlateGeometry, f0_prefactor, force_report,
                      vacuum_force_per_area)
from .quadrature import (IntegralSample, QuadratureError, eval_I_dielectric,
                         sample_curve)
from .specfun import log_bessel_ik

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT", "CrossProductError", "DetectionError",
    "DielectricSpec", "FitError", "FitMatrix", "ForceReport", "HBAR", "HBAR_C",
    "IntegralSample", "LaurentParams", "PlateGeometry", "PruneReport",
    "QuadratureError", "RegularizationError", "RegularizationResult", "SGrid",
    "Spacing", "SpectrumKind", "TruncatedLaurentFit", "build_matrix",
    "detect_pole_order", "dlog_cross_te", "dlog_cross_tm", "eval_I_dielectric",
    "f0_prefactor", "force_report", "log_bessel_ik", "make_grid", "prune",
    "regularize", "sample_curve", "vacuum_force_per_area", "vacuum_integrand",
]
