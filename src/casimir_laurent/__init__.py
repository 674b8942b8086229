"""Laurent-series regularization of exponentially damped spectral integrals,
with Casimir-force applications for vacuum and exponentially graded media."""

from .integrands import (CrossProductError, SpectrumKind, dlog_cross_te,
                         dlog_cross_tm, vacuum_integrand)
from .laurent import (DetectionError, FitError, FitMatrix, LaurentParams,
                      PruneReport, RegularizationError, RegularizationResult,
                      SGrid, Spacing, TruncatedLaurentFit, build_matrix,
                      detect_pole_order, fit_window, make_grid, prune,
                      regularize, subtract_and_refit, turning_point)
from .physics import (C_LIGHT, HBAR, HBAR_C, DielectricSpec, ForceReport,
                      PlateGeometry, casimir_energy_te, f0_prefactor,
                      force_report, vacuum_force_per_area)
from .quadrature import (IntegralSample, QuadratureConfig, QuadratureError,
                         eval_I_dielectric, eval_I_vacuum, integrate_decaying,
                         sample_curve, vacuum_closed_form)
from .specfun import BesselOrder, log_bessel_ik, polygamma3

__version__ = "0.1.0"

__all__ = [
    "BesselOrder", "C_LIGHT", "CrossProductError", "DetectionError",
    "DielectricSpec", "FitError", "FitMatrix", "ForceReport", "HBAR", "HBAR_C",
    "IntegralSample", "LaurentParams", "PlateGeometry", "PruneReport",
    "QuadratureConfig", "QuadratureError", "RegularizationError",
    "RegularizationResult", "SGrid", "Spacing", "SpectrumKind",
    "TruncatedLaurentFit", "build_matrix", "casimir_energy_te",
    "detect_pole_order", "dlog_cross_te", "dlog_cross_tm", "eval_I_dielectric",
    "eval_I_vacuum", "f0_prefactor", "fit_window", "force_report",
    "integrate_decaying", "log_bessel_ik", "make_grid", "polygamma3", "prune",
    "regularize", "sample_curve", "subtract_and_refit", "turning_point",
    "vacuum_closed_form", "vacuum_force_per_area", "vacuum_integrand",
]
