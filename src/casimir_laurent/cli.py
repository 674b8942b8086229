"""Batch front-end: run the vacuum and dielectric pipelines and emit
machine-readable samples, fit matrices, curve families, and reports.

Commands:
    vacuum                          vacuum pipeline
    dielectric --sigma <v>          TE + TM pipelines at contrast sigma
    sensitivity --vary <k> --values <list>
                                    vacuum pipeline swept over one parameter

Common flags mirror the config-file keys one to one; flags override file
values.  Config files are flat `key = value` lines with `#` comments.
Exit codes: 0 success, 2 configuration error, 3 quadrature failure,
4 regularization failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from .integrands import SpectrumKind
from .laurent import (FitMatrix, LaurentParams, RegularizationError,
                      RegularizationResult, make_grid, regularize)
from .physics import DielectricSpec, PlateGeometry, _unit_geometry, force_report
from .quadrature import (DIELECTRIC_REL_TOL, VACUUM_REL_TOL, QuadratureConfig,
                         QuadratureError, sample_curve)

# Vacuum comparison constants: the exact zeta-regularized coefficient and
# the pipeline regression baseline used by the acceptance tests.
C0_EXACT = math.pi**4 / 360.0
C0_REFERENCE = 0.27281


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    sigma: Fraction | float | None = None
    eps_s: float = 0.05
    s_max: float = 1.0
    grid_points: int = 200
    spacing: str = "linear"
    n1: int = -6
    n2: int = 9
    eps_c: float = 1e-3
    rel_tol: float | None = None
    abs_tol: float = 1e-14
    tail_tol: float = 1e-13
    out_dir: str = "."
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.0

    def laurent_params(self) -> LaurentParams:
        return LaurentParams(N1=self.n1, N2=self.n2, eps_c=self.eps_c)

    def quad_config(self, kind: SpectrumKind) -> QuadratureConfig:
        rel = self.rel_tol
        if rel is None:
            rel = VACUUM_REL_TOL if kind is SpectrumKind.VACUUM else DIELECTRIC_REL_TOL
        return QuadratureConfig(rel_tol=rel, abs_tol=self.abs_tol,
                                tail_tol=self.tail_tol)

    def geometry(self) -> PlateGeometry:
        if (self.lx, self.ly, self.lz) == (1.0, 1.0, 1.0):
            return _unit_geometry()
        return PlateGeometry(self.lx, self.ly, self.lz)


_FIELD_PARSERS = {
    "eps_s": float, "s_max": float, "grid_points": int, "spacing": str,
    "n1": int, "n2": int, "eps_c": float,
    "rel_tol": float, "abs_tol": float, "tail_tol": float,
    "out_dir": str, "lx": float, "ly": float, "lz": float,
}

# RunConfig fields that have a command-line flag of the same name.
_FLAG_FIELDS = ("eps_s", "s_max", "grid_points", "spacing", "eps_c", "n1", "n2",
                "rel_tol", "out_dir")

# Sensitivity sweep key -> (RunConfig field, parser of one swept value).
_SWEEPS = {
    "eps_s": ("eps_s", float), "s_R": ("s_max", float), "J": ("grid_points", int),
    "eps_c": ("eps_c", float), "N2": ("n2", int), "rel_tol": ("rel_tol", float),
}
SENSITIVITY_KEYS = tuple(_SWEEPS)


def parse_sigma(text: str) -> Fraction | float:
    """Accept a decimal or an exact fraction like 8/27."""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse sigma value {text!r}: {exc}") from exc


def parse_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    data: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "sigma" and key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        data[key] = value
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_values = parse_config_file(Path(args.config))
        updates: dict[str, object] = {}
        for key, text in file_values.items():
            if key == "sigma":
                updates["sigma"] = parse_sigma(text)
            else:
                try:
                    updates[key] = _FIELD_PARSERS[key](text)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
        cfg = replace(cfg, **updates)
    updates = {}
    for name in _FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if getattr(args, "sigma", None) is not None:
        updates["sigma"] = parse_sigma(args.sigma)
    if updates:
        cfg = replace(cfg, **updates)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.eps_s <= 0.0 or cfg.s_max <= cfg.eps_s:
        raise ConfigError(f"need 0 < eps_s < s_max, got {cfg.eps_s}, {cfg.s_max}")
    if cfg.grid_points < 16:
        raise ConfigError(f"grid_points must be >= 16, got {cfg.grid_points}")
    if cfg.spacing not in ("linear", "log"):
        raise ConfigError(f"spacing must be linear or log, got {cfg.spacing!r}")
    if not (cfg.n1 <= -2 and cfg.n2 >= 2):
        raise ConfigError(f"need n1 <= -2 and n2 >= 2, got {cfg.n1}, {cfg.n2}")
    for name in ("eps_c", "abs_tol", "tail_tol"):
        v = getattr(cfg, name)
        if not 0.0 <= v < 1.0:
            raise ConfigError(f"{name} must lie in [0,1), got {v}")
    if cfg.rel_tol is not None and not 0.0 < cfg.rel_tol < 1.0:
        raise ConfigError(f"rel_tol must lie in (0,1), got {cfg.rel_tol}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, obj: object) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_samples(path: Path, samples) -> None:
    lines = ["s,I,err"]
    lines += [f"{_fmt(p.s)},{_fmt(p.value)},{_fmt(p.est_error)}" for p in samples]
    _write_text(path, "\n".join(lines) + "\n")


def _write_curves(path: Path, result: RegularizationResult) -> None:
    lines = ["n2,nhat2,c0hat"]
    for n2 in sorted(result.curves):
        for nhat2, c0hat in result.curves[n2]:
            lines.append(f"{n2},{nhat2},{_fmt(c0hat)}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_matrix(path: Path, matrix: FitMatrix) -> None:
    windows = []
    for (n1, n2) in sorted(matrix.entries):
        fit = matrix.entries[(n1, n2)]
        windows.append({
            "n1": n1, "n2": n2,
            "coeffs": {str(n): fit.coeffs[n] for n in sorted(fit.coeffs)},
            "rms_residual": fit.rms_residual,
            "cond": fit.cond,
        })
    _write_json(path, {"N1": matrix.N1, "N2": matrix.N2, "windows": windows})


def _config_echo(cfg: RunConfig) -> dict[str, object]:
    return {
        "grid": {"eps_s": cfg.eps_s, "s_R": cfg.s_max, "J": cfg.grid_points,
                 "spacing": cfg.spacing},
        "laurent": {"N1": cfg.n1, "N2": cfg.n2, "eps_c": cfg.eps_c},
        "quadrature": {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol,
                       "tail_tol": cfg.tail_tol},
    }


def _result_block(result: RegularizationResult) -> dict[str, object]:
    return {
        "pole_order": result.pole_order,
        "c0": result.c0,
        "c_minus": result.c_minus,
        "turning_values": {str(k): v for k, v in sorted(result.turning_values.items())},
        "spread": result.diagnostics["spread"],
        "flagged_windows": [list(w) for w in result.diagnostics["flagged_windows"]],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run_vacuum(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = make_grid(cfg.eps_s, cfg.s_max, cfg.grid_points, cfg.spacing)
    samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid,
                           cfg.quad_config(SpectrumKind.VACUUM))
    result = regularize(samples, cfg.laurent_params())
    _write_samples(out / "samples.csv", samples)
    _write_matrix(out / "matrix.json", result.matrix)
    _write_curves(out / "curves.csv", result)
    report = {
        "mode": "vacuum",
        **_config_echo(cfg),
        **_result_block(result),
        "c0_exact": C0_EXACT,
        "rel_dev_exact": abs(result.c0 - C0_EXACT) / C0_EXACT,
        "reference_c0": C0_REFERENCE,
        "abs_dev_reference": abs(result.c0 - C0_REFERENCE),
    }
    _write_json(out / "report.json", report)
    print(f"vacuum: pole_order={result.pole_order} c0={result.c0:.9f} "
          f"spread={result.diagnostics['spread']:.3e}")
    return 0


def run_dielectric(cfg: RunConfig) -> int:
    if cfg.sigma is None:
        raise ConfigError("dielectric mode requires --sigma")
    sigma_value = float(cfg.sigma)
    if sigma_value <= 0.0 or sigma_value == 1.0:
        raise ConfigError(f"sigma must lie in (0,1) or (1,inf), got {cfg.sigma}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = make_grid(cfg.eps_s, cfg.s_max, cfg.grid_points, cfg.spacing)
    results: dict[str, RegularizationResult] = {}
    for kind in (SpectrumKind.TE, SpectrumKind.TM):
        tag = kind.value
        samples = sample_curve(kind, sigma_value, grid, cfg.quad_config(kind))
        result = regularize(samples, cfg.laurent_params())
        results[tag] = result
        _write_samples(out / f"samples_{tag}.csv", samples)
        _write_matrix(out / f"matrix_{tag}.json", result.matrix)
        _write_curves(out / f"curves_{tag}.csv", result)
        print(f"{tag}: pole_order={result.pole_order} c0={result.c0:.9f} "
              f"spread={result.diagnostics['spread']:.3e}")
    spec = DielectricSpec.from_sigma(sigma_value)
    geom = cfg.geometry()
    forces = force_report(results["te"].c0, results["tm"].c0, spec, geom)
    report = {
        "mode": "dielectric",
        "sigma": sigma_value,
        "sigma_exact": str(cfg.sigma) if isinstance(cfg.sigma, Fraction) else None,
        "alpha": spec.alpha,
        **_config_echo(cfg),
        "te": _result_block(results["te"]),
        "tm": _result_block(results["tm"]),
        "geometry": {"Lx": geom.Lx, "Ly": geom.Ly, "Lz": geom.Lz},
        "force": {
            "F0": forces.F0,
            "delta_force": forces.delta_force,
            "vacuum_force": forces.vacuum_force,
            "ratio_te": forces.ratio_te,
            "ratio_tm": forces.ratio_tm,
            "scaled_te": forces.scaled_te,
            "scaled_tm": forces.scaled_tm,
            "scaled_total": forces.scaled_total,
        },
    }
    _write_json(out / "report.json", report)
    return 0


def dump_sensitivity(cfg: RunConfig, vary: str, values: list[float]) -> int:
    """Sweep one parameter over the vacuum pipeline and tabulate c0."""
    if vary not in _SWEEPS:
        raise ConfigError(f"unknown sweep parameter {vary!r}; "
                          f"choose from {', '.join(SENSITIVITY_KEYS)}")
    field_name, parse = _SWEEPS[vary]
    if not values:
        raise ConfigError("sensitivity sweep needs a non-empty values list")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # eps_c and N2 only change the fitting stage, so one sampling pass serves
    # the whole sweep; the other parameters alter the samples themselves.
    shared_samples = None
    if vary in ("eps_c", "N2"):
        grid = make_grid(cfg.eps_s, cfg.s_max, cfg.grid_points, cfg.spacing)
        shared_samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid,
                                      cfg.quad_config(SpectrumKind.VACUUM))
    rows = []
    for value in values:
        swept = replace(cfg, **{field_name: parse(value)})
        _validate(swept)
        if shared_samples is not None:
            samples = shared_samples
        else:
            grid = make_grid(swept.eps_s, swept.s_max, swept.grid_points, swept.spacing)
            samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid,
                                   swept.quad_config(SpectrumKind.VACUUM))
        result = regularize(samples, swept.laurent_params())
        rows.append((value, result))
        print(f"{vary}={value:g}: pole_order={result.pole_order} "
              f"c0={result.c0:.9f} spread={result.diagnostics['spread']:.3e}")
    lines = ["param,value,pole_order,c0,spread"]
    for value, result in rows:
        lines.append(f"{vary},{value:g},{result.pole_order},"
                     f"{_fmt(result.c0)},{_fmt(result.diagnostics['spread'])}")
    _write_text(out / "sensitivity.csv", "\n".join(lines) + "\n")
    _write_json(out / "sensitivity.json", {
        "vary": vary,
        "rows": [{"value": v, "pole_order": r.pole_order, "c0": r.c0,
                  "spread": r.diagnostics["spread"]} for v, r in rows],
    })
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-s", dest="eps_s", type=float, help="grid lower endpoint")
    p.add_argument("--s-max", dest="s_max", type=float, help="grid upper endpoint")
    p.add_argument("--grid-points", dest="grid_points", type=int, help="grid size J")
    p.add_argument("--spacing", choices=("linear", "log"), help="grid spacing")
    p.add_argument("--eps-c", dest="eps_c", type=float, help="pruning tolerance")
    p.add_argument("--n1", type=int, help="most negative probed exponent fence N1")
    p.add_argument("--n2", type=int, help="largest positive probed exponent fence N2")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, help="quadrature relative tolerance")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--config", help="flat key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-laurent",
        description="Laurent-regularized Casimir mode integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_vac = sub.add_parser("vacuum", help="vacuum pipeline")
    _add_common(p_vac)

    p_diel = sub.add_parser("dielectric", help="dielectric TE+TM pipelines")
    p_diel.add_argument("--sigma", required=True,
                        help="contrast sigma, decimal or fraction (e.g. 8/27)")
    _add_common(p_diel)

    p_sens = sub.add_parser("sensitivity", help="vacuum parameter sweep")
    p_sens.add_argument("--vary", required=True, help="parameter to sweep")
    p_sens.add_argument("--values", required=True,
                        help="comma-separated sweep values")
    _add_common(p_sens)
    return parser


def _parse_values(text: str) -> list[float]:
    items = [t for t in (piece.strip() for piece in text.split(",")) if t]
    if not items:
        raise ConfigError("sensitivity sweep needs a non-empty values list")
    try:
        return [float(t) for t in items]
    except ValueError as exc:
        raise ConfigError(f"bad sweep value in {text!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "vacuum":
            return run_vacuum(cfg)
        if args.command == "dielectric":
            return run_dielectric(cfg)
        values = _parse_values(args.values)
        return dump_sensitivity(cfg, args.vary, values)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except RegularizationError as exc:
        print(f"regularization failure ({exc.stage}): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
