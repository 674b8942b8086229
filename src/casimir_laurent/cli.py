"""Batch front-end: run the vacuum and dielectric pipelines and emit
machine-readable samples, fit matrices, c0 curves, and reports.

Commands:
    vacuum                          vacuum pipeline
    dielectric --sigma <v>          TE + TM pipelines at contrast sigma
    sensitivity --vary <k> --values <list>
                                    vacuum pipeline swept over one parameter

Common flags mirror the config-file keys of the same name and share their
parsers, as sweep values do; flags override file values.  Config files are
flat `key = value` lines with `#` comments.  Every value is checked before
the first sample, out_dir included: a file at it or above it is refused.
out_dir is created only once every curve of the command has been sampled and
regularized, so a failed run leaves no directory and no partial artifacts.
Exit codes: 0 success, 2 configuration error, 3 quadrature failure,
4 regularization failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .integrands import SpectrumKind, check_sigma
from .laurent import (LaurentParams, RegularizationError, RegularizationResult,
                      SGrid, make_grid, regularize)
from .physics import DielectricSpec, PlateGeometry, force_report
from .quadrature import (IntegralSample, QuadratureError, check_reach, resolve_rel_tol,
                         sample_curve)

# Vacuum comparison constants: the exact zeta-regularized coefficient and
# the pipeline regression baseline used by the acceptance tests.
C0_EXACT = math.pi**4 / 360.0
C0_REFERENCE = 0.27281


class ConfigError(ValueError):
    pass


def parse_sigma(text: str) -> Fraction | float:
    """Accept a decimal or an exact fraction like 8/27.  The ValueError
    raised otherwise names the cause only; its caller names the text."""
    text = text.strip()
    try:
        return Fraction(text) if "/" in text else float(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None
    except ValueError:
        raise ValueError("not a decimal or a fraction like 8/27") from None


def _setting(default, parse, flag_help: str | None = None, sweep: str | None = None):
    """A RunConfig field: its default, the parser of its text (flag, config
    or sweep value), its --flag help (None: no common flag) and sweep key."""
    return field(default=default, metadata={"parse": parse, "help": flag_help, "sweep": sweep})


@dataclass(frozen=True)
class RunConfig:
    """Every run setting; each field is a config-file key of the same name.
    Unset eps_s and s_max mean the default grid of the run's kind."""
    sigma: Fraction | float | None = _setting(None, parse_sigma)
    eps_s: float | None = _setting(None, float, "grid lower endpoint", "eps_s")
    s_max: float | None = _setting(None, float, "grid upper endpoint", "s_R")
    grid_points: int = _setting(200, int, "grid size J", "J")
    spacing: str = _setting("linear", str, "grid spacing, linear or log")
    eps_c: float = _setting(LaurentParams.eps_c, float, "pruning tolerance", "eps_c")
    n1: int = _setting(LaurentParams.N1, int, "most negative probed exponent fence N1")
    n2: int = _setting(LaurentParams.N2, int, "largest positive probed exponent fence N2", "N2")
    rel_tol: float | None = _setting(None, float, "quadrature relative tolerance", "rel_tol")
    out_dir: str = _setting(".", str, "output directory")
    lx: float = _setting(1.0, float)
    ly: float = _setting(1.0, float)
    lz: float = _setting(1.0, float)


_SETTINGS = {f.name: f for f in fields(RunConfig)}
_SWEEPS = {f.metadata["sweep"]: f for f in fields(RunConfig) if f.metadata["sweep"]}

# The default vacuum grid [DEFAULT_EPS_S, DEFAULT_S_MAX].  The default
# dielectric grid is that one scaled by |ln sigma| / |ln GRID_SIGMA|: the
# paper's contrast runs on it unscaled, and near sigma = 1, where the Laurent
# terms dominate only for s of order |ln sigma|, the grid shrinks with them.
DEFAULT_EPS_S = 0.05
DEFAULT_S_MAX = 1.0
GRID_SIGMA = 8 / 27


@dataclass(frozen=True)
class RunPlan:
    """A RunConfig resolved into the library objects that check its values."""
    grid: SGrid
    params: LaurentParams
    rel_tol: float                    # of every curve; TE and TM share one
    sigma: float = 1.0
    spec: DielectricSpec | None = None
    geom: PlateGeometry | None = None  # None: the unit box


def plan_run(cfg: RunConfig, kind: SpectrumKind) -> RunPlan:
    """Check every value of cfg for curves of `kind`, before any sampling or
    file write; TE stands for both dielectric kinds, which share every rule.

    The range rules live in check_sigma, check_reach, make_grid,
    LaurentParams, resolve_rel_tol, DielectricSpec and PlateGeometry; their
    ValueError becomes a ConfigError, as does a sigma too large for a float.
    Only the rules no constructor holds are written here.
    """
    if cfg.grid_points < 16:
        raise ConfigError(f"grid_points must be >= 16, got {cfg.grid_points}")
    if cfg.spacing not in ("linear", "log"):
        raise ConfigError(f"spacing must be linear or log, got {cfg.spacing!r}")
    dielectric = kind is not SpectrumKind.VACUUM
    if dielectric and cfg.sigma is None:
        raise ConfigError("sigma is required: pass --sigma or set the config key sigma")
    try:
        # the float sampled with is checked: an exact sigma can round to 1
        sigma = float(cfg.sigma) if dielectric else 1.0
        if dielectric:
            check_sigma(sigma)
        spec = DielectricSpec.from_sigma(sigma) if dielectric else None
        scale = abs(math.log(sigma) / math.log(GRID_SIGMA)) if dielectric else 1.0
        eps_s = DEFAULT_EPS_S * scale if cfg.eps_s is None else cfg.eps_s
        s_max = DEFAULT_S_MAX * scale if cfg.s_max is None else cfg.s_max
        grid = make_grid(eps_s, s_max, cfg.grid_points, cfg.spacing)
        if dielectric:
            check_reach(sigma, eps_s)
        box = (cfg.lx, cfg.ly, cfg.lz)
        plan = RunPlan(
            grid=grid,
            params=LaurentParams(N1=cfg.n1, N2=cfg.n2, eps_c=cfg.eps_c),
            rel_tol=resolve_rel_tol(kind, cfg.rel_tol),
            sigma=sigma, spec=spec,
            geom=PlateGeometry(*box) if dielectric and box != (1.0, 1.0, 1.0) else None)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.grid_points <= cfg.n2 - cfg.n1 - 1:    # coefficients of window (n1 + 1, n2 - 1)
        raise ConfigError(f"grid_points must exceed the {cfg.n2 - cfg.n1 - 1} coefficients of "
                          f"the widest window, got {cfg.grid_points}")
    # the nearest path of out_dir that exists, out_dir itself included, must
    # be a directory, or the run could not write what it sampled; a dangling
    # link exists, and is none
    out = Path(cfg.out_dir)
    block = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not block.is_dir():
        raise ConfigError(f"out_dir {cfg.out_dir} cannot be a directory: {block} is not one")
    return plan


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
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        data[key] = value
    return data


def _parse_setting(name: str, text: str, key: str | None = None):
    """The value of setting `name` from its text, by the field's parser;
    a failure is a ConfigError naming `key` (default: the setting's name)."""
    try:
        return _SETTINGS[name].metadata["parse"](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key or name}: {text!r} ({exc})") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values, then flags over them; every text goes through
    _parse_setting, and plan_run checks the result."""
    texts = list(parse_config_file(Path(args.config)).items()) if args.config else []
    texts += [(name, getattr(args, name)) for name in _SETTINGS
              if getattr(args, name, None) is not None]
    return RunConfig(**{name: _parse_setting(name, text) for name, text in texts})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, obj: object) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _summary(result: RegularizationResult) -> str:
    return (f"pole_order={result.pole_order} c0={result.c0:.9f} "
            f"nhat2={result.diagnostics['turning_nhat2']}")


def _csv(header: str, row: str, rows: list[tuple]) -> str:
    """A CSV text: header, then `row` filled from each tuple of rows, all in
    one %-format pass; %.16e prints a float as f"{x:.16e}" does."""
    return f"{header}\n" + ((row + "\n") * len(rows)) % tuple(chain.from_iterable(rows))


def _write_curve(out: Path, kind: SpectrumKind, samples: list[IntegralSample],
                 result: RegularizationResult) -> None:
    """Write one curve's samples, window matrix and c0 curve; print its line."""
    suffix = "" if kind is SpectrumKind.VACUUM else f"_{kind.value}"
    _write_text(out / f"samples{suffix}.csv",
                _csv("s,I,err", "%.16e,%.16e,%.16e",
                     [(p.s, p.value, p.est_error) for p in samples]))
    # every window by one C-encoder call (indent would force the pure-Python
    # encoder), one window per line: a window's only inner object, coeffs,
    # is followed by ', "cond"', so "}, {" occurs only between windows.  The
    # file parses to {"N1", "N2", "windows": [...]}.  Each dict is built in
    # the file's key order, which is sorted text order, the exponents of
    # coeffs included ("-1" before "-2" before "0"), so the encoder sorts
    # nothing; a window's exponents are those of `order` in [n1, n2]
    matrix = result.matrix
    coeffs, rms, cond = matrix.coeffs.tolist(), matrix.rms_residual.tolist(), matrix.cond.tolist()
    order = [(e, str(e)) for e in sorted(range(matrix.N1 + 1, matrix.N2), key=str)]
    windows = json.dumps([{"coeffs": {key: coeffs[i][j][e - n1] for e, key in order
                                      if n1 <= e <= n2},
                           "cond": cond[i][j], "n1": n1, "n2": n2, "rms_residual": rms[i][j]}
                          for i, n1 in enumerate(range(matrix.N1 + 1, 0))
                          for j, n2 in enumerate(range(1, matrix.N2))])
    _write_text(out / f"matrix{suffix}.json",
                f'{{"N1": {matrix.N1}, "N2": {matrix.N2}, "windows": [\n'
                + windows[1:-1].replace("}, {", "},\n{") + "\n]}\n")
    _write_text(out / f"curves{suffix}.csv", _csv("nhat2,c0hat", "%s,%.16e", result.curve))
    print(f"{kind.value}: {_summary(result)}")


def _config_echo(cfg: RunConfig, plan: RunPlan) -> dict[str, object]:
    return {
        "grid": {"eps_s": plan.grid.eps_s, "s_R": plan.grid.s_R, "J": plan.grid.J,
                 "spacing": plan.grid.spacing.value},
        "laurent": {"N1": cfg.n1, "N2": cfg.n2, "eps_c": cfg.eps_c},
        "quadrature": {"rel_tol": plan.rel_tol},
    }


def _result_block(result: RegularizationResult) -> dict[str, object]:
    return {
        "pole_order": result.pole_order,
        "c0": result.c0,
        "c_minus": result.c_minus,
        "turning_nhat2": result.diagnostics["turning_nhat2"],
        "sign_change": result.diagnostics["sign_change"],
        "flagged_windows": [list(w) for w in result.diagnostics["flagged_windows"]],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _run_curve(kind: SpectrumKind, plan: RunPlan
               ) -> tuple[list[IntegralSample], RegularizationResult]:
    """Sample the curve of `kind` on plan's grid, then regularize it."""
    samples = sample_curve(kind, plan.sigma, plan.grid, plan.rel_tol)
    return samples, regularize(samples, plan.params)


def run_vacuum(cfg: RunConfig) -> int:
    plan = plan_run(cfg, SpectrumKind.VACUUM)
    samples, result = _run_curve(SpectrumKind.VACUUM, plan)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_curve(out, SpectrumKind.VACUUM, samples, result)
    report = {
        "mode": "vacuum",
        **_config_echo(cfg, plan),
        **_result_block(result),
        "c0_exact": C0_EXACT,
        "rel_dev_exact": abs(result.c0 - C0_EXACT) / C0_EXACT,
        "reference_c0": C0_REFERENCE,
        "abs_dev_reference": abs(result.c0 - C0_REFERENCE),
    }
    _write_json(out / "report.json", report)
    return 0


def run_dielectric(cfg: RunConfig) -> int:
    plan = plan_run(cfg, SpectrumKind.TE)
    curves = {kind: _run_curve(kind, plan) for kind in (SpectrumKind.TE, SpectrumKind.TM)}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for kind, (samples, result) in curves.items():
        _write_curve(out, kind, samples, result)
    te, tm = curves[SpectrumKind.TE][1], curves[SpectrumKind.TM][1]
    forces = force_report(te.c0, tm.c0, plan.spec, plan.geom)
    report = {
        "mode": "dielectric",
        "sigma": plan.sigma,
        "sigma_exact": str(cfg.sigma) if isinstance(cfg.sigma, Fraction) else None,
        "alpha": plan.spec.alpha,
        **_config_echo(cfg, plan),
        "te": _result_block(te),
        "tm": _result_block(tm),
        "geometry": {"Lx": cfg.lx, "Ly": cfg.ly, "Lz": cfg.lz},
        "force": asdict(forces),
    }
    _write_json(out / "report.json", report)
    return 0


def dump_sensitivity(cfg: RunConfig, vary: str, values: list[str]) -> int:
    """Sweep one parameter over the vacuum pipeline and tabulate c0.

    Each value is parsed by its setting's parser, named by the sweep key, and
    checked before the first sample; rows carry float(text).
    """
    if vary not in _SWEEPS:
        raise ConfigError(f"unknown sweep parameter {vary!r}; "
                          f"choose from {', '.join(_SWEEPS)}")
    name = _SWEEPS[vary].name
    plan_run(cfg, SpectrumKind.VACUUM)   # the unswept config must hold on its own
    plans = [plan_run(replace(cfg, **{name: _parse_setting(name, text, vary)}),
                      SpectrumKind.VACUUM) for text in values]
    rows, table = [], []
    for value, plan in zip(map(float, values), plans):
        _, result = _run_curve(SpectrumKind.VACUUM, plan)
        rows.append((value, result))
        print(f"{vary}={value:g}: {_summary(result)}")
        diag = result.diagnostics
        table.append((vary, f"{value:g}", result.pole_order, result.c0,
                      diag["turning_nhat2"], json.dumps(diag["sign_change"])))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "sensitivity.csv",
                _csv("param,value,pole_order,c0,turning_nhat2,sign_change",
                     "%s,%s,%s,%.16e,%s,%s", table))
    _write_json(out / "sensitivity.json", {
        "vary": vary,
        "rows": [{"value": v, "pole_order": r.pole_order, "c0": r.c0,
                  "turning_nhat2": r.diagnostics["turning_nhat2"],
                  "sign_change": r.diagnostics["sign_change"]} for v, r in rows],
    })
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    for name, setting in _SETTINGS.items():
        if setting.metadata["help"]:
            p.add_argument("--" + name.replace("_", "-"), help=setting.metadata["help"])
    p.add_argument("--config", help="flat key = value config file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; every caller shares
    it, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="casimir-laurent",
        description="Laurent-regularized Casimir mode integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_vac = sub.add_parser("vacuum", help="vacuum pipeline")
    _add_common(p_vac)

    p_diel = sub.add_parser("dielectric", help="dielectric TE+TM pipelines")
    p_diel.add_argument("--sigma", help="contrast sigma, decimal or fraction (e.g. 8/27)")
    _add_common(p_diel)

    p_sens = sub.add_parser("sensitivity", help="vacuum parameter sweep")
    p_sens.add_argument("--vary", required=True, help="parameter to sweep")
    p_sens.add_argument("--values", required=True,
                        help="comma-separated sweep values")
    _add_common(p_sens)
    # main reports a flag its subcommand does not take with that subcommand's usage
    for p in (p_vac, p_diel, p_sens):
        p.set_defaults(subparser=p)
    return parser


def _parse_values(text: str) -> list[str]:
    items = [t for t in (piece.strip() for piece in text.split(",")) if t]
    if not items:
        raise ConfigError("sensitivity sweep needs a non-empty values list")
    return items


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
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
