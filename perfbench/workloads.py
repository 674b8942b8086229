"""The three workloads: seeded inputs, the timed operation, and the checks.

A workload yields one list of operations per round.  `run_op` is the only
code inside the timed section; `check_round` and `check_final` run outside
it and raise checks.CheckError when an output disagrees with its reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks

DIELECTRIC_SIGMA = "8/27"
CURVE_GRID_POINTS = 16     # the CLI minimum; one curve then fits a run
BRUTE_MIN_S = 0.7          # brute Gauss-Legendre cost grows as 1/s^2


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def read_samples(path: Path) -> list[tuple[float, float, float]]:
    lines = path.read_text().splitlines()
    if lines[0] != "s,I,err":
        raise checks.CheckError(f"{path.name}: header {lines[0]!r}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI command; stdout and stderr are captured."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, reported below
        return -1, buf.getvalue() + traceback.format_exc()
    return rc, buf.getvalue()


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    grid: tuple[float, float, int, str] | None = None   # eps_s, s_max, J, spacing
    sweep: tuple[str, tuple[float, ...]] | None = None  # vary, values


class CliWorkload:
    """Shared by the two CLI workloads: commands into fresh output
    directories, first runs of a command checked in full, reruns compared
    byte for byte with the first run."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.first: dict[tuple[str, ...], dict[str, str]] = {}

    def run_op(self, op: Command, out_dir: Path):
        return run_cli(self.pkg.cli, [*op.argv, "--out-dir", str(out_dir)])

    def check_round(self, ops, results, out_dirs) -> int:
        failed = 0
        for op, (rc, output), out_dir in zip(ops, results, out_dirs):
            if rc != 0:
                failed += 1
                print(f"failed: {' '.join(op.argv)} exit {rc}\n{output}", file=sys.stderr)
                continue
            found = digests(out_dir)
            if op.argv in self.first:
                checks.check_identical(self.first[op.argv], found, " ".join(op.argv))
            else:
                self.check_outputs(op, out_dir)
                self.first[op.argv] = found
        return failed

    def check_final(self) -> None:
        pass


# ---------------------------------------------------------------------------
# vacuum_cli
# ---------------------------------------------------------------------------

# Grid endpoints that vacuum commands draw from; every pairing keeps c0
# within the release-gate band.
VACUUM_EPS_S = (0.05, 0.06)
VACUUM_S_MAX = (1.0, 1.2)
# (count per round, spacing, J): the mix of vacuum commands in one round.
VACUUM_MIX = ((56, "linear", 200), (20, "log", 200), (20, "linear", 400))
# Pools of sweep values per sensitivity key; a round sweeps 3 of each pool.
SWEEP_POOLS = {
    "eps_s": ("0.04", "0.05", "0.06", "0.07"),
    "s_R": ("0.9", "1.0", "1.1", "1.2"),
    "J": ("100", "150", "200", "250"),
    "eps_c": ("1e-2", "1e-3", "1e-4", "1e-5"),
    "N2": ("7", "8", "9", "10"),
    "rel_tol": ("1e-8", "3e-9", "1e-9", "3e-10"),
}


class VacuumCli(CliWorkload):
    name = "vacuum_cli"

    def __init__(self, pkg, seed: int) -> None:
        super().__init__(pkg)
        rng = np.random.default_rng(seed)
        cmds = []
        for count, spacing, J in VACUUM_MIX:
            for _ in range(count):
                eps_s = VACUUM_EPS_S[rng.integers(len(VACUUM_EPS_S))]
                s_max = VACUUM_S_MAX[rng.integers(len(VACUUM_S_MAX))]
                argv = ("vacuum", "--eps-s", repr(eps_s), "--s-max", repr(s_max),
                        "--grid-points", str(J), "--spacing", spacing)
                cmds.append(Command(argv, grid=(eps_s, s_max, J, spacing)))
        for vary, pool in SWEEP_POOLS.items():
            picks = sorted(rng.choice(len(pool), 3, replace=False))
            values = [pool[i] for i in picks]
            argv = ("sensitivity", "--vary", vary, "--values", ",".join(values))
            cmds.append(Command(argv, sweep=(vary, tuple(float(v) for v in values))))
        self.ops = [cmds[i] for i in rng.permutation(len(cmds))]
        self.reference = checks.VacuumReference()

    def round_ops(self, r: int) -> list[Command]:
        return self.ops

    def check_outputs(self, op: Command, out_dir: Path) -> None:
        if op.sweep is not None:
            vary, values = op.sweep
            data = json.loads((out_dir / "sensitivity.json").read_text())
            if data["vary"] != vary:
                raise checks.CheckError(f"sensitivity.json varies {data['vary']!r}")
            checks.check_sensitivity(vary, list(values), data["rows"])
            return
        eps_s, s_max, J, spacing = op.grid
        rows = read_samples(out_dir / "samples.csv")
        checks.check_grid([row[0] for row in rows], eps_s, s_max, J, spacing)
        checks.check_vacuum_samples(rows, self.reference)
        checks.check_vacuum_report(json.loads((out_dir / "report.json").read_text()))


# ---------------------------------------------------------------------------
# dielectric_curve
# ---------------------------------------------------------------------------


class DielectricCurve(CliWorkload):
    """The paper's configuration; its inputs do not depend on the seed."""

    name = "dielectric_curve"

    def __init__(self, pkg, seed: int) -> None:
        super().__init__(pkg)
        argv = ("dielectric", "--sigma", DIELECTRIC_SIGMA,
                "--grid-points", str(CURVE_GRID_POINTS))
        self.ops = [Command(argv, grid=(0.05, 1.0, CURVE_GRID_POINTS, "linear"))]
        self.sigma = float(Fraction(DIELECTRIC_SIGMA))
        self.samples: dict[str, list[tuple[float, float, float]]] = {}

    def round_ops(self, r: int) -> list[Command]:
        return self.ops

    def check_outputs(self, op: Command, out_dir: Path) -> None:
        eps_s, s_max, J, spacing = op.grid
        for tag in ("te", "tm"):
            rows = read_samples(out_dir / f"samples_{tag}.csv")
            checks.check_grid([row[0] for row in rows], eps_s, s_max, J, spacing)
            self.samples[tag] = rows
        report = json.loads((out_dir / "report.json").read_text())
        checks.check_dielectric_report(report, self.sigma)

    def check_final(self) -> None:
        integrands = self.pkg.integrands
        checks.check_integrands(integrands.dlog_cross_te, integrands.dlog_cross_tm)
        # the largest s has the smallest truncation radius: the cheapest brute rule
        for tag, dlog in (("te", integrands.dlog_cross_te), ("tm", integrands.dlog_cross_tm)):
            if tag not in self.samples:
                continue   # the command failed and is counted as such
            s, value, _ = self.samples[tag][-1]
            ref = checks.brute_sample(dlog, tag == "te", s, self.sigma)
            checks.check_sample(value, ref, f"{tag} I({s!r}) at sigma {DIELECTRIC_SIGMA}")


# ---------------------------------------------------------------------------
# dielectric_points
# ---------------------------------------------------------------------------

# One operation per (kind, sigma side, s band) in each round.
SIGMA_SIDES = ((0.25, 0.6), (1.8, 3.6))
S_BANDS = ((0.05, 0.07), (0.1, 0.2), (0.3, 0.5), (BRUTE_MIN_S, 1.0))


@dataclass(frozen=True)
class Point:
    kind: str
    sigma: float
    s: float


class DielectricPoints:
    name = "dielectric_points"

    def __init__(self, pkg, seed: int) -> None:
        self.pkg = pkg
        self.seed = seed
        self.checked: list[tuple[Point, object]] = []

    def round_ops(self, r: int) -> list[Point]:
        rng = np.random.default_rng([self.seed, r])
        ops = [Point(kind, float(rng.uniform(*side)), float(rng.uniform(*band)))
               for kind in ("te", "tm") for side in SIGMA_SIDES for band in S_BANDS]
        return [ops[i] for i in rng.permutation(len(ops))]

    def run_op(self, op: Point, out_dir: Path):
        quadrature = self.pkg.quadrature
        kind = self.pkg.integrands.SpectrumKind(op.kind)
        try:
            return quadrature.eval_I_dielectric(kind, op.s, op.sigma)
        except Exception:  # a failed operation, reported by check_round
            return traceback.format_exc()

    def check_round(self, ops, results, out_dirs) -> int:
        failed = 0
        for op, sample in zip(ops, results):
            if isinstance(sample, str):
                failed += 1
                print(f"failed: {op}\n{sample}", file=sys.stderr)
            elif not (sample.s == op.s and sample.sigma == op.sigma
                    and sample.kind.value == op.kind and math.isfinite(sample.value)):
                raise checks.CheckError(f"sample {sample} for {op}")
        if not self.checked:
            # per kind, the largest-s point (cheapest brute rule) of the first round
            for kind in ("te", "tm"):
                op, sample = max(((o, r) for o, r in zip(ops, results)
                                  if o.kind == kind and not isinstance(r, str)),
                                 key=lambda pair: pair[0].s)
                self.checked.append((op, sample))
        return failed

    def check_final(self) -> None:
        integrands = self.pkg.integrands
        checks.check_integrands(integrands.dlog_cross_te, integrands.dlog_cross_tm)
        for op, sample in self.checked:
            dlog = integrands.dlog_cross_te if op.kind == "te" else integrands.dlog_cross_tm
            ref = checks.brute_sample(dlog, op.kind == "te", op.s, op.sigma)
            checks.check_sample(sample.value, ref, f"{op.kind} I({op.s!r}) at sigma {op.sigma!r}")


WORKLOADS = {w.name: w for w in (VacuumCli, DielectricCurve, DielectricPoints)}
