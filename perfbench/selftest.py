#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Produces real outputs (one vacuum command, two sensitivity sweeps, one
dielectric run on the 16-point grid, two dielectric samples), shows that
every check accepts them, then perturbs each checked quantity slightly and
shows that its check rejects it.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
from checks import CheckError
from run import OUT, load_package
from workloads import CURVE_GRID_POINTS, digests, read_samples, run_cli

rejected: list[str] = []


def expect_reject(what: str, check, *args) -> None:
    try:
        check(*args)
    except CheckError:
        rejected.append(what)
        return
    raise SystemExit(f"selftest: perturbed {what} passed its check")


def run_ok(cli, argv: list[str]) -> None:
    rc, output = run_cli(cli, argv)
    if rc != 0:
        raise SystemExit(f"selftest: {' '.join(argv)} exited {rc}\n{output}")


def scaled(value: float, factor: float = 1.0 + 1e-5) -> float:
    return value * factor


def vacuum_cases(cli, out: Path) -> None:
    argv = ["vacuum", "--eps-s", "0.05", "--s-max", "1.0", "--grid-points", "200"]
    run_ok(cli, [*argv, "--out-dir", str(out / "v1")])
    run_ok(cli, [*argv, "--out-dir", str(out / "v2")])
    rows = read_samples(out / "v1" / "samples.csv")
    report = json.loads((out / "v1" / "report.json").read_text())
    reference = checks.VacuumReference()
    grid = [row[0] for row in rows]
    checks.check_grid(grid, 0.05, 1.0, 200, "linear")
    checks.check_vacuum_samples(rows, reference)
    checks.check_vacuum_report(report)
    first, again = digests(out / "v1"), digests(out / "v2")
    checks.check_identical(first, again, "vacuum")

    for j in (0, 117, 199):
        bad = list(rows)
        s, value, err = bad[j]
        bad[j] = (s, scaled(value), err)
        expect_reject(f"vacuum sample {j} x (1 + 1e-5)", checks.check_vacuum_samples,
                      bad, reference)
    expect_reject("grid point moved", checks.check_grid,
                  grid[:50] + [grid[50] * (1 + 1e-9)] + grid[51:], 0.05, 1.0, 200, "linear")
    expect_reject("log grid for a linear run", checks.check_grid, grid, 0.05, 1.0, 200, "log")
    for key, value in (("pole_order", -3), ("c_minus", scaled(report["c_minus"], 1.001)),
                       ("c0", checks.C0_EXACT * 1.013)):
        expect_reject(f"vacuum report {key}", checks.check_vacuum_report,
                      {**report, key: value})
    name = next(iter(again))
    expect_reject("rerun artifact changed", checks.check_identical, first,
                  {**again, name: "0" * 64}, "vacuum")
    expect_reject("rerun artifact missing", checks.check_identical, first,
                  {k: v for k, v in again.items() if k != name}, "vacuum")

    sweeps = {}
    for vary, values in (("eps_c", "1e-2,1e-3,1e-4"), ("N2", "8,9,10")):
        run_ok(cli, ["sensitivity", "--vary", vary, "--values", values,
                     "--out-dir", str(out / vary)])
        rows_s = json.loads((out / vary / "sensitivity.json").read_text())["rows"]
        floats = [float(v) for v in values.split(",")]
        checks.check_sensitivity(vary, floats, rows_s)
        sweeps[vary] = (floats, rows_s)
        bad = copy.deepcopy(rows_s)
        bad[1]["c0"] = checks.C0_EXACT * 0.985
        expect_reject(f"{vary} sweep c0 out of band", checks.check_sensitivity, vary, floats, bad)
        bad = copy.deepcopy(rows_s)
        bad[2]["pole_order"] = -5
        expect_reject(f"{vary} sweep pole", checks.check_sensitivity, vary, floats, bad)
        expect_reject(f"{vary} sweep row missing", checks.check_sensitivity, vary, floats,
                      rows_s[:2])
    floats, bad = copy.deepcopy(sweeps["eps_c"])
    bad[0]["c0"] = float(np.nextafter(bad[0]["c0"], 1.0))
    expect_reject("eps_c sweep c0 one ulp apart", checks.check_sensitivity, "eps_c", floats, bad)


def dielectric_cases(pkg, out: Path) -> None:
    integrands, quadrature = pkg.integrands, pkg.quadrature
    argv = ["dielectric", "--sigma", "8/27", "--grid-points", str(CURVE_GRID_POINTS),
            "--out-dir", str(out / "d")]
    run_ok(pkg.cli, argv)
    report = json.loads((out / "d" / "report.json").read_text())
    sigma = 8.0 / 27.0
    checks.check_dielectric_report(report, sigma)
    for tag in ("te", "tm"):
        for key, value in (("pole_order", -3), ("c_minus", scaled(report[tag]["c_minus"], 1.0001))):
            bad = copy.deepcopy(report)
            bad[tag][key] = value
            expect_reject(f"{tag} {key}", checks.check_dielectric_report, bad, sigma)
    for key in ("ratio_te", "ratio_tm", "F0", "delta_force", "vacuum_force"):
        bad = copy.deepcopy(report)
        bad["force"][key] = scaled(bad["force"][key], 1.0 + 1e-9)
        expect_reject(f"force {key}", checks.check_force_identity, bad)
    expect_reject("c_minus checked at the reciprocal contrast",
                  checks.check_dielectric_report, report, 1.0 / sigma)

    dlogs = {"te": integrands.dlog_cross_te, "tm": integrands.dlog_cross_tm}
    s_last, value, _ = read_samples(out / "d" / "samples_tm.csv")[-1]
    cases = [("tm", s_last, sigma, value)]
    sample = quadrature.eval_I_dielectric(integrands.SpectrumKind.TE, 0.9, 2.5)
    cases.append(("te", sample.s, sample.sigma, sample.value))
    for tag, s, sig, val in cases:
        ref = checks.brute_sample(dlogs[tag], tag == "te", s, sig)
        checks.check_sample(val, ref, f"{tag} I({s})")
        expect_reject(f"{tag} sample at sigma {sig:.4g} x (1 + 1e-5)", checks.check_sample,
                      scaled(val), ref, f"{tag} I({s})")

    checks.check_integrands(dlogs["te"], dlogs["tm"])
    debye = [(nu, y, sig) for nu, y, sig in checks.INTEGRAND_POINTS
             if nu >= 200 and checks.debye_gap(nu, min(sig, 1.0) * y) > 620]
    if not debye:
        raise SystemExit("selftest: no integrand point reaches the Debye branch")
    expect_reject("dlog_cross_te x (1 + 1e-8)", checks.check_integrands,
                  lambda *a: scaled(dlogs["te"](*a), 1 + 1e-8), dlogs["tm"])
    expect_reject("dlog_cross_tm wrong at the Debye point only", checks.check_integrands,
                  dlogs["te"],
                  lambda nu, y, sig: dlogs["tm"](nu, y, sig) * (1.0 + 1e-7 * (nu >= 200)))


def main() -> int:
    pkg = load_package()
    out = OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    try:
        vacuum_cases(pkg.cli, out)
        dielectric_cases(pkg, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for what in rejected:
        print(f"rejected: {what}")
    print(f"selftest: real outputs accepted, {len(rejected)} perturbations rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
