#!/usr/bin/env python3
"""Benchmark of the casimir-laurent batch pipelines, in one serial process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/` of this
checkout.  The run measures set-up (import plus warm-up, median of fresh
interpreters), then repeats whole rounds of the workload's operations until
the timed rounds add up to --seconds, then checks the outputs against
references computed apart from the program.  With --trace 1 each round runs
twice, untraced and then traced, and the per-layer metrics come from the
traced copies.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
PROBE_WINDOW = 8       # slices on either side of an operation: ~2 s of work


def load_package():
    """Import casimir_laurent from this checkout's src/ and nowhere else."""
    init = SRC / "casimir_laurent" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"run.py: no package sources at {init}")
    sys.path.insert(0, str(SRC))
    import casimir_laurent
    for module in ("cli", "integrands", "laurent", "quadrature"):
        importlib.import_module(f"casimir_laurent.{module}")
    if Path(casimir_laurent.__file__).resolve() != init.resolve():
        raise SystemExit(f"run.py: imported {casimir_laurent.__file__}, not {init}")
    return casimir_laurent


def measure_setup() -> float:
    """Median over fresh interpreters of import plus warm-up, each scaled to
    the reference host speed by probe slices run right after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_record() -> dict[str, object]:
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


class Round:
    """Per-operation wall and CPU times of one round, with the probe's own
    time taken out, and the factor that puts each at the reference host
    speed (1 where the probe is disabled)."""

    def __init__(self, op_wall: list[float], op_cpu: list[float], op_scale: list[float],
                 results: list) -> None:
        self.results = results
        self.raw_wall = sum(op_wall)
        self.op_times = [t * k for t, k in zip(op_wall, op_scale)]
        self.wall = sum(self.op_times)
        self.cpu = sum(t * k for t, k in zip(op_cpu, op_scale))


def timed_round(workload, ops, round_dir: Path, probe: Probe) -> tuple[Round, list[Path]]:
    """Run and time one round.  Each operation's time excludes the probe
    slices run inside it and is scaled by the median slice time over the
    operation and PROBE_WINDOW slices on either side, within the round."""
    out_dirs = [round_dir / f"c{i:03d}" for i in range(len(ops))]
    results, spans = [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    first = len(probe.slices)
    probe.run(4)
    for op, out_dir in zip(ops, out_dirs):
        lo, probe_wall, probe_cpu = len(probe.slices), probe.wall, probe.cpu
        t0, c0 = clock(), cpu_clock()
        results.append(workload.run_op(op, out_dir))
        probe.tick()
        spans.append((clock() - t0 - (probe.wall - probe_wall),
                      cpu_clock() - c0 - (probe.cpu - probe_cpu), lo, len(probe.slices)))
    probe.run(4)
    last = len(probe.slices)
    scales = [probe.scale(max(first, lo - PROBE_WINDOW), min(last, hi + PROBE_WINDOW))
              for _, _, lo, hi in spans]
    return Round([w for w, _, _, _ in spans], [c for _, c, _, _ in spans], scales,
                 results), out_dirs


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def trace_bindings(pkg):
    cli, integrands, laurent, quadrature = pkg.cli, pkg.integrands, pkg.laurent, pkg.quadrature
    return [
        (cli, "main", "cli.main", False),
        (cli, "sample_curve", "quadrature.sample_curve", False),
        (cli, "regularize", "laurent.regularize", False),
        (quadrature, "eval_I_vacuum", "quadrature.sample", True),
        (quadrature, "eval_I_dielectric", "quadrature.sample", True),
        (quadrature, "vacuum_integrand", "integrands.vacuum_integrand", False),
        (quadrature, "dlog_cross", "integrands.dlog_cross", False),
        (integrands, "log_bessel_ik", "specfun.log_bessel_ik", False),
        (laurent, "build_matrix", "laurent.build_matrix", False),
        (laurent, "prune", "laurent.prune", False),
        (laurent, "detect_pole_order", "laurent.detect_pole_order", False),
        (laurent, "subtract_and_refit", "laurent.subtract_and_refit", False),
        (laurent, "fit_window", "laurent.fit_window", False),
    ]


COUNTS = ("specfun.log_bessel_ik.calls", "integrands.dlog_cross.calls",
          "integrands.vacuum_integrand.calls", "quadrature.samples",
          "laurent.build_matrix.calls", "laurent.fit_window.calls", "cli.bytes_written")


LAYER_UNITS = {"quadrature.evals_per_sample": "evals/sample",
               "quadrature.max_rel_err": "ratio", "cli.bytes_written": "bytes"}


def layer_metrics(tracer, bytes_written: int) -> dict[str, float]:
    sp = tracer.span
    samples = sp("quadrature.sample")
    evals = sp("integrands.dlog_cross").calls + sp("integrands.vacuum_integrand").calls
    rel_errs = [r.est_error / abs(r.value) for r in samples.results]
    return {
        "specfun.log_bessel_ik.calls": sp("specfun.log_bessel_ik").calls,
        "specfun.log_bessel_ik.self_s": sp("specfun.log_bessel_ik").self_time,
        "integrands.dlog_cross.calls": sp("integrands.dlog_cross").calls,
        "integrands.dlog_cross.self_s": sp("integrands.dlog_cross").self_time,
        "integrands.vacuum_integrand.calls": sp("integrands.vacuum_integrand").calls,
        "quadrature.samples": samples.calls,
        "quadrature.evals_per_sample": evals / samples.calls if samples.calls else 0.0,
        "quadrature.sample_s.p50": statistics.median(samples.durations) if samples.calls else 0.0,
        "quadrature.self_s": samples.self_time,
        "quadrature.max_rel_err": max(rel_errs, default=0.0),
        "laurent.regularize_s": sp("laurent.regularize").incl,
        "laurent.build_matrix_s": sp("laurent.build_matrix").incl,
        "laurent.build_matrix.calls": sp("laurent.build_matrix").calls,
        "laurent.prune_s": sp("laurent.prune").incl,
        "laurent.detect_pole_order_s": sp("laurent.detect_pole_order").incl,
        "laurent.subtract_and_refit_s": sp("laurent.subtract_and_refit").incl,
        "laurent.fit_window.calls": sp("laurent.fit_window").calls,
        # time in main outside sampling and regularization: parsing, the
        # window matrix rebuilt for matrix.json, and artifact writing
        "cli.self_s": (sp("cli.main").incl - sp("quadrature.sample_curve").incl
                       - sp("laurent.regularize").incl),
        "cli.bytes_written": bytes_written,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    sys.path.insert(0, str(HERE))
    import checks
    from setup_probe import warm_up
    from tracer import Tracer, patched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    record = {"workload": args.workload, "seed": args.seed, **run_record()}
    setup_s = measure_setup()
    warm_up()
    workload = WORKLOADS[args.workload](pkg, args.seed)

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    rounds: list[Round] = []
    traced: list[tuple[Round, dict[str, float]]] = []
    attempted = failed = 0
    correct = True
    # traced rounds are not probed: their per-layer times have no bound
    probe = Probe(enabled=not args.trace)
    quadrature = pkg.quadrature
    eval_dielectric = quadrature.eval_I_dielectric

    def eval_and_probe(*a, **kw):
        # probe between the samples of a dielectric curve too: one CLI
        # command there lasts tens of seconds
        sample = eval_dielectric(*a, **kw)
        probe.tick()
        return sample

    quadrature.eval_I_dielectric = eval_and_probe
    try:
        measured = 0.0
        r = 0
        while r == 0 or measured < args.seconds:
            # a traced run repeats the first round's inputs, so that its
            # counts must repeat exactly from one traced round to the next
            ops = workload.round_ops(0 if args.trace else r)
            round_dir = run_dir / f"r{r}"
            rnd, out_dirs = timed_round(workload, ops, round_dir, probe)
            rounds.append(rnd)
            measured += rnd.raw_wall
            attempted += len(ops)
            failed += workload.check_round(ops, rnd.results, out_dirs)
            shutil.rmtree(round_dir, ignore_errors=True)
            if args.trace:
                tracer = Tracer()
                with patched(tracer, trace_bindings(pkg)):
                    trnd, out_dirs = timed_round(workload, ops, round_dir, probe)
                traced.append((trnd, layer_metrics(tracer, dir_bytes(round_dir))))
                measured += trnd.raw_wall
                attempted += len(ops)
                failed += workload.check_round(ops, trnd.results, out_dirs)
                shutil.rmtree(round_dir, ignore_errors=True)
            r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.check_final()
    except checks.CheckError as exc:
        print(f"CHECK FAILED ({args.workload}): {exc}", file=sys.stderr)
        correct = False
    finally:
        quadrature.eval_I_dielectric = eval_dielectric
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics: dict[str, dict[str, float | str]] = {}
    if correct and args.trace:
        per_round = [m for _, m in traced]
        for name in COUNTS:
            if len({m[name] for m in per_round}) != 1:
                print(f"CHECK FAILED: {name} differs between identical traced rounds: "
                      f"{[m[name] for m in per_round]}", file=sys.stderr)
                correct = False
        for name in per_round[0]:
            unit = LAYER_UNITS.get(name, "count" if name in COUNTS else "s")
            metrics[name] = {"value": statistics.median(m[name] for m in per_round), "unit": unit}
        overhead = (statistics.median(t.wall for t, _ in traced)
                    - statistics.median(t.wall for t in rounds))
        metrics["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
    elif correct:
        op_times = [t for rnd in rounds for t in rnd.op_times]
        metrics = {
            "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu for r in rounds), "unit": "s"},
            "cmd_s.p50": {"value": float(np.percentile(op_times, 50)), "unit": "s"},
            "cmd_s.p90": {"value": float(np.percentile(op_times, 90)), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record.update(round_wall_s=[r.raw_wall for r in rounds],
                  round_scale=[r.wall / r.raw_wall for r in rounds],
                  traced_round_wall_s=[t.raw_wall for t, _ in traced])
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
