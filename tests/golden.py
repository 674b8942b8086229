"""Artifact manifest: which bits of the reference runs a change moved.

`golden.json` holds, for each reference command line, its exit code, the
sha256 of its stdout, its stderr and every artifact it writes, and the
pole order, c0, turning index and sign change of each curve it reports.
`tests/test_golden.py` reruns the fast runs and compares them with it.

    python tests/golden.py [RUN ...]            rerun and compare (default: every run)
    python tests/golden.py --update [RUN ...]   rerun and rewrite those entries

Both print a table of every moved c0 (absolute and relative) and every
changed digest or field, and the compare exits 1 when anything moved.  A
change that moves bits on purpose runs --update and records that table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden.json")

# name -> (command line without --out-dir, too slow for the tier-1 suite)
RUNS = {
    "vacuum": (["vacuum"], False),
    "vacuum-log-400": (["vacuum", "--spacing", "log", "--grid-points", "400",
                        "--eps-s", "0.06", "--s-max", "1.2"], False),
    "sensitivity-n2": (["sensitivity", "--vary", "N2", "--values", "8,10,12,14"], False),
    "vacuum-n2-20": (["vacuum", "--n2", "20"], False),
    "dielectric-8/27-16": (["dielectric", "--sigma", "8/27", "--grid-points", "16"], False),
    "dielectric-27/8-16": (["dielectric", "--sigma", "27/8", "--grid-points", "16"], False),
    "dielectric-8/27-200": (["dielectric", "--sigma", "8/27"], True),
}
FAST = [name for name, (_, slow) in RUNS.items() if not slow]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _curve(block: dict) -> dict:
    return {key: block[key] for key in ("pole_order", "c0", "turning_nhat2", "sign_change")}


def _curves(out: Path) -> dict[str, dict]:
    """Each reported curve's read-off, by curve name: the mode of a vacuum
    run, te and tm of a dielectric run, vary=value of a sweep row."""
    if (out / "sensitivity.json").exists():
        sweep = json.loads((out / "sensitivity.json").read_text())
        return {f"{sweep['vary']}={row['value']:g}": _curve(row) for row in sweep["rows"]}
    if not (out / "report.json").exists():
        return {}
    report = json.loads((out / "report.json").read_text())
    if report["mode"] == "vacuum":
        return {"vacuum": _curve(report)}
    return {kind: _curve(report[kind]) for kind in ("te", "tm")}


def run(name: str) -> dict:
    """One reference run, in this process, into a fresh directory."""
    from casimir_laurent.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*RUNS[name][0], "--out-dir", str(out)])
        files = sorted(out.iterdir()) if out.exists() else []
        return {
            "argv": RUNS[name][0],
            "exit": code,
            "sha256": {"stdout": _sha(stdout.getvalue().encode()),
                       "stderr": _sha(stderr.getvalue().encode()),
                       **{p.name: _sha(p.read_bytes()) for p in files}},
            "curves": _curves(out),
        }


def differences(name: str, old: dict | None, new: dict) -> list[str]:
    """Markdown table rows, one per moved value of run `name`."""
    if old is None:
        return [f"| {name} | (new run) | | | |"]
    rows = []
    if old["argv"] != new["argv"] or old["exit"] != new["exit"]:
        rows.append(f"| {name} | argv, exit | {old['argv']} {old['exit']} "
                    f"| {new['argv']} {new['exit']} | |")
    for curve in sorted(old["curves"].keys() | new["curves"].keys()):
        a, b = old["curves"].get(curve, {}), new["curves"].get(curve, {})
        for key in sorted(a.keys() | b.keys()):
            x, y = a.get(key), b.get(key)
            if x == y:
                continue
            if key == "c0" and x is not None and y is not None:
                rows.append(f"| {name} | {curve} c0 | {x!r} | {y!r} "
                            f"| {y - x:+.2e} ({(y - x) / abs(x):+.2e} rel) |")
            else:
                rows.append(f"| {name} | {curve} {key} | {x} | {y} | |")
    for key in sorted(old["sha256"].keys() | new["sha256"].keys()):
        x, y = old["sha256"].get(key), new["sha256"].get(key)
        if x != y:
            rows.append(f"| {name} | sha256 {key} | {str(x)[:16]} | {str(y)[:16]} | |")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the named runs' entries of golden.json")
    parser.add_argument("runs", nargs="*", metavar="RUN",
                        help=f"runs to make (default: all): {', '.join(RUNS)}")
    args = parser.parse_args(argv)
    unknown = [name for name in args.runs if name not in RUNS]
    if unknown:
        parser.error(f"unknown run {unknown[0]!r}")
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    rows = []
    for name in args.runs or list(RUNS):
        record = run(name)
        rows += differences(name, manifest.get(name), record)
        manifest[name] = record
    print("| run | value | before | after | change |\n| --- | --- | --- | --- | --- |")
    print("\n".join(rows) if rows else "| (nothing moved) | | | | |")
    if args.update:
        MANIFEST.write_text(json.dumps({name: manifest[name] for name in RUNS if name in manifest},
                                       indent=1) + "\n")
        return 0
    return 1 if rows else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
