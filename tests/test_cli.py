"""End-to-end checks of the batch front-end: artifact schemas, exit codes,
determinism, and config/flag precedence.

The dielectric command is exercised with a synthetic sampler (the real double
integral takes minutes per curve and is covered by the acceptance tests).
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import casimir_laurent.cli as cli
import casimir_laurent.laurent as laurent
from casimir_laurent.cli import C0_EXACT, C0_REFERENCE, main, parse_sigma
from casimir_laurent.integrands import SpectrumKind
from casimir_laurent.laurent import RegularizationError
from casimir_laurent.quadrature import IntegralSample, QuadratureError

FLOAT_16E = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sigma parsing
# ---------------------------------------------------------------------------


def test_parse_sigma_fraction():
    value = parse_sigma("8/27")
    assert value == Fraction(8, 27)
    assert isinstance(value, Fraction)


def test_parse_sigma_decimal():
    assert parse_sigma("0.296") == pytest.approx(0.296)
    assert isinstance(parse_sigma(" 2.5 "), float)


def test_parse_sigma_rejects_garbage():
    # the error names the cause only; the caller names the text
    with pytest.raises(ValueError, match=r"^not a decimal or a fraction like 8/27$"):
        parse_sigma("abc")
    with pytest.raises(ValueError, match=r"^zero denominator$"):
        parse_sigma("8/0")


@pytest.mark.parametrize("text,cause", [("abc", "not a decimal or a fraction like 8/27"),
                                        ("8/0", "zero denominator"),
                                        ("1/x", "not a decimal or a fraction like 8/27")])
def test_bad_sigma_names_its_text_once(tmp_path, monkeypatch, capsys, text, cause):
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["dielectric", "--sigma", text, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: bad value for sigma: {text!r} ({cause})\n"
    assert err.count(text) == 1
    assert calls == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# vacuum end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def vacuum_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("vacuum")
    code = main(["vacuum", "--out-dir", str(out)])
    assert code == 0
    return out


def test_vacuum_exit_and_stdout(tmp_path, capsys):
    code = main(["vacuum", "--out-dir", str(tmp_path), "--grid-points", "64"])
    captured = capsys.readouterr()
    assert code == 0
    assert "vacuum: pole_order=-4" in captured.out


def test_vacuum_samples_schema(vacuum_run):
    lines = (vacuum_run / "samples.csv").read_text().splitlines()
    assert lines[0] == "s,I,err"
    assert len(lines) == 201  # header + default J = 200
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.05
    assert float(last[0]) == 1.0
    for piece in first + last:
        assert FLOAT_16E.match(piece), piece


def test_vacuum_curves_schema(vacuum_run):
    lines = (vacuum_run / "curves.csv").read_text().splitlines()
    assert lines[0] == "nhat2,c0hat"
    assert len(lines) == 9  # one c0 curve, nhat2 in [1, 8]
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 9))
    for line in lines[1:]:
        assert FLOAT_16E.match(line.split(",")[1]), line


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=12))
@example([5e-324, -5e-324, 2.225073858507201e-308, 0.0, -0.0, math.inf, -math.inf,
          math.nan, 1e308, -1e308, 0.1, 1.0 / 3.0])
def test_csv_pass_prints_floats_as_fstrings(xs):
    # one %-format pass per file gives each line of the old f-string join
    rows = [(x, -x, x / 3.0) for x in xs]
    assert cli._csv("s,I,err", "%.16e,%.16e,%.16e", rows) == "".join(
        f"{line}\n" for line in ["s,I,err"] + [f"{a:.16e},{b:.16e},{c:.16e}" for a, b, c in rows])
    curve = list(enumerate(xs, 1))
    assert cli._csv("nhat2,c0hat", "%s,%.16e", curve) == "".join(
        f"{line}\n" for line in ["nhat2,c0hat"] + [f"{n},{c:.16e}" for n, c in curve])


def _window_objects(matrix) -> list[dict]:
    """matrix.json's windows, read one window at a time off the arrays."""
    return [{"n1": n1, "n2": n2,
             "coeffs": {str(n1 + m): float(matrix.coeffs[i, j, m]) for m in range(n2 - n1 + 1)},
             "rms_residual": float(matrix.rms_residual[i, j]), "cond": float(matrix.cond[i, j])}
            for i, n1 in enumerate(range(matrix.N1 + 1, 0))
            for j, n2 in enumerate(range(1, matrix.N2))]


def _matrix_text_by_window(matrix) -> str:
    """matrix.json as one encoder call per window writes it."""
    windows = [json.dumps(w, sort_keys=True) for w in _window_objects(matrix)]
    return (f'{{"N1": {matrix.N1}, "N2": {matrix.N2}, "windows": [\n'
            + ",\n".join(windows) + "\n]}\n")


def test_matrix_json_is_the_window_by_window_text(vacuum_run, tmp_path):
    # one encoder call for all windows, split into lines, gives the bytes of
    # one call per window: here with two-digit exponents, whose keys sort as
    # text, and Infinity, -Infinity and NaN among the values
    s, I = np.loadtxt(vacuum_run / "samples.csv", delimiter=",", skiprows=1,
                      usecols=(0, 1), unpack=True)
    result = laurent.regularize((s, I), laurent.LaurentParams(N2=12))
    matrix = result.matrix
    # window (-5, 11) at [0, 10] and window (-1, 1) at [4, 0]
    coeffs, rms, cond = matrix.coeffs.copy(), matrix.rms_residual.copy(), matrix.cond.copy()
    cond[0, 10], rms[0, 10] = math.inf, math.nan
    coeffs[4, 0, :3] = -math.inf, math.nan, 5e-324
    odd = replace(matrix, coeffs=coeffs, rms_residual=rms, cond=cond)
    for m in (matrix, odd):
        cli._write_curve(tmp_path, SpectrumKind.VACUUM, [], replace(result, matrix=m))
        assert (tmp_path / "matrix.json").read_text() == _matrix_text_by_window(m)
    assert (vacuum_run / "matrix.json").read_text() == _matrix_text_by_window(
        laurent.build_matrix((s, I)))


def test_a_vacuum_run_leaves_scipy_special_unimported(tmp_path):
    # importing scipy.special is most of the cold start; a vacuum command
    # evaluates no Bessel function, and a lone TE point imports it
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = textwrap.dedent("""
        import sys
        from casimir_laurent.cli import main
        from casimir_laurent.integrands import SpectrumKind
        from casimir_laurent.quadrature import eval_I_dielectric
        assert main(["vacuum", "--out-dir", sys.argv[1]]) == 0
        print("scipy.special" in sys.modules)
        eval_I_dielectric(SpectrumKind.TE, 1.0, 8.0 / 27.0)
        print("scipy.special" in sys.modules)
    """)
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["False", "True"]


def test_vacuum_matrix_schema(vacuum_run):
    text = (vacuum_run / "matrix.json").read_text()
    matrix = json.loads(text)
    assert matrix["N1"] == -6 and matrix["N2"] == 9
    windows = matrix["windows"]
    assert len(windows) == 40  # n1 in [-5,-1] x n2 in [1,8]
    seen = {(w["n1"], w["n2"]) for w in windows}
    assert seen == {(n1, n2) for n1 in range(-5, 0) for n2 in range(1, 9)}
    w = windows[0]
    assert set(w["coeffs"]) == {str(n) for n in range(w["n1"], w["n2"] + 1)}
    assert w["rms_residual"] >= 0.0 and w["cond"] >= 1.0
    # one window per line, between a header and a closing line
    lines = text.splitlines()
    assert len(lines) == 42
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == windows
    # the content is that of the window matrix of the samples the run wrote
    s, I = np.loadtxt(vacuum_run / "samples.csv", delimiter=",", skiprows=1,
                      usecols=(0, 1), unpack=True)
    result = laurent.regularize((s, I))
    assert matrix == {"N1": result.matrix.N1, "N2": result.matrix.N2,
                      "windows": _window_objects(result.matrix)}


def test_vacuum_report_contents(vacuum_run):
    report = read_json(vacuum_run / "report.json")
    assert report["mode"] == "vacuum"
    assert report["pole_order"] == -4
    assert 0.2698 < report["c0"] < 0.2712
    assert report["c0_exact"] == C0_EXACT
    assert report["rel_dev_exact"] == pytest.approx(
        abs(report["c0"] - C0_EXACT) / C0_EXACT, rel=1e-12)
    assert report["rel_dev_exact"] < 1e-3
    assert report["reference_c0"] == C0_REFERENCE
    assert report["abs_dev_reference"] < 5e-3
    # the default vacuum curve rises monotonically: c0 is the
    # fallback after its smallest step, at the last window
    assert report["turning_nhat2"] == 8
    assert report["sign_change"] is False
    rows = (vacuum_run / "curves.csv").read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[1]) == report["c0"]
    assert "spread" not in report and "turning_values" not in report
    assert report["grid"] == {"eps_s": 0.05, "s_R": 1.0, "J": 200, "spacing": "linear"}
    assert report["laurent"] == {"N1": -6, "N2": 9, "eps_c": 0.001}
    # the budget that ran, not the unset flag
    assert report["quadrature"] == {"rel_tol": 1e-9}


def test_vacuum_rerun_is_byte_identical(vacuum_run, tmp_path):
    code = main(["vacuum", "--out-dir", str(tmp_path)])
    assert code == 0
    for name in ("samples.csv", "curves.csv", "matrix.json", "report.json"):
        assert (tmp_path / name).read_bytes() == (vacuum_run / name).read_bytes(), name


def test_vacuum_builds_the_window_matrix_once(tmp_path, monkeypatch):
    # matrix.json serializes the matrix regularize fitted; no second fit
    calls = []
    real = laurent.build_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(laurent, "build_matrix", counting)
    assert main(["vacuum", "--grid-points", "64", "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_vacuum_creates_nested_out_dir(tmp_path):
    out = tmp_path / "a" / "b"
    code = main(["vacuum", "--out-dir", str(out), "--grid-points", "64"])
    assert code == 0
    assert (out / "report.json").is_file()


# ---------------------------------------------------------------------------
# config files and flag precedence
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "eps_s = 0.1\n"
        "grid_points = 32   # trailing comment\n"
        "spacing = linear\n")
    out = tmp_path / "out"
    code = main(["vacuum", "--config", str(cfg), "--grid-points", "64",
                 "--out-dir", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["grid"]["eps_s"] == 0.1   # from file
    assert report["grid"]["J"] == 64        # flag beats file


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps_q = 0.1\n")
    assert main(["vacuum", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mode = dielectric", "prune_average = window",
                                  "abs_tol = 1e-14", "tail_tol = 1e-13"])
def test_config_file_rejects_removed_keys(tmp_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    assert main(["vacuum", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_unparsable_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid_points = many\n")
    out = tmp_path / "out"
    assert main(["vacuum", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: bad value for grid_points: 'many' (")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--grid-points", "many"],
                                   ["--config", "bad.cfg", "--grid-points", "64"]])
def test_unparsable_flag_or_overridden_value(tmp_path, monkeypatch, capsys, flags):
    # a flag's text goes through the parser of its config key, with its error
    # form, and a bad file value fails even where a flag overrides it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("grid_points = many\n")
    out = tmp_path / "out"
    assert main(["vacuum", "--out-dir", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: bad value for grid_points: 'many' (")
    assert not out.exists()


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps_s 0.1\n")
    assert main(["vacuum", "--config", str(cfg)]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    assert main(["vacuum", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("eps_s", "0.06"), ("s_max", "1.2"), ("grid_points", "80"), ("spacing", "log"),
    ("eps_c", "1e-4"), ("n1", "-7"), ("n2", "10"), ("rel_tol", "1e-8"), ("out_dir", "out"),
])
def test_flag_and_config_key_run_the_same(tmp_path, key, value):
    # every flag sets the config key of its name, through the same parser
    def run(how):
        base = tmp_path / how
        base.mkdir()
        flags = {"grid_points": "64", "out_dir": str(base / "out")}
        given = str(base / value) if key == "out_dir" else value
        argv = ["vacuum"]
        if how == "config":
            (base / "run.cfg").write_text(f"{key} = {given}\n")
            argv += ["--config", str(base / "run.cfg")]
            flags.pop(key, None)
        elif how == "flag":
            flags[key] = given
        for name, text in flags.items():
            argv += ["--" + name.replace("_", "-"), text]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted((base / "out").iterdir())}

    by_flag = run("flag")
    assert run("config") == by_flag
    if key != "out_dir":    # the value reached the run
        assert run("unset") != by_flag


@pytest.mark.parametrize("flags", [
    ["--grid-points", "8"],
    ["--eps-s", "0.0"],
    ["--eps-s", "2.0"],          # eps_s > s_max
    ["--n1", "-1"],
    ["--n2", "1"],
    ["--eps-c", "-0.5"],
    ["--rel-tol", "2.0"],
    ["--n2", "3"],               # two curve windows: no turning point
    ["--n2", "2"],               # one window column: no 2 x 2 rectangle
    ["--n1", "-2"],              # one window row: no 2 x 2 rectangle
    ["--spacing", "bogus"],      # plan_run's rule, not an argparse choice
])
def test_validation_failures_exit_2(tmp_path, flags, capsys):
    assert main(["vacuum", "--out-dir", str(tmp_path)] + flags) == 2
    assert "configuration error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sensitivity sweeps
# ---------------------------------------------------------------------------


def test_sensitivity_eps_c_sweep(tmp_path, capsys):
    code = main(["sensitivity", "--vary", "eps_c",
                 "--values", "0.0005,0.001,0.002",
                 "--grid-points", "64", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("pole_order=-4") == 3

    assert out.count("nhat2=") == 3 and "spread" not in out

    lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "param,value,pole_order,c0,turning_nhat2,sign_change"
    assert len(lines) == 4
    c0_strings = set()
    for line in lines[1:]:
        param, value, pole, c0, nhat2, sign_change = line.split(",")
        assert param == "eps_c"
        assert pole == "-4"
        assert FLOAT_16E.match(c0)
        assert 1 <= int(nhat2) <= 8
        assert sign_change in ("true", "false")
        c0_strings.add(c0)
    # the pruning threshold only gates detection; c0 must be bit-identical
    assert len(c0_strings) == 1

    rows = read_json(tmp_path / "sensitivity.json")["rows"]
    assert [r["value"] for r in rows] == [0.0005, 0.001, 0.002]
    assert all(r["pole_order"] == -4 for r in rows)
    assert [(str(r["turning_nhat2"]), json.dumps(r["sign_change"])) for r in rows] == [
        tuple(line.split(",")[4:]) for line in lines[1:]]


def test_sensitivity_grid_sweep(tmp_path):
    code = main(["sensitivity", "--vary", "J", "--values", "64,96",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = read_json(tmp_path / "sensitivity.json")["rows"]
    assert len(rows) == 2
    # grid refinement relocates the turning index on a ~1e-4 plateau
    assert abs(rows[0]["c0"] - rows[1]["c0"]) < 1e-3


def test_sensitivity_unknown_parameter(tmp_path, capsys):
    assert main(["sensitivity", "--vary", "bogus", "--values", "1,2",
                 "--out-dir", str(tmp_path)]) == 2
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_sensitivity_empty_values(tmp_path, capsys):
    assert main(["sensitivity", "--vary", "eps_c", "--values", " , ",
                 "--out-dir", str(tmp_path)]) == 2
    assert "non-empty values" in capsys.readouterr().err


def test_sensitivity_bad_value(tmp_path, capsys):
    assert main(["sensitivity", "--vary", "eps_c", "--values", "0.1,oops",
                 "--out-dir", str(tmp_path)]) == 2
    assert "bad value for eps_c: 'oops'" in capsys.readouterr().err


def test_sensitivity_invalid_swept_config(tmp_path):
    # values that individually fail validation are configuration errors
    assert main(["sensitivity", "--vary", "J", "--values", "8",
                 "--out-dir", str(tmp_path)]) == 2


def test_sensitivity_fence_without_c0_rejected_before_sampling(tmp_path, monkeypatch, capsys):
    # N2 = 3 leaves two curve windows, too few for a turning point; it used
    # to escape regularize as a ValueError traceback after the N2 = 9 run
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["sensitivity", "--vary", "N2", "--values", "9,3",
                 "--out-dir", str(out)]) == 2
    assert "configuration error: N2 must be >= 4, got 3" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["vacuum", "--n2", "16"],
    ["dielectric", "--sigma", "8/27", "--n2", "16"],
    ["sensitivity", "--vary", "N2", "--values", "9,16"],
])
def test_fence_wider_than_the_grid_rejected_before_sampling(tmp_path, monkeypatch, capsys,
                                                            argv):
    # window (-5, 15) has 21 coefficients, more than 16 samples can determine;
    # it used to exit 4 after sampling, the sweep after printing its N2 = 9 row
    def refuse(*args, **kwargs):
        raise AssertionError("a curve was sampled")

    monkeypatch.setattr(cli, "sample_curve", refuse)
    out = tmp_path / "out"
    assert main(argv + ["--grid-points", "16", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("configuration error: grid_points must exceed the 21 "
                            "coefficients of the widest window, got 16\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("vary,values,bad", [
    ("J", "200,nan", "nan"), ("J", "200,inf", "inf"), ("J", "200,200.7", "200.7"),
    ("N2", "8,8.5", "8.5"), ("J", "200,2e2", "2e2"), ("J", "200,200.0", "200.0"),
])
def test_sensitivity_integer_keys_reject_non_integers(tmp_path, monkeypatch, capsys,
                                                      vary, values, bad):
    # J and N2 are integers, parsed by int as their flags and keys are: nan
    # and inf must not escape as a traceback, and 200.7 must not run J = 200
    # under the label 200.7
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["sensitivity", "--vary", vary, "--values", values,
                 "--out-dir", str(out)]) == 2
    assert f"bad value for {vary}: {bad!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# dielectric command
# ---------------------------------------------------------------------------


def synthetic_sampler(kind, sigma, grid, rel_tol=None):
    c_lead = 0.5 if kind is SpectrumKind.TE else 0.8
    c0 = 0.1973 if kind is SpectrumKind.TE else 0.1961
    return [IntegralSample(s=float(s), value=c_lead / s**4 + c0 + 0.05 * s, est_error=1e-12,
                           kind=kind, sigma=sigma) for s in grid.points]


@pytest.fixture()
def dielectric_run(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "sample_curve", synthetic_sampler)
    code = main(["dielectric", "--sigma", "8/27", "--grid-points", "64",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    return tmp_path


def test_dielectric_artifacts(dielectric_run):
    for tag in ("te", "tm"):
        assert (dielectric_run / f"samples_{tag}.csv").is_file()
        assert (dielectric_run / f"matrix_{tag}.json").is_file()
        lines = (dielectric_run / f"curves_{tag}.csv").read_text().splitlines()
        assert lines[0] == "nhat2,c0hat"
        assert len(lines) == 9


def test_dielectric_report(dielectric_run):
    report = read_json(dielectric_run / "report.json")
    assert report["mode"] == "dielectric"
    assert report["sigma"] == pytest.approx(8.0 / 27.0, rel=1e-15)
    assert report["sigma_exact"] == "8/27"
    assert report["alpha"] == pytest.approx(2.0 * math.log(8.0 / 27.0), rel=1e-14)
    assert report["te"]["pole_order"] == -4
    assert report["tm"]["pole_order"] == -4
    assert report["te"]["c0"] == pytest.approx(0.1973, abs=1e-6)
    assert report["tm"]["c0"] == pytest.approx(0.1961, abs=1e-6)

    force = report["force"]
    assert force["scaled_total"] == pytest.approx(
        force["scaled_te"] + force["scaled_tm"], rel=1e-12)
    assert force["delta_force"] / force["F0"] == pytest.approx(
        report["te"]["c0"] + report["tm"]["c0"], rel=1e-12)
    assert force["ratio_te"] == pytest.approx(
        force["F0"] * report["te"]["c0"] / force["vacuum_force"], rel=1e-12)
    assert report["geometry"] == {"Lx": 1.0, "Ly": 1.0, "Lz": 1.0}
    assert report["quadrature"] == {"rel_tol": 1e-7}


def test_dielectric_report_echoes_the_rel_tol_that_ran(tmp_path, monkeypatch):
    ran = []

    def recording_sampler(kind, sigma, grid, rel_tol=None):
        ran.append((kind, rel_tol))
        return synthetic_sampler(kind, sigma, grid)

    monkeypatch.setattr(cli, "sample_curve", recording_sampler)
    assert main(["dielectric", "--sigma", "8/27", "--grid-points", "64",
                 "--rel-tol", "3e-8", "--out-dir", str(tmp_path)]) == 0
    assert ran == [(SpectrumKind.TE, 3e-8), (SpectrumKind.TM, 3e-8)]
    assert read_json(tmp_path / "report.json")["quadrature"] == {"rel_tol": 3e-8}


def test_dielectric_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sample_curve", synthetic_sampler)
    main(["dielectric", "--sigma", "8/27", "--grid-points", "64",
          "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "te: pole_order=-4" in out
    assert "tm: pole_order=-4" in out


def test_dielectric_run_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch, capsys):
    # one CPU samples each curve as one batch in this process, two CPUs on
    # the forked helper team, the TE points in interleaved parts of 8 and
    # F_TM by radius rows: the same bytes either way
    import casimir_laurent.quadrature as quadrature

    runs = []
    for count in (1, 2):
        monkeypatch.setattr(quadrature.os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
        out = tmp_path / f"cpus-{count}"
        assert main(["dielectric", "--sigma", "8/27", "--grid-points", "16",
                     "--out-dir", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((files, capsys.readouterr()))
    assert len(runs[0][0]) == 7
    assert runs[0] == runs[1]


def test_dielectric_rejects_unit_sigma(tmp_path, capsys):
    assert main(["dielectric", "--sigma", "1.0", "--out-dir", str(tmp_path)]) == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("sigma,argv,err", [
    ("1" + "0" * 400 + "/1", [], r"configuration error: .+\n"),
    ("99999999999999999999/100000000000000000000", ["--eps-s", "0.05", "--s-max", "1"],
     r"configuration error: sigma must lie in \(0,1\) or \(1,inf\), got 1\.0\n"),
], ids=["overflows", "rounds-to-1"])
def test_exact_sigma_is_checked_as_the_float_sampled(tmp_path, monkeypatch, capsys, sigma,
                                                     argv, err):
    # an exact fraction too large for a float, or one that rounds to 1.0,
    # used to escape plan_run's checks and end in a traceback with exit 1
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["dielectric", "--sigma", sigma, *argv, "--grid-points", "16",
                 "--out-dir", str(out)]) == 2
    assert re.fullmatch(err, capsys.readouterr().err)
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--sigma", "1.5e308"],
    ["--sigma", "1e300"],
    ["--sigma", "8/27", "--eps-s", "1e-9", "--s-max", "2e-9"],
], ids=["sigma-1.5e308", "sigma-1e300", "eps-s-1e-9"])
def test_kernel_arguments_past_two_to_the_thirty_rejected_before_sampling(tmp_path, monkeypatch,
                                                                          capsys, argv):
    # max(1, sigma) * X(eps_s) past 2^30, the range of log_bessel_ik: the two
    # large contrasts used to end in a traceback (exit 1), the small damping
    # in a quadrature failure after sampling (exit 3)
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["dielectric", *argv, "--grid-points", "16", "--out-dir", str(out)]) == 2
    assert re.fullmatch(r"configuration error: sigma=\S+ and s=\S+ reach kernel arguments of "
                        r"\S+, past 2\^30, the argument range of log_bessel_ik\n",
                        capsys.readouterr().err)
    assert calls == []
    assert not out.exists()


def test_dielectric_requires_sigma(tmp_path, monkeypatch, capsys):
    # neither --sigma nor the config key: plan_run's rule, before any sample
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["dielectric", "--grid-points", "16", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: sigma is required")
    assert calls == []
    assert not out.exists()


def test_sigma_config_key_runs_like_the_flag(tmp_path, monkeypatch):
    # the config key sigma takes effect, and --sigma overrides it
    monkeypatch.setattr(cli, "sample_curve", synthetic_sampler)

    def run(name, line, flags):
        base = tmp_path / name
        base.mkdir()
        argv = ["dielectric", "--grid-points", "64", "--out-dir", str(base / "out")] + flags
        if line:
            (base / "run.cfg").write_text(line + "\n")
            argv += ["--config", str(base / "run.cfg")]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted((base / "out").iterdir())}

    by_flag = run("flag", None, ["--sigma", "8/27"])
    assert read_json(tmp_path / "flag" / "out" / "report.json")["sigma_exact"] == "8/27"
    assert run("config", "sigma = 8/27", []) == by_flag
    assert run("override", "sigma = 0.5", ["--sigma", "8/27"]) == by_flag
    assert run("other", "sigma = 0.5", []) != by_flag


@pytest.mark.parametrize("sigma,scale", [
    (0.9, math.log(0.9) / math.log(8 / 27)),
    (Fraction(8, 27), 1.0),      # the paper's contrast runs on the vacuum grid
    (Fraction(27, 8), 1.0),
])
def test_dielectric_default_grid_scales_with_log_sigma(sigma, scale):
    vacuum = cli.plan_run(cli.RunConfig(), SpectrumKind.VACUUM).grid
    assert (vacuum.eps_s, vacuum.s_R) == (0.05, 1.0)
    grid = cli.plan_run(cli.RunConfig(sigma=sigma), SpectrumKind.TE).grid
    assert (grid.eps_s, grid.s_R) == (pytest.approx(0.05 * scale, rel=1e-15),
                                      pytest.approx(scale, rel=1e-15))
    if scale == 1.0:
        assert (grid.eps_s, grid.s_R) == (0.05, 1.0)
    # an explicit endpoint is honoured, the unset one still scales
    grid = cli.plan_run(cli.RunConfig(sigma=sigma, eps_s=0.001), SpectrumKind.TE).grid
    assert (grid.eps_s, grid.s_R) == (0.001, pytest.approx(scale, rel=1e-15))
    grid = cli.plan_run(cli.RunConfig(sigma=sigma, s_max=2.0), SpectrumKind.TE).grid
    assert (grid.eps_s, grid.s_R) == (pytest.approx(0.05 * scale, rel=1e-15), 2.0)


def test_dielectric_report_echoes_the_grid_that_ran(tmp_path, monkeypatch):
    ran = []

    def recording_sampler(kind, sigma, grid, rel_tol=None):
        ran.append(grid)
        return synthetic_sampler(kind, sigma, grid)

    monkeypatch.setattr(cli, "sample_curve", recording_sampler)
    assert main(["dielectric", "--sigma", "0.9", "--grid-points", "64",
                 "--out-dir", str(tmp_path)]) == 0
    grid = ran[0]
    assert grid.s_R == pytest.approx(math.log(0.9) / math.log(8 / 27), rel=1e-15)
    assert read_json(tmp_path / "report.json")["grid"] == {
        "eps_s": grid.eps_s, "s_R": grid.s_R, "J": 64, "spacing": "linear"}


def test_dielectric_near_unit_contrast_reads_c0_on_the_scaled_grid():
    # On the unscaled grid [0.05, 1], sigma = 0.9 TE read pole -4 and c0
    # -114.30 with no sign change: s / |ln sigma| spans [0.47, 9.5], far past
    # the Laurent region.  Converged samples read TE 243.31 and TM 242.23 on
    # the scaled grid.  The nested TE route at the default rel_tol reads
    # 239.99, 1.4% low from sample noise; the radial TM samples are
    # converged, and must read TM within 1e-3 of 242.23
    plan = cli.plan_run(cli.RunConfig(sigma=0.9), SpectrumKind.TE)
    te, tm = (cli.regularize(cli.sample_curve(kind, plan.sigma, plan.grid, plan.rel_tol),
                             plan.params) for kind in (SpectrumKind.TE, SpectrumKind.TM))
    assert te.pole_order == -4 and tm.pole_order == -4
    assert te.c0 == pytest.approx(243.31, rel=0.03)
    assert tm.c0 == pytest.approx(242.23, rel=1e-3)


# ---------------------------------------------------------------------------
# staged failures
# ---------------------------------------------------------------------------


def test_quadrature_failure_exits_3(tmp_path, monkeypatch, capsys):
    def failing_sampler(kind, sigma, grid, rel_tol=None):
        raise QuadratureError("sample 0 (s=0.05) failed: did not converge")

    monkeypatch.setattr(cli, "sample_curve", failing_sampler)
    assert main(["vacuum", "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "quadrature failure: sample 0 (s=0.05) failed: did not converge\n")


def test_dielectric_failure_through_the_pool_exits_3(tmp_path, monkeypatch, capsys):
    # the helper team, forked after the patch, runs the patched panel limit;
    # on two CPUs it reports the failure the serial run (one CPU) reports
    import casimir_laurent.quadrature as quadrature

    monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
    argv = ["dielectric", "--sigma", "8/27", "--grid-points", "16", "--out-dir", str(tmp_path)]
    errors = []
    for count in (1, 2):
        monkeypatch.setattr(quadrature.os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
        assert main(argv) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert re.match(r"quadrature failure: sample 0 \(s=0\.05\) failed: inner quadrature "
                    r"at nu=\S+ did not converge", errors[0])


def test_regularization_failure_exits_4(tmp_path, monkeypatch, capsys):
    def failing_regularize(samples, params=None):
        raise RegularizationError("detect", "no stable pole order")

    monkeypatch.setattr(cli, "regularize", failing_regularize)
    assert main(["vacuum", "--grid-points", "64", "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        "regularization failure (detect): [detect] no stable pole order\n")


def _tm_fails(kind, sigma, grid, rel_tol=None):
    if kind is SpectrumKind.TM:
        raise QuadratureError("sample 0 (s=0.05) failed: did not converge")
    return synthetic_sampler(kind, sigma, grid, rel_tol)


@pytest.mark.parametrize("argv,code,sampler", [
    # window (-5, 16) is rank-deficient on the default grid
    (["vacuum", "--n2", "20"], 4, None),
    (["sensitivity", "--vary", "N2", "--values", "9,20"], 4, None),
    (["dielectric", "--sigma", "8/27", "--grid-points", "64"], 3, _tm_fails),
])
def test_failed_run_writes_nothing(tmp_path, monkeypatch, argv, code, sampler):
    # every curve is sampled and regularized before out_dir is created, so a
    # failure after the first curve leaves neither a directory nor its files
    if sampler is not None:
        monkeypatch.setattr(cli, "sample_curve", sampler)
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    existing.mkdir()
    assert main(argv + ["--out-dir", str(fresh)]) == code
    assert main(argv + ["--out-dir", str(existing)]) == code
    assert not fresh.exists()
    assert list(existing.iterdir()) == []


def test_dielectric_run_never_samples_tm_after_te_fails(tmp_path, monkeypatch, capsys):
    # the TE curve is sampled first.  The stand-in kernel is NaN for TE
    # everywhere and marks every TM call, in this process or in a helper
    # forked after the patch: one and two CPUs exit 3 with the same line,
    # neither samples TM, and neither writes anything
    import casimir_laurent.quadrature as quadrature

    marks = tmp_path / "marks"
    marks.mkdir()

    def poisoned(kind, nu, y, sigma):
        if kind is SpectrumKind.TM:
            (marks / "tm").touch()
        return np.full(np.broadcast(nu, y).shape, math.nan)

    monkeypatch.setattr(quadrature, "dlog_cross", poisoned)
    errors = []
    for count in (1, 2):
        monkeypatch.setattr(quadrature.os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
        out = tmp_path / f"cpus-{count}"
        assert main(["dielectric", "--sigma", "8/27", "--grid-points", "16",
                     "--out-dir", str(out)]) == 3
        errors.append(capsys.readouterr().err)
        assert list(marks.iterdir()) == []
        assert not out.exists()
    assert errors[0] == errors[1]
    assert re.match(r"quadrature failure: sample 0 \(s=0\.05\) failed: inner quadrature "
                    r"at nu=\S+: non-finite integrand", errors[0])


@pytest.mark.parametrize("shape", ["file", "below-a-file", "dangling-link"])
@pytest.mark.parametrize("argv", [
    ["vacuum"],
    ["dielectric", "--sigma", "8/27"],
    ["sensitivity", "--vary", "J", "--values", "16,20"],
], ids=["vacuum", "dielectric", "sensitivity"])
def test_out_dir_blocked_by_a_file_is_refused_before_sampling(tmp_path, monkeypatch, capsys,
                                                              argv, shape):
    # a file at out_dir or above it, or a link to nowhere at it, used to be
    # found by out.mkdir only once every curve was sampled, and ended in a
    # FileExistsError or NotADirectoryError traceback with exit 1
    def refuse(*args, **kwargs):
        raise AssertionError("a curve was sampled")

    monkeypatch.setattr(cli, "sample_curve", refuse)
    blocker = tmp_path / "taken"
    if shape == "dangling-link":
        blocker.symlink_to(tmp_path / "nowhere")
    else:
        blocker.write_text("kept\n")
    out = blocker / "out" if shape == "below-a-file" else blocker
    assert main(argv + ["--grid-points", "16", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (f"configuration error: out_dir {out} cannot be a "
                                       f"directory: {blocker} is not one\n")
    assert list(tmp_path.iterdir()) == [blocker]
    if shape != "dangling-link":
        assert blocker.read_text() == "kept\n"


def test_first_rank_deficient_window_is_named(tmp_path, capsys):
    # at --n2 20 the default grid cannot separate window (-5, 16), the first
    # failing window in row-major order
    assert main(["vacuum", "--n2", "20", "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == ("regularization failure (fit): [fit] "
                                       "rank-deficient window (-5, 16): rank 21 < 22\n")


def run_extreme_grid(out, eps_s, s_max):
    """main() on a 16-point vacuum grid, with every warning it raises recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["vacuum", "--eps-s", eps_s, "--s-max", s_max, "--grid-points", "16",
                     "--out-dir", str(out)])
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("eps_s,s_max,norm", [("1e-70", "2e-70", "inf"),
                                              ("1e40", "2e40", "0")])
def test_grid_the_monomials_cannot_represent_exits_4(tmp_path, capfd, eps_s, s_max, norm):
    # s^-5 overflows on the first grid and underflows in its norm on the
    # second; the first used to reach LAPACK, which printed DLASCL errors.
    # The overflows on the way print no numpy warning: one line, then exit 4
    out = tmp_path / "out"
    code, runtime_warnings = run_extreme_grid(out, eps_s, s_max)
    assert code == 4
    assert runtime_warnings == []
    captured = capfd.readouterr()
    assert "DLASCL" not in captured.out + captured.err
    assert captured.err.startswith(
        f"regularization failure (fit): [fit] basis column s^-5 has norm {norm} ")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_vacuum_kernel_overflow_exits_3(tmp_path, capfd):
    # the tail of s = 1e-110 reaches r ~ 1e109, where r^3 overflows: the
    # quadrature names the non-finite integrand, with no numpy warning before it
    out = tmp_path / "out"
    code, runtime_warnings = run_extreme_grid(out, "1e-110", "2e-110")
    assert code == 3
    assert runtime_warnings == []
    captured = capfd.readouterr()
    assert captured.err.startswith("quadrature failure: sample 0 (s=1e-110) failed: "
                                   "quadrature: non-finite integrand at x=")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,line", [
    (["vacuum"], "abs_tol = 1e-14"),   # removed keys; valid values before
    (["vacuum"], "tail_tol = 1e-13"),
    (["vacuum"], "spacing = LINEAR"),
    (["dielectric", "--sigma", "8/27", "--grid-points", "16"], "lx = -1"),
    (["dielectric", "--sigma", "8/27", "--grid-points", "16"], "lz = nan"),
    (["dielectric", "--sigma", "nan", "--grid-points", "16"], "lx = 1"),
    (["vacuum"], "rel_tol = 0"),
    (["dielectric", "--sigma", "8/27", "--grid-points", "16"], "rel_tol = nan"),
])
def test_config_rejected_before_sampling(tmp_path, monkeypatch, capsys, argv, line):
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["vacuum", "--rel-tol", "0"],
    ["vacuum", "--rel-tol", "nan"],
    ["dielectric", "--sigma", "8/27", "--rel-tol", "1", "--grid-points", "16"],
    ["sensitivity", "--vary", "rel_tol", "--values", "1e-9,2"],
])
def test_bad_rel_tol_rejected_before_sampling(tmp_path, monkeypatch, capsys, argv):
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert "configuration error: rel_tol must lie in (0,1)" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["vacuum", "--s-max", "inf"],
    ["sensitivity", "--vary", "s_R", "--values", "1.0,inf"],
    ["dielectric", "--sigma", "8/27", "--s-max", "inf", "--grid-points", "16"],
])
def test_infinite_s_max_is_a_configuration_error(tmp_path, monkeypatch, capsys, argv):
    # an infinite s_R used to reach the sampler as NaN grid points and exit 1
    # with a traceback, leaving an empty output directory
    calls = []
    monkeypatch.setattr(cli, "sample_curve", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert "configuration error: s_R must be finite, got inf" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# one sampling call per curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv,counts", [
    (["vacuum", "--grid-points", "64"], (1, 1)),
    (["dielectric", "--sigma", "8/27", "--grid-points", "64"], (2, 2)),
    (["sensitivity", "--vary", "eps_c", "--values", "0.0005,0.001,0.002",
      "--grid-points", "64"], (3, 3)),
    (["sensitivity", "--vary", "N2", "--values", "7,8,9", "--grid-points", "64"], (3, 3)),
    (["sensitivity", "--vary", "J", "--values", "64,96"], (2, 2)),
])
def test_curve_runner_call_counts(tmp_path, monkeypatch, argv, counts):
    # every curve of a command, every sweep value's included, is sampled by
    # its own sample_curve call and regularized once
    calls = {"sample_curve": 0, "regularize": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    sampler = synthetic_sampler if argv[0] == "dielectric" else cli.sample_curve
    monkeypatch.setattr(cli, "sample_curve", counting("sample_curve", sampler))
    monkeypatch.setattr(cli, "regularize", counting("regularize", cli.regularize))
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert (calls["sample_curve"], calls["regularize"]) == counts


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    # main reuses one parser: a bad command after a good one still gets
    # argparse's usage line and exit code, and no parser is built for it
    assert main(["vacuum", "--grid-points", "16", "--out-dir", str(tmp_path / "ok")]) == 0
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["vacuum", "--grid-pionts", "16", "--out-dir", str(tmp_path / "bad")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: casimir-laurent ")
    assert "unrecognized arguments: --grid-pionts" in err
    assert built == []
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("argv,flags", [
    (["vacuum", "--grid-pionts", "16"], "--grid-pionts 16"),
    (["dielectric", "--sigma", "8/27", "--sigmaa", "2"], "--sigmaa 2"),
    (["sensitivity", "--vary", "J", "--values", "100", "--valeus", "1"], "--valeus 1"),
], ids=["vacuum", "dielectric", "sensitivity"])
def test_misspelt_flag_shows_the_subcommand_usage(argv, flags, tmp_path, capsys):
    # the usage line of the subcommand, with the flags it does take
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: casimir-laurent {argv[0]} [-h]")
    assert "--grid-points" in err.split(": error:")[0]
    assert err.rstrip().endswith(f"error: unrecognized arguments: {flags}")
    assert not (tmp_path / "o").exists()


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
