import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import geomprod
from geomprod.cli import parse_base, parse_function, parse_ratio, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlagParsing:
    def test_sqrt_ratio(self):
        assert parse_ratio("sqrt:2") == math.sqrt(2.0)
        assert parse_ratio("1.5") == 1.5

    def test_base(self):
        assert parse_base("4,2").elements == (2, 4)

    def test_function_specs(self):
        assert parse_function("cos").tag == "cos"
        f = parse_function("exp_scaled:-1.5")
        assert f.tag == "exp_scaled" and f.c == -1.5
        g = parse_function("monomial_exp:0.5,3")
        assert g.c == 0.5 and g.k == 3
        with pytest.raises(argparse.ArgumentTypeError, match="must be one, cos, "):
            parse_function("tan")

    @pytest.mark.parametrize("spec", [
        "tan", "cos:3", "one:junk", "half_sin_shifted:", "exp_scaled", "exp_scaled:abc",
        "exp_scaled:inf", "monomial_exp:1", "monomial_exp:1,2,3", "monomial_exp:1,2.5",
        "monomial_exp:1,0",
    ])
    def test_function_argument_is_checked(self, capsys, spec):
        code, _, err = invoke(capsys, "estimate", "--function", spec, "--x", "1", "--r", "2",
                              "--n-max", "4", "--base", "1")
        assert code == 2
        assert err == (
            "error: UsageError: argument --function: must be one, cos, half_sin_shifted, "
            "exp_scaled:C or monomial_exp:C,K with C finite and K a positive integer, "
            f"got {spec!r}\n")


class TestEstimateCommand:
    def test_fig1_point(self, capsys):
        code, out, _ = invoke(
            capsys,
            "estimate", "--function", "cos", "--x", "1.0", "--r", "sqrt:2",
            "--n-max", "10", "--base", "2,4", "--parity", "even",
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(math.cos(1.0), abs=0.01)
        assert record["config"]["n_max"] == 10
        assert record["config"]["base"] == [2, 4]

    def test_cutoff_resolution_embedded(self, capsys):
        code, out, _ = invoke(
            capsys,
            "estimate", "--function", "cos", "--x", "1.0", "--r", "sqrt:2",
            "--cutoff", "32", "--base", "2,4", "--parity", "even",
        )
        assert code == 0
        assert json.loads(out)["config"]["n_max"] == 10

    def test_deterministic(self, capsys):
        argv = ["estimate", "--function", "half_sin_shifted", "--x", "2.0",
                "--r", "2", "--n-max", "40", "--base", "1,2,3,4"]
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2

    def test_negative_exponent_value(self, capsys):
        code, out, _ = invoke(
            capsys,
            "estimate", "--function", "cos", "--x", "-1e-05", "--r", "2", "--n-max", "10",
            "--base", "2",
        )
        assert code == 0
        assert json.loads(out)["x"] == -1e-05

    def test_missing_truncation_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys,
            "estimate", "--function", "cos", "--x", "1", "--r", "2", "--base", "2",
        )
        assert code == 2
        assert "error" in err


class TestComponentCommand:
    def test_exp_component(self, capsys):
        code, out, _ = invoke(
            capsys,
            "component", "--function", "exp_scaled:1", "--k", "1", "--x", "1.0",
            "--r", "2", "--n-max", "20", "--base", "1",
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(math.exp(1 - 2.0**-20), rel=1e-12)
        assert record["k"] == 1

    def test_k_outside_base(self, capsys):
        code, _, err = invoke(
            capsys,
            "component", "--function", "cos", "--k", "3", "--x", "1", "--r", "2",
            "--n-max", "10", "--base", "2,4",
        )
        assert code == 2


class TestEulerCommand:
    def test_half_pi(self, capsys):
        code, out, _ = invoke(capsys, "euler", "--x", "1.5707963", "--n", "40")
        assert code == 0
        record = json.loads(out)
        assert record["product"] == pytest.approx(2 / math.pi, abs=1e-6)
        assert record["abs_error"] < 1e-10

    @pytest.mark.parametrize("n", ["1024", "5000"])
    def test_n_past_the_float_range_of_2_to_the_n(self, capsys, n):
        # 2**1024 has no float; the factors past it are cos(0) = 1
        code, out, _ = invoke(capsys, "euler", "--x", "1.5707963", "--n", n)
        assert code == 0
        assert json.loads(out)["product"] == pytest.approx(2 / math.pi, abs=1e-6)

    def test_n_over_the_cap_is_usage_error(self, capsys):
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, "euler", "--x", "1", "--n", "100000000000")
        assert time.perf_counter() - t0 < 1.0
        message = "N must be from 1 to 1000000, got 100000000000"
        assert code == 2
        assert err == f"error: ValueError: {message}\n"
        assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


class TestCountFactorsCommand:
    def test_fig2_count(self, capsys):
        code, out, _ = invoke(
            capsys, "count-factors", "--base", "1,2,3,4", "--n-max", "40",
        )
        assert code == 0
        assert out.strip() == "135750"

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "count-factors", "--base", "2,4", "--n-max", "10",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["factor_count"] == 65


class TestSweepCommand:
    ARGV = ("sweep", "--function", "cos", "--grid", "0:1.5:0.5",
            "--schedule", "sqrt:2", "--n-max", "10", "--base", "2,4",
            "--parity", "even")

    def test_csv_output(self, capsys):
        code, out, _ = invoke(capsys, *self.ARGV)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,r,n_max,estimate,reference,abs_error,factor_count,status"
        assert len(lines) == 5

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = invoke(capsys, *self.ARGV)
        _, out2, _ = invoke(capsys, *self.ARGV)
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = invoke(capsys, *self.ARGV, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,r,n_max,")


class TestForecastCommand:
    def write_series(self, tmp_path):
        path = tmp_path / "series.csv"
        rows = ["t,value"]
        for i in range(81):
            t = 0.05 * i
            rows.append(f"{t},{1 + 0.5 * math.sin(t)}")
        path.write_text("\n".join(rows), encoding="utf-8")
        return path

    def test_forecast(self, capsys, tmp_path):
        path = self.write_series(tmp_path)
        code, out, _ = invoke(
            capsys,
            "forecast", "--csv", str(path), "--normalize", "none", "--x", "3.0",
            "--r", "2", "--n-max", "40", "--base", "1,2,3,4",
        )
        assert code == 0
        record = json.loads(out)
        assert record["raw_value"] == pytest.approx(1 + 0.5 * math.sin(3.0), abs=0.01)
        assert record["coverage"]["ok"] is True

    def test_domain_error_exit_code(self, capsys, tmp_path):
        path = self.write_series(tmp_path)
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--normalize", "none", "--x", "50",
            "--r", "2", "--n-max", "40", "--base", "1,2,3,4",
        )
        assert code == 3
        assert "DomainCoverageError" in err

    def test_negative_horizon_is_a_coverage_error(self, capsys, tmp_path):
        path = self.write_series(tmp_path)
        code, out, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--normalize", "none", "--x", "-0.5",
            "--r", "2", "--n-max", "10", "--base", "1,2", "--format", "csv",
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: DomainCoverageError: abscissa -0.4330127018922193 outside sampled "
            "range [0.0, 4.0] (forecast at x=-0.5 infeasible; a horizon x < 0 samples "
            "t < 0, and the signal covers t >= 0 only)\n"
        )

    def test_json_error_object(self, capsys, tmp_path):
        path = self.write_series(tmp_path)
        code, out, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--normalize", "none", "--x", "50",
            "--r", "2", "--n-max", "40", "--base", "1,2,3,4", "--format", "json",
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "DomainCoverageError"
        assert err.count("\n") == 1  # single-line reason

    @pytest.mark.parametrize("spec, reason", [
        ("affine:nan,1", "must be a finite number, got 'nan'"),
        ("affine:inf,1", "must be a finite number, got 'inf'"),
        ("affine:1,nan", "must be a finite number, got 'nan'"),
        ("affine:1", "must be divide_by_first, none or affine:A,B, got 'affine:1'"),
    ])
    def test_bad_affine_parameters_are_usage_errors(self, capsys, tmp_path, spec, reason):
        path = self.write_series(tmp_path)
        code, out, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--normalize", spec, "--x", "1",
            "--r", "2", "--n-max", "4", "--base", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: UsageError: argument --normalize: {reason}\n"

    def test_affine_zero_scale_is_usage_error(self, capsys, tmp_path):
        path = self.write_series(tmp_path)
        code, out, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--normalize", "affine:1,0", "--x", "1",
            "--r", "2", "--n-max", "4", "--base", "1",
        )
        message = "affine mode needs offset a and nonzero scale b"
        assert code == 2
        assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}
        assert err == f"error: ValueError: {message}\n"

    def test_shifted_times_that_collide(self, capsys, tmp_path):
        path = tmp_path / "wide_span.csv"
        path.write_text("t,v\n-1e16,1\n0.5,1\n1.0,1\n2,1\n3,1\n", encoding="utf-8")
        code, out, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--x", "0.1",
            "--r", "2", "--n-max", "5", "--base", "1",
        )
        message = "times 0.5 and 1.0 both shift to 1e+16 with t0=-1e+16"
        assert code == 3
        assert json.loads(out) == {"error": {"type": "NormalizationError", "message": message}}
        assert err == f"error: NormalizationError: {message}\n"

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(tmp_path / "absent.csv"), "--x", "1",
            "--r", "2", "--n-max", "10", "--base", "1",
        )
        assert code == 4

    def test_malformed_file_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\nnot,a,row\n", encoding="utf-8")
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--x", "1",
            "--r", "2", "--n-max", "10", "--base", "1",
        )
        assert code == 4


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_is_io_error(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,value\n0,1\n0.5,{bad}\n1,1.2\n1.5,1.3\n", encoding="utf-8")
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--x", "1",
            "--r", "2", "--n-max", "10", "--base", "1",
        )
        assert code == 4
        assert "SignalFormatError" in err and ":3:" in err

    def test_oversized_field_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        wide = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"t,value\n0,1\n0.5,{wide}\n1,1.2\n1.5,1.3\n", encoding="utf-8")
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--x", "1",
            "--r", "2", "--n-max", "10", "--base", "1",
        )
        assert code == 4
        assert err == (f"error: SignalFormatError: {path}:3: field larger than field limit "
                       f"({csv.field_size_limit()})\n")

    def test_non_utf8_file_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,caf\xe9\n0,1\n0.5,1.1\n1,1.2\n1.5,1.3\n".encode("latin-1"))
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--x", "1",
            "--r", "2", "--n-max", "10", "--base", "1",
        )
        assert code == 4
        assert err.startswith(f"error: SignalFormatError: {path}: not UTF-8 text (")

    def test_non_positive_value_message(self, capsys, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("0,1\n1,2\n2,-1\n3,4\n", encoding="utf-8")
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--x", "1", "--r", "2", "--n-max", "10",
            "--base", "1",
        )
        assert code == 3
        assert err == "error: NormalizationError: non-positive value -1.0 at t=2.0\n"

    def test_unnormalized_start_message(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("0,2\n1,2.2\n2,2.4\n3,2.6\n", encoding="utf-8")
        code, _, err = invoke(
            capsys,
            "forecast", "--csv", str(path), "--normalize", "none", "--x", "1", "--r", "2",
            "--n-max", "10", "--base", "1",
        )
        assert code == 3
        assert err == "error: NormalizationError: normalized value at t=0 is 2.0, must be 1\n"

    def test_overflowed_time_shift_message(self, capsys, tmp_path):
        # 1.5e308 - (-1e308) is inf, and so is 1e300 / 1e-300: a floating-point
        # overflow (exit 3), reported in one error line with no warning before it
        path = tmp_path / "series.csv"
        for text in ("-1e308,1\n0,1\n1e308,1\n1.5e308,1\n", "0,1e-300\n1,1\n2,1e300\n3,1\n"):
            path.write_text(text, encoding="utf-8")
            code, _, err = invoke(
                capsys,
                "forecast", "--csv", str(path), "--x", "1", "--r", "2", "--n-max", "10",
                "--base", "1",
            )
            assert code == 3
            assert err == ("error: NormalizationError: "
                           "shifted times and normalized values must be finite\n")


# Runs one command in a fresh interpreter and reports which heavy modules it
# imported; the command's own output is discarded.
_IMPORT_PROBE = """\
import contextlib, io, json, sys
from geomprod.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules, "scipy" in sys.modules]))
"""


# The library path, series accessors included: load, normalize, read the
# series back, forecast.
_LIBRARY_PROBE = """\
import json, sys
import geomprod as gp
sig = gp.normalize(gp.load_csv(sys.argv[1]))
series = sig.abscissas + sig.values
gp.forecast(sig, 1.0, gp.GmpConfig(r=2.0, n_max=4, base=gp.IndexSet.of(1)))
print(json.dumps([len(series), "numpy" in sys.modules, "scipy" in sys.modules]))
"""


def _imports_of(argv, probe=_IMPORT_PROBE):
    env = dict(os.environ, PYTHONPATH=str(Path(geomprod.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    ["estimate", "--function", "cos", "--x", "1", "--r", "2", "--n-max", "10", "--base", "2,4"],
    ["component", "--function", "cos", "--k", "2", "--x", "1", "--r", "2", "--n-max", "10",
     "--base", "2,4"],
    ["euler", "--x", "1", "--n", "10"],
    ["sweep", "--function", "cos", "--grid", "0:1:0.5", "--schedule", "2", "--n-max", "4",
     "--base", "2"],
    ["count-factors", "--base", "1,2", "--n-max", "4"],
], ids=lambda argv: argv[0])
def test_command_imports_neither_numpy_nor_scipy(argv):
    assert _imports_of(argv) == [0, False, False]


def test_forecast_does_not_import_scipy(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("".join(f"{0.25 * i},{1.0 + 0.1 * i}\n" for i in range(12)),
                    encoding="utf-8")
    assert _imports_of(
        ["forecast", "--csv", str(path), "--x", "1", "--r", "2", "--n-max", "4", "--base", "1"]
    ) == [0, False, False]


def test_library_forecast_imports_neither_numpy_nor_scipy(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(_csv(_RAMP), encoding="utf-8")
    assert _imports_of([str(path)], _LIBRARY_PROBE) == [24, False, False]


# The last argv's first sample point, coeff * x = 1e6 * 1e308, is inf.
@pytest.mark.parametrize(
    "argv, error",
    [
        (("estimate", "--function", "cos", "--x", "1", "--r", "2", "--n-max", "10",
          "--base", "2,2000"), "OverflowError"),
        (("estimate", "--function", "cos", "--x", "1", "--r", "1e300", "--n-max", "10",
          "--base", "2"), "OverflowError"),
        (("estimate", "--function", "cos", "--x", "1", "--r", "2", "--n-max", "1100",
          "--base", "1"), "OverflowError"),
        (("estimate", "--function", "exp_scaled:1e300", "--x", "1e10", "--r", "2",
          "--n-max", "10", "--base", "1"), "OverflowError"),
        (("component", "--function", "cos", "--k", "1", "--x", "1", "--r", "1e200",
          "--n-max", "2", "--base", "1"), "OverflowError"),
        (("estimate", "--function", "cos", "--x=1e308", "--r", "1e6", "--n-max", "1",
          "--base", "1"), "GeomprodError"),
    ],
    ids=[f"argv{i}" for i in range(6)],
)
def test_overflow_is_domain_error(capsys, argv, error):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert code == 3
    assert err.startswith(f"error: {error}:") and err.count("\n") == 1
    assert json.loads(out)["error"]["type"] == error


# A sample's overflow names its abscissa, subset and n; fsum's names x.
@pytest.mark.parametrize(
    "function, x, message",
    [
        ("monomial_exp:1,200", "100",
         "Numerical result out of range at sample abscissa 50.0 [subset {1}, n=1]"),
        ("exp_scaled:1e300", "2e8", "intermediate overflow in fsum at x=200000000.0"),
    ],
    ids=["sample", "fsum"],
)
def test_overflow_names_its_subset(capsys, function, x, message):
    code, out, err = invoke(capsys, "estimate", "--function", function, "--x", x, "--r", "2",
                            "--n-max", "10", "--base", "1")
    assert code == 3
    assert err == f"error: OverflowError: {message}\n"
    assert json.loads(out)["error"] == {"type": "OverflowError", "message": message}


# r**n overflows while the plan is built, in r**n for the scales or in the
# coefficient's r**k; the message names r and the power.
@pytest.mark.parametrize(
    "r, n_max, base, message",
    [
        ("1e200", "2", "1", "Numerical result out of range for r**2 at r=1e+200"),
        ("2", "1100", "1", "Numerical result out of range for r**1024 at r=2.0"),
        ("2", "10", "2,2000", "Numerical result out of range for r**2000 at r=2.0"),
    ],
    ids=["scale", "long", "coefficient"],
)
def test_plan_overflow_names_r_and_the_power(capsys, r, n_max, base, message):
    code, out, err = invoke(capsys, "estimate", "--function", "cos", "--x", "1", "--r", r,
                            "--n-max", n_max, "--base", base)
    assert code == 3
    assert err == f"error: OverflowError: {message}\n"
    assert json.loads(out)["error"] == {"type": "OverflowError", "message": message}


@pytest.mark.parametrize("x", ["inf", "nan"])
@pytest.mark.parametrize(
    "command",
    [
        ("estimate", "--function", "cos"),
        ("component", "--function", "cos", "--k", "1"),
        ("forecast", "--csv", "series.csv"),
    ],
)
def test_non_finite_x_is_usage_error(capsys, command, x):
    code = run([*command, "--x", x, "--r", "2", "--n-max", "10", "--base", "1"])
    assert code == 2
    assert "argument --x: must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["inf", "nan"])
def test_euler_non_finite_x_is_usage_error(capsys, x):
    code, out, err = invoke(capsys, "euler", "--x", x, "--n", "10")
    assert code == 2
    assert out == ""
    assert "argument --x: must be a finite number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--function", "tan", "--x", "1", "--r", "2", "--n-max", "10",
         "--base", "1"),
        ("estimate", "--function", "cos", "--x", "1", "--r", "2", "--n-max", "10",
         "--base", "2", "--parity", "odd"),
        ("no-such-command",),
        (),
    ],
)
def test_usage_error_returns_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: UsageError:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (("estimate", "--function", "half_sin_shifted", "--x", "1", "--r", "2"),
         "half_sin_shifted"),
        (("component", "--function", "half_sin_shifted", "--k", "2", "--x", "1", "--r", "2"),
         "half_sin_shifted"),
        (("sweep", "--function", "exp_scaled:1", "--grid", "1:1:1", "--schedule", "2"),
         "exp_scaled(c=1.0)"),
    ],
)
def test_even_parity_rejects_a_function_that_is_not_even(capsys, argv, name):
    code, _, err = invoke(capsys, *argv, "--n-max", "40", "--base", "2,4", "--parity", "even")
    assert code == 2
    assert err == (
        f"error: ValueError: even parity mode requires an even function, got {name}\n")


@pytest.mark.parametrize("function", ["cos", "one", "monomial_exp:1,2"])
@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_even_parity_accepts_an_even_function(capsys, command, function):
    x = ("--grid", "1:1:1", "--schedule", "2") if command == "sweep" else ("--x", "1", "--r", "2")
    code, _, _ = invoke(capsys, command, "--function", function, *x, "--n-max", "40",
                        "--base", "2,4", "--parity", "even")
    assert code == 0


@pytest.mark.parametrize("fmt", [("--format", "json"), ("--format=json",)])
def test_usage_error_json_record(capsys, fmt):
    code, out, _ = invoke(
        capsys, "estimate", "--function", "tan", "--x", "1", "--r", "2", "--n-max", "10",
        "--base", "1", *fmt,
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UsageError"


def test_flags_are_taken_in_full_only(capsys):
    # argparse read --form as --format, which the JSON error record missed
    argv = ("estimate", "--x", "1", "--r", "2", "--n-max", "10", "--base", "1,2")
    code, out, err = invoke(capsys, *argv, "--function", "cos", "--form", "json")
    assert (code, out, err) == (2, "", "error: UsageError: unrecognized arguments: --form json\n")
    code, out, _ = invoke(capsys, *argv, "--function", "nope", "--form", "json")
    assert (code, out) == (2, "")
    code, out, _ = invoke(capsys, *argv, "--function", "nope", "--format", "json")
    assert code == 2 and json.loads(out)["error"]["type"] == "UsageError"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: geomprod")


def test_cached_parser_keeps_no_values(capsys):
    argv = ["estimate", "--function", "cos", "--x", "1.0", "--r", "sqrt:2", "--n-max", "10",
            "--base", "2,4"]
    code, out, _ = invoke(capsys, *argv, "--parity", "even")
    assert code == 0 and json.loads(out)["config"]["parity"] == "even"
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and json.loads(out)["config"]["parity"] == "all"


# Each config's plan would hold trillions of samples: n_max = ceil(ln 32 / ln r)
# is about 3.5e12 for r = 1 + 1e-12, and a 40-element base has 2^40 - 1 subsets.
_PLAN_CAP_ARGVS = [
    ["estimate", "--function", "cos", "--x", "1", "--r", "1.000000000001", "--cutoff", "32",
     "--base", "1"],
    ["estimate", "--function", "cos", "--x", "0", "--r", "1.000000000001", "--cutoff", "32",
     "--base", "1"],
    ["sweep", "--function", "cos", "--grid", "0:1:1", "--schedule", "1.000000000001",
     "--cutoff", "32", "--base", "1"],
    ["estimate", "--function", "cos", "--x", "1", "--r", "2", "--n-max", "40",
     "--base", ",".join(map(str, range(1, 41)))],
]


@pytest.mark.parametrize("argv", _PLAN_CAP_ARGVS, ids=["estimate", "x0", "sweep", "base40"])
def test_plan_cap_is_usage_error(capsys, argv):
    t0 = time.perf_counter()
    code, _, err = invoke(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1
    assert "sample plan cap" in err


@pytest.mark.parametrize("n_max, base", [("1", "1,2"), ("0", "1"), ("-3", "1")])
def test_sweep_n_max_below_base_is_usage_error(capsys, n_max, base):
    # --n-max is used as given, as in estimate: never raised to |base|
    code, out, err = invoke(
        capsys, "sweep", "--function", "cos", "--grid", "0:1:0.5", "--schedule", "2",
        "--n-max", n_max, "--base", base,
    )
    assert (code, out) == (2, "")
    assert err == (f"error: ValueError: n_max={n_max} must be at least "
                   f"|base|={len(base.split(','))}\n")


@pytest.mark.parametrize("command", [
    ["count-factors"],
    ["estimate", "--function", "cos", "--x", "1", "--r", "2"],
    ["component", "--function", "cos", "--k", "1", "--x", "1", "--r", "2"],
    ["sweep", "--function", "cos", "--grid", "0:1:0.5", "--schedule", "2"],
    ["forecast", "--csv", "{csv}", "--x", "1", "--r", "2"],
], ids=lambda command: command[0])
def test_n_max_below_base_has_one_wording(capsys, tmp_path, command):
    path = tmp_path / "series.csv"
    path.write_text(_csv(_RAMP), encoding="utf-8")
    argv = [str(path) if arg == "{csv}" else arg for arg in command]
    code, _, err = invoke(capsys, *argv, "--n-max", "1", "--base", "1,2")
    assert (code, err) == (2, "error: ValueError: n_max=1 must be at least |base|=2\n")


@pytest.mark.parametrize("command", [
    ["estimate", "--function", "cos", "--x", "1", "--r", "2"],
    ["component", "--function", "cos", "--k", "2", "--x", "1", "--r", "2"],
    ["sweep", "--function", "cos", "--grid", "0:1:0.5", "--schedule", "2"],
    ["forecast", "--csv", "{csv}", "--x", "1", "--r", "2"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("truncation, reason", [
    (("--n-max", "10", "--cutoff", "32"), "argument --cutoff: not allowed with argument --n-max"),
    ((), "one of the arguments --n-max --cutoff is required"),
], ids=["both", "neither"])
def test_truncation_takes_exactly_one_flag(capsys, tmp_path, command, truncation, reason):
    path = tmp_path / "series.csv"
    path.write_text(_csv(_RAMP), encoding="utf-8")
    argv = [str(path) if arg == "{csv}" else arg for arg in command]
    code, out, err = invoke(capsys, *argv, *truncation, "--base", "2,4")
    assert (code, out, err) == (2, "", f"error: UsageError: {reason}\n")


_ESTIMATE = ("estimate", "--function", "cos", "--x", "1", "--r", "2", "--n-max", "10")
_SWEEP = ("sweep", "--function", "cos", "--n-max", "4", "--base", "2")


@pytest.mark.parametrize("argv, flag", [
    ((*_ESTIMATE, "--base", "0,1"), "--base"),
    ((*_ESTIMATE, "--base", "1,1"), "--base"),
    ((*_ESTIMATE, "--base", "a,b"), "--base"),
    ((*_SWEEP, "--grid", "0:1"), "--grid"),
    ((*_SWEEP, "--grid", "a:b:c"), "--grid"),
    ((*_SWEEP, "--grid", "0:1:0.5", "--schedule", "2,x"), "--schedule"),
    (("estimate", "--function", "cos", "--x", "1", "--r", "sqrt:-2", "--n-max", "4",
      "--base", "1"), "--r"),
])
def test_usage_error_names_its_flag(capsys, argv, flag):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: UsageError: argument {flag}: must be ")


def test_module_entry_point():
    # main() as the console script runs it: exit status from sys.exit(run())
    env = dict(os.environ, PYTHONPATH=str(Path(geomprod.__file__).parents[1]))
    golden = Path(__file__).parent / "data" / "golden" / "readme_count_factors.csv"
    for argv, expected in [
        (["--n-max", "40"], (0, golden.read_text(encoding="utf-8"), "")),
        (["--n-max", "x"], (2, "", "error: UsageError: argument --n-max: "
                                   "invalid int value: 'x'\n")),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "geomprod.cli", "count-factors", "--base", "1,2,3,4", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_count_factors_has_no_sample_cap(capsys):
    # count-factors samples nothing, so a plan far over MAX_SAMPLES still counts
    code, out, _ = invoke(capsys, "count-factors", "--base", "1,2", "--n-max", str(10**8))
    assert (code, out) == (0, f"{math.comb(10**8 + 2, 2) - 1}\n")


def test_sweep_cutoff_error_matches_estimate(capsys):
    truncation = ("--cutoff", "1", "--base", "1", "--format", "csv")
    estimate = invoke(capsys, "estimate", "--function", "cos", "--x", "1", "--r", "2",
                      *truncation)
    sweep = invoke(capsys, "sweep", "--function", "cos", "--grid", "0:1:0.5",
                   "--schedule", "2", *truncation)
    assert estimate == sweep == (2, "", "error: ValueError: cutoff must be >= 2, got 1\n")


def test_sweep_row_cap_is_usage_error(capsys):
    t0 = time.perf_counter()
    code, _, err = invoke(
        capsys, "sweep", "--function", "cos", "--grid", "0:1e9:1e-9", "--n-max", "10",
        "--base", "1",
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "row sweep cap" in err


_FUNCTIONS = st.one_of(
    st.sampled_from(["one", "cos", "half_sin_shifted"]),
    st.builds("exp_scaled:{!r}".format, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(
        "monomial_exp:{!r},{}".format,
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=6),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    function=_FUNCTIONS,
    x=st.floats(allow_nan=False, allow_infinity=False),
    # any ratio, or one just above 1, where --cutoff asks for a long plan
    r=st.one_of(st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
                st.builds(lambda k: 1.0 + 2.0**-k, st.integers(min_value=1, max_value=52))),
    base=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=4,
                  unique=True),
    truncation=st.one_of(
        st.tuples(st.just("--n-max"), st.integers(min_value=0, max_value=1200)),
        st.tuples(st.just("--cutoff"), st.integers(min_value=0, max_value=10**6)),
    ),
    fmt=st.sampled_from(["json", "csv"]),
)
@example(function="cos", x=1.0, r=1.000000000001, base=[1], truncation=("--cutoff", 32),
         fmt="json")
@example(function="cos", x=1.0, r=2.0, base=list(range(1, 41)), truncation=("--n-max", 40),
         fmt="json")
def test_estimate_exits_with_documented_code(function, x, r, base, truncation, fmt):
    argv = ["estimate", "--function", function, f"--x={x!r}", f"--r={r!r}",
            *map(str, truncation), "--base", ",".join(map(str, base)), "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        _assert_finite_output(out.getvalue(), fmt)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_finite_output(text, fmt):
    """JSON that parses with no NaN or Infinity, or CSV with no such cell."""
    if fmt == "json":
        json.loads(text, parse_constant=_reject_constant)
    else:
        cells = text.replace("\n", ",").split(",")
        assert not {cell.lstrip("+-").lower() for cell in cells} & {"nan", "inf", "infinity"}


# Any float, with inf, -inf and nan drawn often; or one in a part's usual range.
_ANY_FLOAT = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]), st.floats())


def _float_or(usual):
    return st.one_of(usual, _ANY_FLOAT)


@settings(max_examples=100, deadline=None)
@given(
    function=st.one_of(
        st.sampled_from(["one", "cos", "half_sin_shifted"]),
        st.builds("exp_scaled:{!r}".format, _float_or(st.floats(-10.0, 10.0))),
        st.builds("monomial_exp:{!r},{}".format, _float_or(st.floats(-10.0, 10.0)),
                  st.integers(1, 6)),
    ),
    start=_float_or(st.floats(-4.0, 4.0)),
    step=_float_or(st.floats(0.01, 1.0)),
    # stop = start + points * step keeps a finite grid at about 11 points;
    # a drawn non-finite stop replaces it
    points=st.integers(min_value=0, max_value=10),
    stop=st.one_of(st.none(), st.sampled_from([math.inf, -math.inf, math.nan])),
    schedule=st.lists(_float_or(st.floats(1.0, 1e6, exclude_min=True)), min_size=1,
                      max_size=3),
    base=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=3,
                  unique=True),
    truncation=st.one_of(
        st.tuples(st.just("--n-max"), st.integers(min_value=-3, max_value=60)),
        st.tuples(st.just("--cutoff"), st.integers(min_value=-3, max_value=10**6)),
    ),
)
# exp(1e300 * 1e20) is inf without an OverflowError; an infinite ratio; a
# fixed n_max below |base|
@example(function="exp_scaled:1e300", start=1e20, step=1.0, points=0, stop=None,
         schedule=[2.0], base=[1], truncation=("--n-max", 1))
@example(function="cos", start=0.0, step=0.5, points=2, stop=None, schedule=[math.inf],
         base=[1], truncation=("--n-max", 1))
@example(function="cos", start=0.0, step=0.5, points=2, stop=None, schedule=[2.0],
         base=[1], truncation=("--n-max", -3))
def test_sweep_json_exits_with_documented_code(
    function, start, step, points, stop, schedule, base, truncation
):
    if stop is None:
        stop = start + points * step
    argv = ["sweep", "--function", function, f"--grid={start!r}:{stop!r}:{step!r}",
            "--schedule=" + ",".join(map(repr, schedule)), *map(str, truncation),
            "--base", ",".join(map(str, base)), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


_BASES = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3, unique=True)
# Any finite x, with both zeros drawn often; passed space-separated, as users do.
_XS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


def _join(base):
    return ",".join(map(str, base))


@st.composite
def _component_argv(draw):
    base = draw(_BASES)
    return ["component", "--function", draw(_FUNCTIONS),
            "--k", str(draw(st.sampled_from([*base, 0]))),
            "--x", repr(draw(st.one_of(_XS, st.floats(-3.0, 3.0)))),
            f"--r={draw(_float_or(st.floats(1.0, 4.0, exclude_min=True)))!r}",
            "--n-max", str(draw(st.integers(0, 60))), "--base", _join(base)]


@st.composite
def _euler_argv(draw):
    return ["euler", "--x", repr(draw(_XS)), "--n", str(draw(st.integers(-1, 3000)))]


@st.composite
def _count_factors_argv(draw):
    base = draw(st.lists(st.integers(1, 3000), min_size=1, max_size=6, unique=True))
    return ["count-factors", "--base", _join(base), "--n-max",
            str(draw(st.integers(-1, 10**6))), "--parity", draw(st.sampled_from(["all", "even"]))]


@st.composite
def _forecast_argv(draw):
    # "{csv}" stands for the drawn series, written under tmp_path
    base = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    return ["forecast", "--csv", "{csv}",
            "--normalize", draw(st.sampled_from(
                ["divide_by_first", "none", "affine:0,1", "affine:-1,2", "affine:1,0"])),
            "--x", repr(draw(st.one_of(_XS, st.floats(-20.0, 20.0), st.floats(0.0, 2.0)))),
            "--r", repr(draw(st.floats(1.1, 4.0))),
            draw(st.sampled_from(["--n-max", "--cutoff"])), str(draw(st.integers(0, 30))),
            "--base", _join(base)]


_RAMP = [(0.25 * i, 1.0 + 0.1 * i) for i in range(12)]


def _csv(rows, header=False, quote=False, blank_every=0):
    """rows as forecast CSV text: an optional `t,value` header, every cell
    in double quotes if quote, and a blank line after every blank_every rows."""
    q = '"' if quote else ""
    lines = ["t,value\n"] if header else []
    for i, (t, v) in enumerate(rows, start=1):
        lines.append(f"{q}{t!r}{q},{q}{v!r}{q}\n")
        if blank_every and i % blank_every == 0:
            lines.append("\n")
    return "".join(lines)


def _wave(rows, t0, step, amplitude):
    """A long series from a few numbers: 1 + amplitude*sin at `rows` times
    t0, t0 + step, ...; non-positive somewhere once amplitude exceeds 1."""
    return [(t0 + i * step, 1.0 + amplitude * math.sin(i * step)) for i in range(rows)]


@st.composite
def _series_csv(draw):
    # a long smooth series, a short well-formed positive one, or a few arbitrary rows
    rows = draw(st.one_of(
        st.builds(_wave, st.integers(4, 8001), st.floats(-100.0, 100.0),
                  st.floats(1e-3, 2.0), st.floats(0.0, 2.0)),
        st.builds(lambda step, values: [(i * step, v) for i, v in enumerate(values)],
                  st.floats(0.25, 2.0), st.lists(st.floats(0.1, 10.0), min_size=4, max_size=20)),
        st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), max_size=6),
    ))
    return _csv(rows, draw(st.booleans()), draw(st.booleans()),
                draw(st.sampled_from([0, 1, 3, 1000])))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    argv=st.one_of(_component_argv(), _euler_argv(), _count_factors_argv(), _forecast_argv()),
    fmt=st.sampled_from(["json", "csv"]),
    series=_series_csv(),
)
# x = 0 has no finite largest feasible horizon; a first sample point of inf
@example(argv=["forecast", "--csv", "{csv}", "--x", "0", "--r", "2", "--n-max", "4",
               "--base", "1"], fmt="json", series=_csv(_RAMP))
@example(argv=["forecast", "--csv", "{csv}", "--x", "-0.0", "--r", "2", "--n-max", "4",
               "--base", "1"], fmt="csv", series=_csv(_RAMP))
# a subnormal horizon whose every sample rounds to 0.0
@example(argv=["forecast", "--csv", "{csv}", "--x", "5e-324", "--r", "2", "--n-max", "10",
               "--base", "1"], fmt="json", series=_csv(_RAMP))
@example(argv=["component", "--function", "cos", "--k", "1", "--x", "1e308", "--r", "1e6",
               "--n-max", "1", "--base", "1"], fmt="json", series="")
# the longest series, with every layout option
@example(argv=["forecast", "--csv", "{csv}", "--x", "1", "--r", "2", "--n-max", "40",
               "--base", "1,2,3,4"], fmt="json",
         series=_csv(_wave(8001, -3.0, 1e-3, 0.5), header=True, quote=True, blank_every=3))
def test_other_commands_print_finite_output(tmp_path, argv, fmt, series):
    path = tmp_path / "series.csv"
    path.write_text(series, encoding="utf-8")
    argv = [str(path) if arg == "{csv}" else arg for arg in argv] + ["--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3, 4)
    _assert_finite_output(out.getvalue(), fmt)
