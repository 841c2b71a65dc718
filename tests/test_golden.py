"""Byte-for-byte golden outputs of the CLI.

Each case runs one argv through `cli.run` and compares what it writes
(stdout, or the `--output` file) with a file under tests/data/golden/.
The cases are the six README examples, the default-schedule sweep the
benchmark runs, a sweep whose schedule reaches r = 1e300, where x = 0
must still give an `ok` row, and the Fig-2 grid as a sweep: a builtin at
r = 2 with 1 in the base, where subsets share sample sequences. The
huge-ratio sweep as JSON (null cells, error statuses) and the forecast as
CSV pin the two outputs built from a record's fields by name. In
sign_even_weight.json the {2,4} subset has negative samples at weights 1
and 2, so its sign of -1 holds only if the even weight is not counted. In
sign_merged_record.json (x = 7, r = 2, base {1,2}) the batch gives up: the
{1} sequence has two negative samples at weight 1, and the {2},{1,2}
sequence, which the two subsets share, one at its merged weight 0, so its
sign of +1 holds only if that zero weight does not count. In
forecast_r15.json (r = 1.5, base {1,2,3}) the farthest sample, 3.9599, lies
in the signal's last interval, so the interpolant's end slope at t = 4 is
evaluated. A speed change must leave all of them identical.

The files were captured once, from the code before the per-configuration
sampling plan existed; fig2_sweep.csv from the code before an estimate
became one pass over its plan; sweep_huge_ratio.json and
readme_forecast.csv from the code before the records became named tuples;
sign_even_weight.json from the code before the sign rule took each weight's
parity from Lucas's theorem; forecast_r15.json from the code before the
interpolant ran one loop per geometric sequence; sign_merged_record.json
from the code before the sign rule read each weight's parity from the
plan's odd mask. fig2_sweep.csv,
forecast_r15.json, readme_forecast.csv and .json, readme_sweep.csv,
sweep_default_schedule.csv and sweep_huge_ratio.csv and .json were
captured again when an estimate became one math.fsum over signed weights
instead of one per subset and one over the subsets: only float digits
moved, no status or count, and the other goldens stayed identical.
fig2_sweep.csv and readme_forecast.csv and .json were captured again
when each geometric sequence's subsets were merged into one weight per
sample point: only float digits moved (39, 1 and 3 lines), and the other
goldens stayed identical. Regenerate them only for an intended output
change; the script needs no pytest, and prints each file it changes with
its count of changed lines:

    PYTHONPATH=src python tests/test_golden.py

With --check it writes nothing, names each golden that differs, and exits 1
if any does.

ERROR_CASES are argvs that fail, one per non-zero exit code, each with
`--format json`: the entry point must exit with that code and print one
JSON error record on stdout. They run through `python -m geomprod.cli`,
so main() itself runs, not only cli.run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import geomprod
from geomprod.cli import run

GOLDEN = Path(__file__).parent / "data" / "golden"

# name -> argv; "{csv}" is the forecast input written by write_signal and
# "{out}" an output file whose content is the captured result.
CASES = {
    "readme_estimate.json": (
        "estimate", "--function", "cos", "--x", "1.0", "--r", "sqrt:2", "--n-max", "10",
        "--base", "2,4", "--parity", "even",
    ),
    "readme_component.json": (
        "component", "--function", "cos", "--k", "2", "--x", "1.0", "--r", "1.05",
        "--cutoff", "32", "--base", "2,4",
    ),
    "readme_euler.json": ("euler", "--x", "1.5707963", "--n", "40"),
    "readme_sweep.csv": (
        "sweep", "--function", "cos", "--grid", "0:1.5:0.05", "--schedule", "sqrt:2",
        "--n-max", "10", "--base", "2,4", "--parity", "even", "--output", "{out}",
    ),
    "readme_count_factors.csv": ("count-factors", "--base", "1,2,3,4", "--n-max", "40"),
    "readme_forecast.json": (
        "forecast", "--csv", "{csv}", "--normalize", "divide_by_first", "--x", "3.0",
        "--r", "2", "--n-max", "40", "--base", "1,2,3,4",
    ),
    "sweep_default_schedule.csv": (
        "sweep", "--function", "cos", "--grid", "0:3:0.05", "--cutoff", "32",
        "--base", "2,4", "--parity", "even", "--output", "{out}",
    ),
    "fig2_sweep.csv": (
        "sweep", "--function", "half_sin_shifted", "--grid", "0:4:0.05", "--schedule", "2",
        "--n-max", "40", "--base", "1,2,3,4",
    ),
    "sweep_huge_ratio.csv": (
        "sweep", "--function", "exp_scaled:800", "--grid", "0:1:0.5",
        "--schedule", "1.5,2,1e300", "--n-max", "10", "--base", "1,2",
    ),
    "sweep_huge_ratio.json": (
        "sweep", "--function", "exp_scaled:800", "--grid", "0:1:0.5",
        "--schedule", "1.5,2,1e300", "--n-max", "10", "--base", "1,2", "--format", "json",
    ),
    "readme_forecast.csv": (
        "forecast", "--csv", "{csv}", "--normalize", "divide_by_first", "--x", "3.0",
        "--r", "2", "--n-max", "40", "--base", "1,2,3,4", "--format", "csv",
    ),
    "sign_even_weight.json": (
        "estimate", "--function", "cos", "--x", "3.5", "--r", "1.5", "--n-max", "12",
        "--base", "2,4", "--parity", "even",
    ),
    "forecast_r15.json": (
        "forecast", "--csv", "{csv}", "--x", "4.452", "--r", "1.5", "--n-max", "24",
        "--base", "1,2,3",
    ),
    "sign_merged_record.json": (
        "estimate", "--function", "cos", "--x", "7", "--r", "2", "--n-max", "20",
        "--base", "1,2",
    ),
}


# name -> (exit code, argv); "{csv}" as in CASES.
ERROR_CASES = {
    "usage_ratio_below_one": (2, (
        "estimate", "--function", "cos", "--x", "1.0", "--r", "0.5", "--n-max", "10",
        "--base", "2,4", "--format", "json",
    )),
    "domain_past_horizon": (3, (
        "forecast", "--csv", "{csv}", "--x", "40", "--r", "2", "--n-max", "40",
        "--base", "1,2,3,4", "--format", "json",
    )),
    "io_missing_csv": (4, (
        "forecast", "--csv", "{csv}.missing", "--x", "3.0", "--r", "2", "--n-max", "40",
        "--base", "1,2,3,4", "--format", "json",
    )),
}


def is_error_record(stdout: str) -> bool:
    """Whether stdout is exactly one JSON error record, on one line."""
    try:
        record = json.loads(stdout)
    except ValueError:
        return False
    return (stdout.count("\n") == 1 and stdout.endswith("\n") and list(record) == ["error"]
            and sorted(record["error"]) == ["message", "type"])


def signal_lines() -> list[str]:
    """A `t,value` header and 81 rows of 2 + sin(t) on [0, 4];
    divide_by_first scales them to 1 at t = 0."""
    lines = ["t,value"]
    for i in range(81):
        t = 0.05 * i
        lines.append(f"{t!r},{2.0 + math.sin(t)!r}")
    return lines


def write_signal(path: Path) -> None:
    """The forecast input: signal_lines, one per line."""
    path.write_text("\n".join(signal_lines()) + "\n", encoding="utf-8")


# The same series in the other shapes a CSV file takes. The first three are
# read by the csv module, the last three by the plain parse (after the one
# leading byte order mark is dropped); every one must give the forecast golden.
CSV_FORMS = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "quoted": lambda lines: "".join('"' + line.replace(",", '","') + '"\n' for line in lines),
    "blank_line": lambda lines: "\n".join(lines[:41] + [""] + lines[41:]) + "\n",
    "no_header": lambda lines: "\n".join(lines[1:]) + "\n",
    "bom_no_header": lambda lines: "\ufeff" + "\n".join(lines[1:]) + "\n",
    "unsorted": lambda lines: "\n".join(lines[:1] + lines[:0:-1]) + "\n",
}


def render(name: str, workdir: Path) -> str:
    """What the case's argv writes: its stdout, or its --output file."""
    csv_path = workdir / "signal.csv"
    out_path = workdir / "out"
    write_signal(csv_path)
    argv = [a.format(csv=csv_path, out=out_path) for a in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(argv)
    assert code == 0, f"{name}: exit {code}"
    if "{out}" in CASES[name]:
        assert stdout.getvalue() == ""
        return out_path.read_text(encoding="utf-8")
    return stdout.getvalue()


def pytest_generate_tests(metafunc):
    """Each test runs once per golden case (name) or CSV form (form); a
    hook, not pytest.mark, so that the script runs without pytest."""
    for arg, cases in (("name", CASES), ("form", CSV_FORMS), ("error", ERROR_CASES)):
        if arg in metafunc.fixturenames:
            metafunc.parametrize(arg, sorted(cases))


def test_output_matches_golden(name, tmp_path):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert render(name, tmp_path) == want


def test_forecast_csv_forms_match_golden(form, tmp_path):
    csv_path = tmp_path / "signal.csv"
    csv_path.write_bytes(CSV_FORMS[form](signal_lines()).encode("utf-8"))
    argv = [a.format(csv=csv_path) for a in CASES["readme_forecast.json"]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run(argv) == 0
    assert stdout.getvalue() == (GOLDEN / "readme_forecast.json").read_text(encoding="utf-8")


def test_entry_point_error_exit(error, tmp_path):
    code, argv = ERROR_CASES[error]
    write_signal(tmp_path / "signal.csv")
    env = dict(os.environ, PYTHONPATH=str(Path(geomprod.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "geomprod.cli", *(a.format(csv=tmp_path / "signal.csv") for a in argv)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert is_error_record(proc.stdout), proc.stdout


def main(argv: list[str]) -> int:
    """Re-capture every golden that differs, printing each file written
    with its count of changed lines; with --check, write nothing, print
    each golden that differs and return 1 if any does."""
    import itertools
    import tempfile

    check = argv == ["--check"]
    if argv and not check:
        print("usage: test_golden.py [--check]", file=sys.stderr)
        return 2
    GOLDEN.mkdir(parents=True, exist_ok=True)
    differ = 0
    for case in sorted(CASES):
        path = GOLDEN / case
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        with tempfile.TemporaryDirectory() as tmp:
            text = render(case, Path(tmp))
        if text != old:
            differ += 1
            lines = sum(a != b for a, b in itertools.zip_longest(old.splitlines(), text.splitlines()))
            if not check:
                path.write_text(text, encoding="utf-8")
            print(f"{'differs' if check else 'wrote'} {path}: {lines} changed lines", file=sys.stderr)
    return 1 if check and differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
