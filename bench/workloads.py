"""The three benchmark workloads and the tracing that splits an op by module.

Each workload builds its op inputs at set-up, outside the timed loop, and
gives three things per input: the untraced op, a check of the op's output
against an oracle, and a traced replay. A round is one pass over the inputs
in an order drawn from the seed; the harness runs whole rounds, so per-op
counts from a traced run are exact.

The traced replay runs the op, then calls each module's public functions
directly with the op's arguments, and wraps the function source in a
counting proxy. Nothing inside the package is patched or hooked.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from geomprod import cli, core, signal, sweeps
from geomprod.combinatorics import IndexSet, enumerate_subsets, factor_count
from geomprod.oracle import COS, HALF_SIN_SHIFTED, euler_partial_product, sinc

FIG1 = core.GmpConfig(r=math.sqrt(2.0), n_max=10, base=IndexSet.of(2, 4), parity="even")
FIG2 = core.GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
FIG2_GRID = tuple(0.05 * i for i in range(81))
FIG2_SAMPLES_PER_PASS = 46_640
FIG2_FACTORS = 135_750
TAU_2 = 0.005  # criterion 6

# Per-layer timings, in seconds per op. A layer that makes no call on a
# workload reads the cost of timing an empty block.
TIME_METRICS = (
    "combinatorics.plan_s",
    "core.busy_s",
    "core.self_s",
    "oracle.eval_s",
    "signal.load_s",
    "signal.normalize_s",
    "signal.coverage_s",
    "signal.interp_s",
    "sweeps.grid_eval_s",
    "sweeps.csv_s",
    "cli.run_s",
    "cli.parse_s",
    "cli.self_s",
)
COUNT_METRICS = (
    "combinatorics.subsets",
    "combinatorics.factors",
    "core.samples",
    "oracle.eval_calls",
    "signal.load_rows",
    "signal.load_bytes",
    "signal.interp_calls",
    "sweeps.rows",
    "sweeps.rows_failed",
    "sweeps.csv_bytes",
    "cli.out_bytes",
    "cli.exit_nonzero",
)


class CountingSource:
    """FunctionSource proxy: counts and times every evaluation of the source
    it wraps and passes the call through unchanged."""

    def __init__(self, inner):
        self.inner = inner
        self.log_calls = 0
        self.value_calls = 0
        self.seconds = 0.0

    def __call__(self, x):
        t0 = time.perf_counter()
        v = self.inner(x)
        self.seconds += time.perf_counter() - t0
        self.value_calls += 1
        return v

    def signed_log(self, x):
        t0 = time.perf_counter()
        out = self.inner.signed_log(x)
        self.seconds += time.perf_counter() - t0
        self.log_calls += 1
        return out


def transparent(probe) -> bool:
    """A proxy-wrapped estimate is bit-identical to the unwrapped one, so
    the traced run measures the same program."""
    source, x, cfg = probe
    plain = core.estimate(source, x, cfg)
    wrapped = core.estimate(CountingSource(source), x, cfg)
    return (plain.value, plain.log_value, plain.sign) == (
        wrapped.value, wrapped.log_value, wrapped.sign)


def _nothing():
    return None


class Tracer:
    """Totals of per-layer seconds and counts over a traced run, plus the
    counts of each op, which must repeat exactly for a repeated input."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.ops = 0
        self.op_counts: dict = {}
        self.by_input: dict = {}
        self.mismatches: list[str] = []
        self.op_seen: set[str] = set()
        self.last = 0.0

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.last = time.perf_counter() - t0
        self.add_seconds(name, self.last)
        return out

    def add_seconds(self, name, seconds):
        self.seconds[name] += seconds
        self.op_seen.add(name)

    def count(self, name, n):
        self.counts[name] += n
        self.op_counts[name] = self.op_counts.get(name, 0) + n

    def begin(self):
        self.op_counts = {}
        self.op_seen = set()

    def end(self, key):
        for name in TIME_METRICS:
            if name not in self.op_seen:
                self.call(name, _nothing)
        self.ops += 1
        seen = self.by_input.setdefault(key, self.op_counts)
        if seen != self.op_counts:
            self.mismatches.append(f"input {key!r}: counts {self.op_counts} != {seen}")


def _plan(tr: Tracer, cfg: core.GmpConfig) -> None:
    family = tr.call("combinatorics.plan_s", enumerate_subsets, cfg.base)
    count = tr.call("combinatorics.plan_s", factor_count, cfg.base, cfg.n_max)
    tr.count("combinatorics.subsets", len(family))
    tr.count("combinatorics.factors", count)


def _traced_estimate(tr: Tracer, source, x, cfg, eval_metric: str):
    """estimate() timed as is for core busy time, then replayed on a
    counting proxy of `source` for the samples and their evaluation time
    (under `eval_metric`); core self time is the difference."""
    est = tr.call("core.busy_s", core.estimate, source, x, cfg)
    busy = tr.last
    proxy = CountingSource(source)
    core.estimate(proxy, x, cfg)
    tr.add_seconds("core.self_s", busy - proxy.seconds)
    tr.add_seconds(eval_metric, proxy.seconds)
    tr.count("core.samples", proxy.log_calls)
    _plan(tr, cfg)
    return est, proxy


def _parse(argv):
    return cli.build_parser().parse_args(argv)


class Workload:
    name = ""
    op_metric = ""  # the traced span that is one whole op

    def __init__(self, workdir: str):
        self.inputs: list = []

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[bool, float]:
        """(passed, |output - true value|) for one op's output."""
        raise NotImplementedError

    def traced(self, inp, tr: Tracer):
        raise NotImplementedError

    def probe(self):
        """(source, x, cfg) for the proxy transparency check."""
        raise NotImplementedError

    def check_counts(self, tr: Tracer) -> list[str]:
        """Known exact counts, checked against a traced run."""
        return []


class Fig2Grid(Workload):
    """The paper's Fig. 2: half-sin on the 81-point grid on [0, 4]."""

    name = "fig2_grid"
    op_metric = "core.busy_s"

    def __init__(self, workdir):
        self.inputs = list(FIG2_GRID)

    def run(self, x):
        return core.estimate(HALF_SIN_SHIFTED, x, FIG2)

    def check(self, x, est):
        err = abs(est.value - (1.0 + 0.5 * math.sin(x)))
        return err <= TAU_2, err

    def traced(self, x, tr):
        est, proxy = _traced_estimate(tr, HALF_SIN_SHIFTED, x, FIG2, "oracle.eval_s")
        tr.count("oracle.eval_calls", proxy.log_calls + proxy.value_calls)
        return est

    def probe(self):
        return HALF_SIN_SHIFTED, 2.0, FIG2

    def check_counts(self, tr):
        errors = []
        per_pass = sum(tr.by_input[i]["core.samples"] for i in range(len(self.inputs)))
        if per_pass != FIG2_SAMPLES_PER_PASS:
            errors.append(f"samples per pass {per_pass} != {FIG2_SAMPLES_PER_PASS}")
        if any(c["combinatorics.factors"] != FIG2_FACTORS for c in tr.by_input.values()):
            errors.append(f"factors per op != {FIG2_FACTORS}")
        return errors


@dataclass(frozen=True)
class SinusoidSignal:
    """1 + sum a_i sin(w_i t): positive, exactly 1 at t = 0, known in closed
    form. The analytic FunctionSource the forecasts are checked against."""

    amps: tuple[float, ...]
    freqs: tuple[float, ...]

    def _wave(self, t):
        return math.fsum(a * math.sin(w * t) for a, w in zip(self.amps, self.freqs))

    def __call__(self, t):
        return 1.0 + self._wave(t)

    def signed_log(self, t):
        return 1, math.log1p(self._wave(t))

    def values(self, ts: np.ndarray) -> np.ndarray:
        return 1.0 + sum(a * np.sin(w * ts) for a, w in zip(self.amps, self.freqs))


# The forecast inputs are fixed, so the worst error of a run does not depend
# on the seed; seeded signals moved it by more than any allowed bound.
FORECAST_SIGNAL = SinusoidSignal(amps=(0.2, 0.1, 0.05), freqs=(0.5, 1.1, 1.7))
FORECAST_ROWS = (81, 801, 8001)
FORECAST_SPAN = 4.0
FORECAST_HORIZONS = (0.5, 0.7, 0.9)  # shares of coverage_check's feasible limit
# (config, --r text, --base text); the first is the paper's Fig. 2.
FORECAST_CONFIGS = (
    (FIG2, "2", "1,2,3,4"),
    (core.GmpConfig(r=1.5, n_max=24, base=IndexSet.of(1, 2, 3)), "1.5", "1,2,3"),
    (core.GmpConfig(r=2.0, n_max=20, base=IndexSet.of(1, 2)), "2", "1,2"),
)


def sample_points(cfg: core.GmpConfig, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Every point a nonzero-x estimate samples, and its weight
    binom(n-1, |S|-1), built from the paper's formulas without the package."""
    points, weights = [], []
    for m in range(1, len(cfg.base) + 1):
        for subset in itertools.combinations(cfg.base.elements, m):
            coeff = math.prod((cfg.r**k - 1.0) ** (1.0 / k) for k in subset)
            for n in range(m, cfg.n_max + 1):
                points.append(coeff * x / cfg.r**n)
                weights.append(math.comb(n - 1, m - 1))
    return np.array(points), np.array(weights, dtype=float)


def forecast_tolerance(interp, f: SinusoidSignal, cfg, x: float, reference: float) -> float:
    """The interpolation error the estimate sees, as a bound on |forecast -
    reference|.

    The estimate is exp(sum of +-w * log f(t)) over its sample points, so
    swapping f for its interpolant p moves the log by at most
    E = sum w |log p(t) - log f(t)|, and the value by at most
    |reference| * expm1(E). Four rounding terms u * sum w |log f(t)| cover
    the two accumulations. Criterion 10's rule, 10 x the largest
    interpolation error on a dense grid, is not used: it misses the error
    near t = 0, where most weight sits, and failed a third of the ops.
    """
    points, weights = sample_points(cfg, x)
    log_f = np.log(f.values(points))
    spread = float(np.sum(weights * np.abs(np.log(interp(points)) - log_f)))
    rounding = 2.0**-52 * float(np.sum(weights * np.abs(log_f)))
    return abs(reference) * (math.expm1(spread) + 4.0 * rounding)


@dataclass(frozen=True)
class ForecastInput:
    rows: int
    cfg: core.GmpConfig
    x: float
    argv: tuple[str, ...]
    reference: float  # core.estimate on the analytic signal
    tolerance: float
    truth: float


class ForecastCli(Workload):
    """One `geomprod forecast` call per op on a CSV of FORECAST_SIGNAL."""

    name = "forecast_cli"
    op_metric = "cli.run_s"

    def __init__(self, workdir):
        f = FORECAST_SIGNAL
        self.out_path = os.path.join(workdir, "forecast.json")
        self.inputs = []
        for i, rows in enumerate(FORECAST_ROWS):
            path = os.path.join(workdir, f"signal_{rows}.csv")
            ts = [FORECAST_SPAN * k / (rows - 1) for k in range(rows)]
            vs = [f(t) for t in ts]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("t,value\n")
                fh.writelines(f"{t!r},{v!r}\n" for t, v in zip(ts, vs))
            interp = PchipInterpolator(np.array(ts), np.array(vs))
            sig = signal.normalize(signal.load_csv(path))
            for j, (cfg, r_text, base_text) in enumerate(FORECAST_CONFIGS):
                share = FORECAST_HORIZONS[(i + j) % len(FORECAST_HORIZONS)]
                x = share * signal.coverage_check(sig, cfg, 1.0).max_feasible_x
                reference = core.estimate(f, x, cfg).value
                argv = (
                    "forecast", "--csv", path, "--x", repr(x), "--r", r_text,
                    "--n-max", str(cfg.n_max), "--base", base_text,
                    "--output", self.out_path,
                )
                self.inputs.append(ForecastInput(
                    rows=rows,
                    cfg=cfg,
                    x=x,
                    argv=argv,
                    reference=reference,
                    tolerance=forecast_tolerance(interp, f, cfg, x, reference),
                    truth=f(x),
                ))

    def run(self, inp):
        return cli.run(list(inp.argv))

    def check(self, inp, code):
        if code != 0:
            return False, math.inf
        with open(self.out_path, encoding="utf-8") as fh:
            value = json.load(fh)["raw_value"]
        ok = abs(value - inp.reference) <= inp.tolerance
        return ok, abs(value - inp.truth)

    def traced(self, inp, tr):
        argv = list(inp.argv)
        code = tr.call("cli.run_s", cli.run, argv)
        run_s = tr.last
        tr.count("cli.exit_nonzero", int(code != 0))
        tr.count("cli.out_bytes", os.path.getsize(self.out_path))
        args = tr.call("cli.parse_s", _parse, argv)
        lib_s = tr.last
        raw = tr.call("signal.load_s", signal.load_csv, args.csv_path)
        lib_s += tr.last
        tr.count("signal.load_rows", len(raw))
        tr.count("signal.load_bytes", os.path.getsize(args.csv_path))
        sig = tr.call("signal.normalize_s", signal.normalize, raw)
        lib_s += tr.last
        cfg = core.GmpConfig(r=args.r, n_max=args.n_max, base=args.base, parity=args.parity)
        t0 = time.perf_counter()
        signal.forecast(sig, args.x, cfg)
        lib_s += time.perf_counter() - t0
        tr.add_seconds("cli.self_s", run_s - lib_s)
        tr.call("signal.coverage_s", signal.coverage_check, sig, cfg, args.x)
        _, proxy = _traced_estimate(tr, sig, args.x, cfg, "signal.interp_s")
        tr.count("signal.interp_calls", proxy.log_calls + proxy.value_calls)
        return code

    def probe(self):
        inp = self.inputs[0]
        return signal.normalize(signal.load_csv(inp.argv[2])), inp.x, inp.cfg

    def check_counts(self, tr):
        errors = []
        for i, inp in enumerate(self.inputs):
            counts = tr.by_input[i]
            want = len(sample_points(inp.cfg, inp.x)[0])
            if counts["signal.interp_calls"] != want:
                errors.append(f"input {i}: interp calls {counts['signal.interp_calls']} != {want}")
            if counts["signal.load_rows"] != inp.rows:
                errors.append(f"input {i}: rows {counts['signal.load_rows']} != {inp.rows}")
        return errors


SWEEP_BASE = IndexSet.of(2, 4)
SWEEP_CUTOFF = 32
SWEEP_ROWS = 488
SWEEP_SAMPLES = 320_820
SWEEP_LOG_TOL = 1e-12


class SweepCli(Workload):
    """One default-schedule `geomprod sweep` of cos on the Fig-1 grid per op.
    The input is fixed; the seed has nothing to vary."""

    name = "sweep_cli"
    op_metric = "cli.run_s"

    def __init__(self, workdir):
        self.out_path = os.path.join(workdir, "sweep.csv")
        self.inputs = [(
            "sweep", "--function", "cos", "--grid", "0:3:0.05", "--cutoff", str(SWEEP_CUTOFF),
            "--base", "2,4", "--parity", "even", "--output", self.out_path,
        )]
        # Expected rows, built here without the sweeps module: the grid is
        # start + i*step and the schedule 1 + 2^-t, t = 1..8.
        self.expected = []
        for i in range(61):
            x = 0.0 + i * 0.05
            for t in range(1, 9):
                r = 1.0 + 2.0**-t
                n_max = max(math.ceil(math.log(SWEEP_CUTOFF) / math.log(r)), len(SWEEP_BASE))
                cfg = core.GmpConfig(r=r, n_max=n_max, base=SWEEP_BASE, parity="even")
                est = core.estimate(COS, x, cfg)
                self.expected.append((x, r, n_max, est.sign, est.log_value))

    def run(self, argv):
        return cli.run(list(argv))

    def check(self, argv, code):
        if code != 0:
            return False, math.inf
        with open(self.out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != sweeps.CSV_HEADER or len(lines) - 1 != SWEEP_ROWS:
            return False, math.inf
        ok = True
        worst = 0.0
        for line, (x, r, n_max, sign, log_value) in zip(lines[1:], self.expected):
            fx, fr, fn, fest, _, _, _, status = line.split(",")
            est = float(fest)
            ok = ok and status == "ok" and float(fx) == x and float(fr) == r
            ok = ok and int(fn) == n_max and (est > 0) == (sign > 0)
            ok = ok and abs(math.log(abs(est)) - log_value) <= SWEEP_LOG_TOL
            worst = max(worst, abs(est - math.cos(x)))
        return ok, worst

    def traced(self, argv, tr):
        argv = list(argv)
        code = tr.call("cli.run_s", cli.run, argv)
        run_s = tr.last
        tr.count("cli.exit_nonzero", int(code != 0))
        tr.count("cli.out_bytes", os.path.getsize(self.out_path))
        args = tr.call("cli.parse_s", _parse, argv)
        lib_s = tr.last
        spec = sweeps.SweepSpec(
            function=args.function,
            grid=(0.0, 3.0, 0.05),
            schedule=sweeps.DEFAULT_SCHEDULE,
            coupling="fixed_cutoff",
            coupling_value=args.cutoff,
            base=args.base,
            parity=args.parity,
        )
        rows = tr.call("sweeps.grid_eval_s", sweeps.grid_eval, spec)
        lib_s += tr.last
        text = tr.call("sweeps.csv_s", sweeps.rows_to_csv, rows)
        lib_s += tr.last
        tr.add_seconds("cli.self_s", run_s - lib_s)
        tr.count("sweeps.rows", len(rows))
        tr.count("sweeps.rows_failed", sum(row.status != "ok" for row in rows))
        tr.count("sweeps.csv_bytes", len(text.encode()))
        calls = 0
        for row in rows:
            cfg = core.GmpConfig(r=row.r, n_max=row.n_max, base=spec.base, parity=spec.parity)
            _, proxy = _traced_estimate(tr, spec.function, row.x, cfg, "oracle.eval_s")
            before = proxy.seconds
            proxy(row.x)  # the row's reference value
            tr.add_seconds("oracle.eval_s", proxy.seconds - before)
            calls += proxy.log_calls + proxy.value_calls
        tr.count("oracle.eval_calls", calls)
        return code

    def probe(self):
        x, r, n_max, _, _ = self.expected[-1]
        return COS, x, core.GmpConfig(r=r, n_max=n_max, base=SWEEP_BASE, parity="even")

    def check_counts(self, tr):
        counts = tr.by_input[0]
        errors = []
        if counts["core.samples"] != SWEEP_SAMPLES:
            errors.append(f"samples {counts['core.samples']} != {SWEEP_SAMPLES}")
        if counts["sweeps.rows"] != SWEEP_ROWS:
            errors.append(f"rows {counts['sweeps.rows']} != {SWEEP_ROWS}")
        return errors


WORKLOADS = {w.name: w for w in (Fig2Grid, ForecastCli, SweepCli)}


def gate_headroom(repeats: int = 5) -> dict:
    """Median seconds of the calls acceptance criteria 1, 5, 6 and 9 time,
    and the share of each criterion's wall-clock bound left over.
    Information only: the bounds belong to the tests."""

    def crit1():
        xs = [0.5, 1.0, math.pi / 2, 2.0, 3.0]
        return max(abs(euler_partial_product(x, 40) - sinc(x)) for x in xs)

    def crit5():
        return max(abs(core.estimate(COS, 0.05 * i, FIG1).value - math.cos(0.05 * i))
                   for i in range(61))

    def crit6():
        worst = max(abs(core.estimate(HALF_SIN_SHIFTED, x, FIG2).value - (1.0 + 0.5 * math.sin(x)))
                    for x in FIG2_GRID)
        return worst, factor_count(FIG2.base, FIG2.n_max)

    def crit9():
        schedule = [1 + 2.0**-t for t in range(1, 13)]
        high = [core.pollution_exponent(4, 2, r) for r in schedule]
        low = [core.pollution_exponent(1, 2, r) for r in schedule]
        return high, low

    out = {}
    for number, fn, bound in ((1, crit1, 1e-3), (5, crit5, 0.1), (6, crit6, 5.0), (9, crit9, 1e-3)):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        median = statistics.median(times)
        out[f"criterion_{number}"] = {
            "bound_s": bound,
            "median_s": median,
            "headroom_frac": 1.0 - median / bound,
        }
    return out
