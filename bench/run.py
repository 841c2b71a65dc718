"""geomprod benchmark.

    python3 bench/run.py --workload fig2_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 2

Runs one workload closed-loop, one op at a time, in this process, and prints
each metric by name with its unit. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run. --workload all runs every workload in its
own process and exits non-zero if any check fails. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BATCH_SECONDS = 0.05  # op time between two runs of the reference loop
REF_SHARE = 0.1  # reference-loop time at a batch boundary, as a share of the batch
SETUP_RUNS = 11  # fresh interpreters timed per run; one more warms the caches
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
TAIL_WINDOW = 100  # ops per window of the windowed tail

_SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.interpolate
t2 = time.perf_counter()
import geomprod
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def measure_setup() -> list[list[float]]:
    """[numpy, scipy, geomprod] import seconds from fresh interpreters,
    imported in that order; the first interpreter is discarded."""
    out = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        if i:
            out.append(json.loads(proc.stdout))
    return out


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Run:
    """Per-op timings of one closed-loop run, raw and in reference units.

    The reference loop runs between batches of at least BATCH_SECONDS of
    ops, enough times to take about REF_SHARE of the batch's time, and the
    median of those runs is that boundary's reference time. Each op's time
    is divided by the mean of the reference times at the two boundaries
    around its batch. A single run of the loop next to a 0.5 s sweep op
    sampled too little of it: sweep_cli's median op time spread 0.07.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.worst_err = 0.0
        self.errors: list[str] = []


def measure(wl, op, rng: random.Random, budget: float, reference_loop) -> Run:
    run = Run()
    pending: list[float] = []
    prev_ref = timed(reference_loop)
    run.refs.append(prev_ref)

    def flush():
        nonlocal prev_ref, pending
        runs = max(1, math.ceil(REF_SHARE * sum(pending) / prev_ref))
        ref = statistics.median(timed(reference_loop) for _ in range(runs))
        run.refs.append(ref)
        scale = 0.5 * (prev_ref + ref)
        run.norm.extend(t / scale for t in pending)
        prev_ref, pending = ref, []

    start = time.perf_counter()
    while True:
        order = list(range(len(wl.inputs)))
        rng.shuffle(order)
        for i in order:
            inp = wl.inputs[i]
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op(i, inp)
            except Exception as e:  # an op that raises counts as failed
                out = e
            dt = time.perf_counter() - t0
            run.raw.append(dt)
            pending.append(dt)
            try:
                if isinstance(out, Exception):
                    raise out
                ok, err = wl.check(inp, out)
                why = "output outside its oracle tolerance"
            except Exception as e:
                ok, err, why = False, math.inf, f"{type(e).__name__}: {e}"
            if not ok:
                run.failed += 1
                if len(run.errors) < 5:
                    run.errors.append(f"op {i}: {why}")
            if math.isfinite(err):
                run.worst_err = max(run.worst_err, err)
            if sum(pending) >= BATCH_SECONDS:
                flush()
        if time.perf_counter() - start >= budget:
            break
    if pending:
        flush()
    return run


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND values beyond it; the maximum when there are too few."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def windowed_tail(values: list[float]) -> tuple[float, float, int]:
    """tail() of each consecutive window of at least TAIL_WINDOW ops, and
    the medians of the values and of the percentiles, with the window count.

    One tail over a whole 20 s fig2_grid run (30,000 ops, p99.97) is set by
    a few host hiccups and spread 0.55 between runs; the median of the
    windows' tails (p90) spread 0.05 to 0.07 over ten.
    """
    k = max(1, len(values) // TAIL_WINDOW)
    size = len(values) // k
    tails = [tail(values[i * size:(i + 1) * size]) for i in range(k)]
    return (statistics.median(v for v, _ in tails),
            statistics.median(p for _, p in tails), k)


def end_to_end(run: Run, setup: list[list[float]]) -> dict:
    p50 = statistics.median(run.norm)
    tail_value, _, _ = windowed_tail(run.norm)
    return {
        "latency_p50": (p50, "ref"),
        "latency_tail": (tail_value, "ref"),
        "throughput": (len(run.norm) / sum(run.norm), "1/ref"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "frac"),
        "max_abs_err": (run.worst_err, "abs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(sum(s) for s in setup), "s"),
    }


def per_layer(wl, tr, untraced: Run, traced: Run, setup: list[list[float]]) -> dict:
    from workloads import COUNT_METRICS, TIME_METRICS

    ops = tr.ops
    op_s = tr.seconds[wl.op_metric]
    out = {}
    for name in TIME_METRICS:
        out[name] = (tr.seconds[name] / ops, "s")
        out[name[:-2] + "_share"] = (tr.seconds[name] / op_s, "frac")
    for name in COUNT_METRICS:
        out[name] = (tr.counts[name] / ops, "count")
    out["core.ns_per_sample"] = (1e9 * tr.seconds["core.self_s"] / tr.counts["core.samples"], "ns")
    total = statistics.median(sum(s) for s in setup)
    for i, lib in enumerate(("numpy", "scipy", "geomprod")):
        value = statistics.median(s[i] for s in setup)
        out[f"setup.{lib}_s"] = (value, "s")
        out[f"setup.{lib}_share"] = (value / total, "frac")
    per_op_traced = sum(traced.norm) / len(traced.norm)
    per_op_plain = sum(untraced.norm) / len(untraced.norm)
    out["trace.overhead_frac"] = (per_op_traced / per_op_plain - 1.0, "frac")
    return out


def run_workload(args) -> int:
    import numpy
    import scipy

    import workloads
    from reference import reference_loop

    setup = measure_setup()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        rng = random.Random(args.seed)
        plain_op = lambda i, inp: wl.run(inp)  # noqa: E731
        measure(wl, plain_op, rng, 0.0, reference_loop)  # warm-up round
        gc.collect()
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(wl, plain_op, rng, budget, reference_loop)
        errors = list(untraced.errors)
        runs = [untraced]
        if args.trace:
            if not workloads.transparent(wl.probe()):
                errors.append("proxy-wrapped estimate differs from the unwrapped one")
            tr = workloads.Tracer()

            def traced_op(i, inp):
                tr.begin()
                out = wl.traced(inp, tr)
                tr.end(i)
                return out

            gc.collect()
            traced = measure(wl, traced_op, rng, budget, reference_loop)
            runs.append(traced)
            errors += traced.errors + tr.mismatches + wl.check_counts(tr)
            metrics = per_layer(wl, tr, untraced, traced, setup)
        else:
            metrics = end_to_end(untraced, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    tail_raw, tail_pct, windows = windowed_tail(untraced.raw)
    whole_tail, whole_pct = tail(untraced.norm)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "ops": len(untraced.norm),
        "traced_ops": tr.ops if args.trace else 0,
        "fail_frac": untraced.failed / untraced.attempted,
        "latency_tail_pct": tail_pct,
        "tail_windows": windows,
        "whole_run_tail": {"value": whole_tail, "unit": "ref", "pct": whole_pct},
        "reference_s": {
            "median": statistics.median(untraced.refs),
            "min": min(untraced.refs),
            "max": max(untraced.refs),
        },
        "raw": {
            "latency_p50_s": statistics.median(untraced.raw),
            "latency_tail_s": tail_raw,
            "throughput_per_s": len(untraced.raw) / sum(untraced.raw),
            "setup_runs_s": [sum(s) for s in setup],
        },
    }
    if not args.trace:
        info["gate_headroom"] = workloads.gate_headroom()
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13} {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({"info": info}))
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; every metric, then one summary."""
    import workloads

    correct = True
    attempted = failed = 0
    metrics = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig2_grid", "forecast_cli", "sweep_cli", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "geomprod" / "__init__.py").is_file():
        print(f"error: the geomprod sources are missing from {SRC}", file=sys.stderr)
        return 2
    # The sweep workload runs with the default thread count.
    os.environ.pop("GEOMPROD_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
