"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Thresholds marked "pinned" were frozen from reference runs of the
independent oracles in this repository before the gate was finalized.
"""

import math
import time

import numpy as np
from geomprod.combinatorics import (
    IndexSet,
    compositions_bruteforce,
    enumerate_subsets,
    factor_count,
    multiplicity,
)
from geomprod.core import (
    GmpConfig,
    component_estimate,
    cutoff_n_max,
    estimate,
    log_partial_product,
    pollution_exponent,
    reconstruct_from_components,
)
from geomprod.oracle import (
    COS,
    HALF_SIN_SHIFTED,
    euler_partial_product,
    exp_scaled,
    monomial_exp,
    multiindex_bruteforce,
    sinc,
    truncated_invariance_closed_form,
)
from geomprod.signal import coverage_check, forecast, normalize
from geomprod.sweeps import r_sweep

SQRT2 = math.sqrt(2.0)

FIG1_CFG = GmpConfig(r=SQRT2, n_max=10, base=IndexSet.of(2, 4), parity="even")
FIG2_CFG = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))

# pinned from oracle runs (see module docstring); hard ceilings from the gate
TAU_1 = 0.15       # fig. 1 ceiling; reference run measures 2.26 (gate is red)
TAU_2 = 0.005      # fig. 2; reference run measures 1.20e-3
TAU_COMPONENT = 0.005  # criterion 8; reference run measures 2.24e-3


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")


def test_criterion_1_euler_identity():
    xs = [0.5, 1.0, math.pi / 2, 2.0, 3.0]
    t0 = time.perf_counter()
    worst = max(abs(euler_partial_product(x, 40) - sinc(x)) for x in xs)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1e-3
    report(1, ok, f"euler product vs sinc, max err {worst:.3e}, {elapsed*1e3:.3f} ms")
    assert worst < 1e-10
    assert elapsed < 1e-3


def test_criterion_2_truncated_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (-1.0, 0.3):
        for k in range(1, 7):
            for r in (1.05, 1.5, 2.0):
                for N in (5, 20, 60):
                    for x in (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0):
                        lp = log_partial_product(
                            monomial_exp(c, k), IndexSet.of(k), r, x, N
                        )
                        expected = truncated_invariance_closed_form(c, k, r, x, N)
                        rel = abs(lp.log_value - expected) / abs(expected)
                        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(2, ok, f"closed-form truncation, worst rel err {worst:.3e}, {elapsed:.2f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_3_consolidation():
    t0 = time.perf_counter()
    worst = 0.0
    for f in (exp_scaled(1.0), COS, HALF_SIN_SHIFTED):
        for S in enumerate_subsets(IndexSet.of(1, 2, 3)):
            for r in (1.2, 2.0):
                for x in (0.5, 1.5):
                    brute = multiindex_bruteforce(f, S, r, x, 10)
                    single = log_partial_product(f, S, r, x, 10).log_value
                    worst = max(worst, abs(brute - single))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(3, ok, f"multi-index vs consolidated, worst diff {worst:.3e}, {elapsed:.2f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_4_composition_counts():
    t0 = time.perf_counter()
    for m in range(1, 7):
        for n in range(1, 31):
            if n >= m:
                assert multiplicity(n, m) == compositions_bruteforce(n, m)
    for m in range(1, 7):
        for N in range(m, 61):
            assert sum(multiplicity(n, m) for n in range(m, N + 1)) == math.comb(N, m)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    report(4, ok, f"multiplicity vs brute force + hockey-stick, {elapsed:.2f} s")
    assert elapsed < 1.0


def test_criterion_5_fig1_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(61):
        x = 0.05 * i
        est = estimate(COS, x, FIG1_CFG)
        worst = max(worst, abs(est.value - math.cos(x)))
    elapsed = time.perf_counter() - t0
    ok = worst <= TAU_1 and elapsed < 0.1
    report(5, ok, f"cos grid [0,3], max abs err {worst:.3e} vs tau1={TAU_1}, {elapsed*1e3:.1f} ms")
    assert elapsed < 0.1
    assert worst <= TAU_1


def test_criterion_6_fig2_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(81):
        x = 0.05 * i
        est = estimate(HALF_SIN_SHIFTED, x, FIG2_CFG)
        worst = max(worst, abs(est.value - (1.0 + 0.5 * math.sin(x))))
    count = factor_count(FIG2_CFG.base, FIG2_CFG.n_max)
    elapsed = time.perf_counter() - t0
    ok = worst <= TAU_2 and count == 135_750 and count > 75_000 and elapsed < 5.0
    report(6, ok, f"half-sin grid [0,4], max abs err {worst:.3e} vs tau2={TAU_2}, "
                  f"{count} factors, {elapsed:.2f} s")
    assert worst <= TAU_2
    assert count == 135_750
    assert count > 75_000
    assert elapsed < 5.0


def test_criterion_7_r_schedule_convergence():
    t0 = time.perf_counter()
    schedule = tuple(1 + 2.0**-t for t in range(1, 9))
    rows = r_sweep(
        COS, 2.0, schedule, "fixed_cutoff", 32, IndexSet.of(2, 4), parity="even"
    )
    errors = [row.abs_error for row in rows]
    elapsed = time.perf_counter() - t0
    decreasing = errors[-1] < errors[0]
    banded = all(b <= 2.0 * a for a, b in zip(errors, errors[1:]))
    ok = decreasing and banded and elapsed < 10.0
    report(7, ok, f"cos at x=2, errors {errors[0]:.3e} -> {errors[-1]:.3e}, {elapsed:.2f} s")
    assert elapsed < 10.0
    assert banded
    assert decreasing


def test_criterion_8_component_extraction():
    t0 = time.perf_counter()
    r = 1.05
    n_max = max(cutoff_n_max(32, r), 2)
    comp = component_estimate(COS, 2, 1.0, GmpConfig(r, n_max, IndexSet.of(2, 4)))
    comp_err = abs(comp.value - math.exp(-0.5))

    worst_diff = 0.0
    for f, cfg in ((COS, FIG1_CFG), (HALF_SIN_SHIFTED, FIG2_CFG)):
        for x in (0.5, 1.0, 2.0, 3.0):
            whole = estimate(f, x, cfg)
            parts = reconstruct_from_components(f, x, cfg)
            worst_diff = max(worst_diff, abs(whole.log_value - parts.log_value))
    elapsed = time.perf_counter() - t0
    ok = comp_err <= TAU_COMPONENT and worst_diff < 1e-12 and elapsed < 5.0
    report(8, ok, f"gaussian component err {comp_err:.3e} vs {TAU_COMPONENT}, "
                  f"partition diff {worst_diff:.3e}, {elapsed:.2f} s")
    assert comp_err <= TAU_COMPONENT
    assert worst_diff < 1e-12
    assert elapsed < 5.0


def test_criterion_9_pollution_exponents():
    t0 = time.perf_counter()
    schedule = [1 + 2.0**-t for t in range(1, 13)]
    high = [pollution_exponent(4, 2, r) for r in schedule]
    low = [pollution_exponent(1, 2, r) for r in schedule]
    elapsed = time.perf_counter() - t0
    mono_high = all(a > b for a, b in zip(high, high[1:])) and high[-1] < high[0]
    exact_one = all(pollution_exponent(k, k, r) == 1.0 for k in (1, 2, 5) for r in schedule)
    escapes = low[-1] > 1e3
    ok = mono_high and exact_one and escapes and elapsed < 1e-3
    report(9, ok, f"pollution: high {high[0]:.3f}->{high[-1]:.2e}, "
                  f"low final {low[-1]:.3e}, {elapsed*1e3:.3f} ms")
    assert mono_high
    assert exact_one
    assert escapes
    assert elapsed < 1e-3


def test_criterion_10_forecast_round_trip():
    t0 = time.perf_counter()
    raw = [(0.05 * i, 1.0 + 0.5 * math.sin(0.05 * i)) for i in range(81)]
    sig = normalize(raw, "none")
    cov = coverage_check(sig, FIG2_CFG, 3.0)
    result = forecast(sig, 3.0, FIG2_CFG)
    analytic = estimate(HALF_SIN_SHIFTED, 3.0, FIG2_CFG)
    interp_err = max(
        abs(sig(float(t)) - (1.0 + 0.5 * math.sin(t)))
        for t in np.linspace(0.0, 4.0, 2001)
    )
    diff = abs(result.raw_value - analytic.value)
    elapsed = time.perf_counter() - t0
    ok = cov.ok and diff <= 10.0 * interp_err and elapsed < 5.0
    report(10, ok, f"forecast vs analytic diff {diff:.3e} <= 10*interp err "
                   f"{10 * interp_err:.3e}, coverage ok={cov.ok}, {elapsed:.2f} s")
    assert cov.ok
    assert diff <= 10.0 * interp_err
    assert elapsed < 5.0
