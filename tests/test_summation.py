"""The estimator's own rounding, measured against the exact sum.

An estimate's log value is one signed sum over the samples of its plan:

    log E = sum_S sum_{n=|S|}^{n_max} w(S, n) * log|f(coeff_S * x / r**n)|,
    w(S, n) = (-1)**(|S|+1) * binom(n-1, |S|-1).

exact_sum forms that sum in rational arithmetic from public formulas only
(coefficient, r**n, multiplicity) and the source's own signed_log, so it
sees the same float logs the estimate sees and rounds nothing. The tests
compare estimate().log_value with it.

The bound. Let u = 2**-53, l a float log, and A = sum |w * l|, exact. The
estimator rounds each term at most three times on its way to the result:

1. float(w) = w (1 + a), |a| <= u (exact while |w| <= 2**53);
2. the product p = float(w) * l = w l (1 + a)(1 + b), |b| <= u;
3. one math.fsum over every p, which returns the exact sum of its inputs
   rounded once (Shewchuk 1997): F = (sum p)(1 + g), |g| <= u.

So |F - sum w l| <= |sum p - sum w l| + u |sum p|
                 <= ((1 + u)**2 - 1) A + u (1 + u)**2 A
                  = ((1 + u)**3 - 1) A,
that is c = ((1 + u)**3 - 1) / u = 3 + 3u + u**2 (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3-4, for the model of each step).
Summing each subset with its own math.fsum first, and the subsets again,
adds a fourth rounding: an estimator built that way has c = 4 + O(u).

PER_SUBSET_WORST records the worst err / (u A) of three configs, measured
on the estimator that summed each subset with its own math.fsum and then
the rounded subset sums again; the single sum must stay below it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from geomprod.combinatorics import IndexSet, enumerate_subsets, multiplicity
from geomprod.core import GmpConfig, coefficient, component_estimate, estimate
from geomprod.errors import GeomprodError
from geomprod.oracle import COS, HALF_SIN_SHIFTED, ONE, exp_scaled, monomial_exp
from geomprod.signal import normalize
from geomprod.sweeps import DEFAULT_SCHEDULE, SweepSpec

U = Fraction(1, 2**53)
C = ((1 + U) ** 3 - 1) / U


def exact_sum(f, x: float, cfg: GmpConfig, k: int | None = None) -> tuple[Fraction, Fraction]:
    """(sum w * log|f|, sum |w * log|f||), both exact, over the subsets of
    cfg.base (or those whose greatest element is k) and n = |S|..n_max.
    Each log is num / 2**e; the sums are integers over the largest 2**e."""
    terms = []
    for S in enumerate_subsets(cfg.base):
        if k is not None and S[-1] != k:
            continue
        m, coeff = len(S), coefficient(S, cfg.r)
        for n in range(m, cfg.n_max + 1):
            num, den = f.signed_log(coeff * x / cfg.r**n)[1].as_integer_ratio()
            terms.append(((1 if m % 2 else -1) * multiplicity(n, m) * num, den))
    scale = max((den for _, den in terms), default=1)
    scaled = [w_num * (scale // den) for w_num, den in terms]
    return Fraction(sum(scaled), scale), Fraction(sum(map(abs, scaled)), scale)


def rounding(f, x: float, cfg: GmpConfig, k: int | None = None) -> float | None:
    """err / (u A) of one estimate (0 where A = 0), or None where the
    estimate fails."""
    try:
        est = estimate(f, x, cfg) if k is None else component_estimate(f, k, x, cfg)
    except (GeomprodError, ArithmeticError):
        return None
    exact, magnitude = exact_sum(f, x, cfg, k) if x else (Fraction(0), Fraction(0))
    err = abs(Fraction(est.log_value) - exact)
    assert err <= C * U * magnitude
    return float(err / (U * magnitude)) if magnitude else 0.0


def _signal():
    """The golden forecasts' input: 2 + sin(t) on [0, 4], divided by its first value."""
    return normalize([(0.05 * i, 2.0 + math.sin(0.05 * i)) for i in range(81)])


def _sweep(function, grid, schedule, coupling, value, base, parity="all"):
    spec = SweepSpec(function, grid, schedule, coupling, value, IndexSet(base), parity)
    return [(function, spec.grid_points(), cfg, None) for cfg in spec.configs]


def _cases() -> dict:
    """name -> [(f, xs, cfg, k)]: the three named configs, then every
    golden's estimates."""
    default = _sweep(COS, (0.0, 3.0, 0.05), DEFAULT_SCHEDULE, "fixed_cutoff", 32, (2, 4), "even")
    assert [cfg.n_max for _, _, cfg, _ in default] == [9, 16, 30, 58, 113, 224, 446, 889]
    sqrt2 = math.sqrt(2.0)
    return {
        "fig2": _sweep(HALF_SIN_SHIFTED, (0.0, 4.0, 0.05), (2.0,), "fixed_n_max", 40, (1, 2, 3, 4)),
        "cos_r1.5_n9": default[:1],
        "cos_n889": default[-1:],
        "sweep_default_schedule": default[1:-1],
        "readme_estimate": [(COS, [1.0], GmpConfig(sqrt2, 10, IndexSet.of(2, 4), "even"), None)],
        "readme_component": [(COS, [1.0], GmpConfig(1.05, 72, IndexSet.of(2, 4)), 2)],
        "readme_sweep": _sweep(COS, (0.0, 1.5, 0.05), (sqrt2,), "fixed_n_max", 10, (2, 4), "even"),
        "readme_forecast": [(_signal(), [3.0], GmpConfig(2.0, 40, IndexSet.of(1, 2, 3, 4)), None)],
        "forecast_r15": [(_signal(), [4.452], GmpConfig(1.5, 24, IndexSet.of(1, 2, 3)), None)],
        "sweep_huge_ratio": _sweep(
            exp_scaled(800.0), (0.0, 1.0, 0.5), (1.5, 2.0, 1e300), "fixed_n_max", 10, (1, 2)),
        "sign_even_weight": [(COS, [3.5], GmpConfig(1.5, 12, IndexSet.of(2, 4), "even"), None)],
    }


CASES = _cases()


@lru_cache(maxsize=None)
def worst(name: str) -> float:
    """The largest err / (u A) over a case's estimates; each is checked
    against the bound on the way."""
    out = [rounding(f, x, cfg, k) for f, xs, cfg, k in CASES[name] for x in xs]
    assert any(v is not None for v in out)
    return max(v for v in out if v is not None)


# Measured on the estimator that rounded each subset's sum on its own.
PER_SUBSET_WORST = {
    "fig2": 0.3997105998921179,
    "cos_r1.5_n9": 0.7999874508786637,
    "cos_n889": 0.6098005603023393,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_within_bound(name):
    assert worst(name) <= C


@pytest.mark.parametrize("name", sorted(PER_SUBSET_WORST))
def test_worst_case_below_per_subset_sums(name):
    assert worst(name) < PER_SUBSET_WORST[name]


@given(
    base=st.sets(st.integers(1, 6), min_size=1, max_size=4),
    r=st.just(2.0) | st.floats(1.01, 4.0),
    extra=st.integers(0, 40),
    x=st.floats(-3.0, 3.0),
    f=st.sampled_from([ONE, COS, HALF_SIN_SHIFTED, exp_scaled(0.7), monomial_exp(-0.5, 2)]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_drawn_within_bound(base, r, extra, x, f, data):
    base = IndexSet(tuple(sorted(base)))
    cfg = GmpConfig(r=r, n_max=len(base) + extra, base=base)
    k = data.draw(st.sampled_from((None, *base)))
    rounding(f, x, cfg, k)
