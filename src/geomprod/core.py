"""The geometric-multiproduct estimator.

Sample points live on geometric sequences x_n = coeff(S, r) * x / r^n, one
sequence per index set S. Each partial product multiplies function values on
one sequence with integer composition-count weights; the estimate is the
quotient of odd-cardinality partial products over even-cardinality ones,
accumulated in log space with sign tracking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

from .combinatorics import IndexSet, enumerate_subsets, factor_count
from .errors import GeomprodError


# Largest number of samples one config's plan may hold: building it and one
# estimate on it take about 1 s (2 CPUs, Python 3.11).
MAX_SAMPLES = 10**6


class FunctionSource(Protocol):
    """Anything the estimator can sample.

    signed_log(x) returns (sign, log|f(x)|). Implementations raise
    ZeroSampleError for f(x) == 0, and signal-backed sources additionally
    raise NonPositiveSampleError / DomainCoverageError.
    """

    def __call__(self, x: float) -> float: ...

    def signed_log(self, x: float) -> tuple[int, float]: ...


@dataclass(frozen=True)
class GmpConfig:
    """Estimator parameters: ratio r, truncation n_max, generating base set,
    and the declared parity mode ('all' or 'even')."""

    r: float
    n_max: int
    base: IndexSet
    parity: str = "all"

    def __post_init__(self):
        _check_r(self.r)
        if self.n_max < len(self.base):
            raise ValueError(
                f"n_max={self.n_max} must be at least |base|={len(self.base)}"
            )
        check_parity(self.parity, self.base)
        # Counted in closed form, before any subset is enumerated.
        samples = plan_samples(len(self.base), self.n_max)
        if samples > MAX_SAMPLES:
            raise ValueError(
                f"n_max={self.n_max} with |base|={len(self.base)} needs {samples} "
                f"samples per estimate, over the {MAX_SAMPLES}-sample plan cap"
            )

    @cached_property
    def plan(self) -> tuple["SubsetPlan", ...]:
        """One SubsetPlan per non-empty subset of base, in enumerate_subsets
        order. Built on first use and kept as long as the config, so reuse
        one config across x."""
        return _subset_plans(enumerate_subsets(self.base), self.r, self.n_max)


def plan_samples(b: int, n_max: int) -> int:
    """Samples in the plan of a b-element base truncated at n_max: each
    m-element subset contributes n_max - m + 1, and summing over the C(b, m)
    subsets of each size gives (n_max + 1)(2^b - 1) - b 2^(b-1)."""
    return (n_max + 1) * (2**b - 1) - b * 2 ** (b - 1)


def check_parity(parity: str, base: IndexSet) -> None:
    """Reject an unknown parity mode, or 'even' with an odd element in base."""
    if parity not in ("all", "even"):
        raise ValueError(f"parity must be 'all' or 'even', got {parity!r}")
    if parity == "even" and any(k % 2 for k in base):
        raise ValueError(f"even parity mode requires an all-even base, got {base}")


@dataclass(frozen=True)
class SubsetPlan:
    """The part of one subset's partial product that does not depend on x:
    sample n, for n = |S|..n_max, lies at coeff * x / r**n and carries
    weight binom(n-1, |S|-1)."""

    subset: IndexSet
    coeff: float
    r_pows: tuple[float, ...]  # r**n
    weights: tuple[int, ...]  # binom(n-1, |S|-1)


@dataclass(frozen=True)
class LogProduct:
    """One truncated partial product, held as log|value| plus its sign."""

    log_value: float
    sign: int
    term_count: int
    min_point: float


@dataclass(frozen=True)
class Estimate:
    value: float
    log_value: float
    sign: int
    x: float
    config: GmpConfig
    factor_count: int


def _check_r(r: float) -> None:
    """Reject a ratio outside 1 < r < inf; every ratio the package takes passes here."""
    if not 1.0 < r < math.inf:
        raise ValueError(f"ratio r must exceed 1 and be finite, got {r}")


def coefficient(S: IndexSet, r: float) -> float:
    """The sequence coefficient prod_{k in S} (r^k - 1)^(1/k)."""
    _check_r(r)
    return math.prod((r**k - 1.0) ** (1.0 / k) for k in S)


def sequence_point(S: IndexSet, r: float, x: float, n: int) -> float:
    """The n-th point of the geometric sequence for index set S."""
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    return coefficient(S, r) * x / r**n


def _subset_plans(subsets, r: float, n_max: int) -> tuple[SubsetPlan, ...]:
    """Plans for `subsets`. r**n is computed once for n = 1..n_max and the
    weights once per cardinality; the records share them."""
    r_pows = tuple(map(pow, itertools.repeat(r), range(1, n_max + 1)))
    weights: dict[int, tuple[int, ...]] = {}
    plans = []
    for S in subsets:
        m = len(S)
        if m not in weights:
            weights[m] = tuple(map(math.comb, range(m - 1, n_max), itertools.repeat(m - 1)))
        plans.append(SubsetPlan(
            subset=S,
            coeff=coefficient(S, r),
            r_pows=r_pows[m - 1:],
            weights=weights[m],
        ))
    return tuple(plans)


def _accumulate(f: FunctionSource, plan: SubsetPlan, x: float) -> LogProduct:
    """Sum weight * log f(coeff * x / r**n) over the plan's samples.

    Compensated summation via math.fsum; negative function values flip the
    tracked sign when their weight is odd.
    """
    scaled_x = plan.coeff * x  # coeff * x / r**n, in the formula's own order
    if not math.isfinite(scaled_x):
        raise GeomprodError(
            f"sample point coeff * x overflows for subset {plan.subset} at x={x}"
        )
    terms = []
    sign = 1
    point = 0.0
    try:
        for r_n, w in zip(plan.r_pows, plan.weights):
            point = scaled_x / r_n
            s, log_f = f.signed_log(point)
            if s < 0 and w & 1:
                sign = -sign
            terms.append(log_f * w)
    except GeomprodError as e:
        n = len(plan.subset) + len(terms)  # one term per sample before the failing one
        e.args = (f"{e.args[0]} [subset {plan.subset}, n={n}]",)
        raise
    log_value = math.fsum(terms)
    if not math.isfinite(log_value):
        raise GeomprodError(
            f"non-finite partial product accumulation for subset {plan.subset} at x={x}"
        )
    return LogProduct(
        log_value=log_value, sign=sign, term_count=len(terms), min_point=point
    )


def log_partial_product(
    f: FunctionSource, S: IndexSet, r: float, x: float, n_max: int
) -> LogProduct:
    """Accumulate sum_{n=|S|}^{n_max} binom(n-1, |S|-1) * log f(x_n)."""
    if n_max < len(S):
        raise ValueError(f"n_max={n_max} must be at least |S|={len(S)}")
    (plan,) = _subset_plans([S], r, n_max)
    return _accumulate(f, plan, x)


def _combine(logs: list[float], sign: int, x: float, cfg: GmpConfig, count: int) -> Estimate:
    """The Estimate whose log value is the compensated sum of `logs`."""
    log_value = math.fsum(logs)
    try:
        value = sign * math.exp(log_value)
    except OverflowError:
        raise GeomprodError(f"estimate overflows: log value {log_value}") from None
    return Estimate(
        value=value, log_value=log_value, sign=sign, x=x, config=cfg, factor_count=count
    )


def _quotient(f: FunctionSource, x: float, cfg: GmpConfig, k: int | None = None) -> Estimate:
    """The odd/even quotient over the subsets of cfg.base, or over those
    whose greatest element is k."""
    count = factor_count(cfg.base, cfg.n_max, k)
    logs = []
    sign = 1
    # x = 0 takes no sample, so the plan is left unbuilt: its r**n can
    # overflow for a huge r that x = 0 never needs.
    for plan in cfg.plan if x != 0.0 else ():
        if k not in (None, plan.subset.max_element):
            continue
        lp = _accumulate(f, plan, x)
        logs.append(lp.log_value if len(plan.subset) % 2 else -lp.log_value)
        sign *= lp.sign
    return _combine(logs, sign, x, cfg, count)


def estimate(f: FunctionSource, x: float, cfg: GmpConfig) -> Estimate:
    """Full multiproduct estimate of f(x) under cfg."""
    return _quotient(f, x, cfg)


def component_estimate(f: FunctionSource, k: int, x: float, cfg: GmpConfig) -> Estimate:
    """Estimate of the order-k component exp(c_k x^k): the quotient
    restricted to the subsets of cfg.base whose greatest element is k.
    A k outside cfg.base raises ValueError."""
    return _quotient(f, x, cfg, k)


def reconstruct_from_components(f: FunctionSource, x: float, cfg: GmpConfig) -> Estimate:
    """Product over k in base of the order-k component estimates.

    The subset family partitions by greatest element, so this regroups the
    exact factors of estimate() and must agree with it in log space.
    """
    comps = [_quotient(f, x, cfg, k) for k in cfg.base]
    return _combine(
        [c.log_value for c in comps],
        math.prod(c.sign for c in comps),
        x,
        cfg,
        factor_count(cfg.base, cfg.n_max),
    )


def pollution_exponent(j: int, k: int, r: float) -> float:
    """Factor multiplying c_j x^j when the order-j component is sampled on
    the order-k sequence: (r^k - 1)^(j/k) / (r^j - 1). Exactly 1 for j == k."""
    _check_r(r)
    if j < 1 or k < 1:
        raise ValueError(f"orders must be positive, got j={j}, k={k}")
    if j == k:
        return 1.0
    return (r**k - 1.0) ** (j / k) / (r**j - 1.0)


def cutoff_n_max(K: float, r: float) -> int:
    """Truncation index with r^n_max ~ K held fixed: ceil(ln K / ln r)."""
    _check_r(r)
    if K < 2:
        raise ValueError(f"cutoff must be >= 2, got {K}")
    return max(1, math.ceil(math.log(K) / math.log(r)))


def floored_cutoff_n_max(K: float, r: float, base: IndexSet) -> int:
    """cutoff_n_max(K, r) raised to |base|, so every subset of base has at
    least one term."""
    return max(cutoff_n_max(K, r), len(base))
