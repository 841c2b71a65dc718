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
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

from .combinatorics import IndexSet, check_n_max, enumerate_subsets, factor_count, multiplicity
from .errors import GeomprodError


# Largest number of samples one config's plan may hold: building it and one
# estimate on it take about 1 s (2 CPUs, Python 3.11).
MAX_SAMPLES = 10**6


class FunctionSource(Protocol):
    """Anything the estimator can sample.

    signed_log(x) returns (sign, log|f(x)|). Implementations raise
    ZeroSampleError for f(x) == 0, and signal-backed sources additionally
    raise NonPositiveSampleError / DomainCoverageError.

    A source may also define log_batch(points), which the estimator then
    calls once per subset instead of signed_log once per sample. It takes
    a lazy iterable of one subset's sample points, in signed_log's order,
    and returns (logs, negatives): an iterable of log|f| at those points
    and the positions of the points where f < 0. Its values must equal
    signed_log's to the bit. Any ValueError or ArithmeticError, raised by
    log_batch or while its logs are consumed, makes the estimator rerun
    the subset through signed_log, which raises the typed error; so does a
    non-finite weighted sum.
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
        b = len(self.base)
        # Counted in closed form, before any subset is enumerated.
        _check_plan(self.n_max, "base", b, plan_samples(b, self.n_max))
        check_parity(self.parity, self.base)

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


def _check_plan(n_max: int, name: str, size: int, samples: int) -> None:
    """check_n_max, then reject a plan of more than MAX_SAMPLES samples."""
    check_n_max(n_max, name, size)
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"n_max={n_max} with |{name}|={size} needs {samples} "
            f"samples per estimate, over the {MAX_SAMPLES}-sample plan cap"
        )


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
    """One truncated partial product, held as log|value| plus its sign.

    min_point is the last sample, coeff * x / r**n_max, the one nearest 0.
    For x < 0 it is the largest sample, not the minimum.
    """

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
            weights[m] = tuple(map(multiplicity, range(m, n_max + 1), itertools.repeat(m)))
        plans.append(SubsetPlan(
            subset=S,
            coeff=coefficient(S, r),
            r_pows=r_pows[m - 1:],
            weights=weights[m],
        ))
    return tuple(plans)


def _accumulate_batch(f: FunctionSource, plan: SubsetPlan, scaled_x: float) -> LogProduct | None:
    """_accumulate in one pass through f.log_batch, or None where the scalar
    loop must rerun: on a ValueError or ArithmeticError, or a non-finite sum."""
    try:
        logs, negatives = f.log_batch(
            map(operator.truediv, itertools.repeat(scaled_x), plan.r_pows))
        log_value = math.fsum(map(operator.mul, logs, plan.weights))
    except (ValueError, ArithmeticError):
        return None
    if not math.isfinite(log_value):
        return None
    flips = sum(plan.weights[i] & 1 for i in negatives)
    return LogProduct(
        log_value=log_value,
        sign=-1 if flips & 1 else 1,
        term_count=len(plan.weights),
        min_point=scaled_x / plan.r_pows[-1],
    )


def _accumulate(f: FunctionSource, plan: SubsetPlan, x: float) -> LogProduct:
    """Sum weight * log f(coeff * x / r**n) over the plan's samples.

    Compensated summation via math.fsum; negative function values flip the
    tracked sign when their weight is odd. A source with log_batch takes
    the batch path; the scalar loop below defines the result, and every
    error, for both.
    """
    scaled_x = plan.coeff * x  # coeff * x / r**n, in the formula's own order
    if not math.isfinite(scaled_x):
        raise GeomprodError(
            f"sample point coeff * x overflows for subset {plan.subset} at x={x}"
        )
    if hasattr(f, "log_batch"):
        lp = _accumulate_batch(f, plan, scaled_x)
        if lp is not None:
            return lp
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
    _check_plan(n_max, "S", len(S), n_max - len(S) + 1)
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
    return math.ceil(math.log(K) / math.log(r))


def coupled_n_max(coupling: str, value: int, r: float, base: IndexSet) -> int:
    """The n_max a truncation coupling gives at ratio r: 'fixed_n_max' takes
    value as n_max; 'fixed_cutoff' takes it as the cutoff K of cutoff_n_max,
    raised to |base| so every subset of base has at least one term."""
    if coupling == "fixed_n_max":
        return value
    if coupling == "fixed_cutoff":
        return max(cutoff_n_max(value, r), len(base))
    raise ValueError(f"unknown coupling {coupling!r}")
