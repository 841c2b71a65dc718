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

    For each subset the estimator takes (logs, negatives): log|f| at the
    subset's sample points and the positions of the points where f < 0.

    signed_log(x) returns (sign, log|f(x)|), and the estimator calls it once
    per sample unless the source defines log_batch(points). That takes a
    lazy iterable of sample points on one geometric sequence, in signed_log's
    order, and returns the pair in one call; its values must equal
    signed_log's to the bit. Subsets whose sequences coincide (equal
    coefficients: at r = 2, S and S + {1}) share one log_batch call per
    estimate, over the points of the longest run, and each later subset
    sums a suffix of its logs. Any ValueError or
    ArithmeticError, raised by log_batch or while its logs are summed, or a
    non-finite weighted sum, hands the subset to signed_log. So signed_log
    raises every typed error: ZeroSampleError for f(x) == 0, and for
    signal-backed sources NonPositiveSampleError and DomainCoverageError as
    well.
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
    weight binom(n-1, |S|-1). odd is |S| odd (a numerator factor), top the
    greatest element of S.

    seq is the plan index of the first subset whose coefficient compares
    equal to this one's: its samples run from n = |S| - skip, so this
    subset's are the suffix after its first skip. seq is the subset's own
    index (and skip 0) when no earlier subset samples its sequence; keep
    marks a subset whose batch logs a later one reuses.
    """

    subset: IndexSet
    coeff: float
    r_pows: tuple[float, ...]  # r**n
    weights: tuple[int, ...]  # binom(n-1, |S|-1)
    odd: bool
    top: int
    seq: int
    skip: int
    keep: bool


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
    """Plans for `subsets`, given cardinality-major as enumerate_subsets
    orders them. r**n is computed once for n = 1..n_max and the weights once
    per cardinality; the records share them. A subset whose coefficient
    compares equal to an earlier one's reuses that subset's sequence: the
    earlier is no larger, so its run is no shorter."""
    r_pows = tuple(map(pow, itertools.repeat(r), range(1, n_max + 1)))
    weights: dict[int, tuple[int, ...]] = {}
    firsts: dict[float, int] = {}  # coefficient -> first plan index with it
    rows = []
    for i, S in enumerate(subsets):
        m = len(S)
        if m not in weights:
            weights[m] = tuple(map(multiplicity, range(m, n_max + 1), itertools.repeat(m)))
        coeff = coefficient(S, r)
        rows.append((S, m, coeff, firsts.setdefault(coeff, i)))
    reused = {seq for i, (*_, seq) in enumerate(rows) if seq != i}
    return tuple(
        SubsetPlan(
            subset=S,
            coeff=coeff,
            r_pows=r_pows[m - 1:],
            weights=weights[m],
            odd=m % 2 == 1,
            top=S.max_element,
            seq=seq,
            skip=m - rows[seq][1],
            keep=i in reused,
        )
        for i, (S, m, coeff, seq) in enumerate(rows)
    )


def _signed_logs(f: FunctionSource, plan: SubsetPlan, scaled_x: float) -> tuple[list, list]:
    """(logs, negatives) through f.signed_log, one call per sample: log|f| at
    the plan's samples and the positions where f < 0. A GeomprodError or an
    ArithmeticError keeps its type and gains the sample's [subset S, n=…];
    an ArithmeticError, which names no sample, gains its abscissa too."""
    logs = []
    negatives = []
    try:
        # A for loop with its own division, not map: Python 3.11 inlines the
        # signed_log calls made from it, which makes a SampledSignal estimate
        # about 15 % faster (3.11.7).
        for r_n in plan.r_pows:
            point = scaled_x / r_n
            s, log_f = f.signed_log(point)
            if s < 0:
                negatives.append(len(logs))
            logs.append(log_f)
    except (GeomprodError, ArithmeticError) as e:
        n = len(plan.subset) + len(logs)  # one log per sample before the failing one
        at = "" if isinstance(e, GeomprodError) else f" at sample abscissa {point!r}"
        e.args = (f"{e.args[-1] if e.args else ''}{at} [subset {plan.subset}, n={n}]",)
        raise
    return logs, negatives


def _log_sum(f: FunctionSource, plan: SubsetPlan, x: float, seqs: dict) -> tuple[float, int]:
    """(log|P|, sign of P) for the subset's partial product P: the sum of
    weight * log|f(coeff * x / r**n)| over the plan's samples, compensated
    (math.fsum), and -1 when the weights of the negative values sum to odd.

    Where f has log_batch, the (logs, negatives) pair is the suffix of an
    earlier subset's in `seqs` (plan.seq, see SubsetPlan), or comes from one
    f.log_batch call, stored in `seqs` when plan.keep. Where f has none or
    gives up, it comes from _signed_logs (see FunctionSource).
    """
    scaled_x = plan.coeff * x  # coeff * x / r**n, in the formula's own order
    if not math.isfinite(scaled_x):
        raise GeomprodError(
            f"sample point coeff * x overflows for subset {plan.subset} at x={x}"
        )
    log_value = math.nan
    if hasattr(f, "log_batch"):
        try:
            if plan.seq in seqs:
                logs, negatives = seqs[plan.seq]
                skip = plan.skip
                logs = logs[skip:]
                negatives = [i - skip for i in negatives if i >= skip]
            else:
                logs, negatives = f.log_batch(
                    map(operator.truediv, itertools.repeat(scaled_x), plan.r_pows))
                if plan.keep:
                    logs, negatives = seqs[plan.seq] = list(logs), list(negatives)
            log_value = math.fsum(map(operator.mul, logs, plan.weights))
        except (ValueError, ArithmeticError):
            pass
    if not math.isfinite(log_value):
        logs, negatives = _signed_logs(f, plan, scaled_x)
        try:
            log_value = math.fsum(map(operator.mul, logs, plan.weights))
        except ArithmeticError as e:  # fsum's "intermediate overflow"
            e.args = (f"{e} [subset {plan.subset}]",)
            raise
        if not math.isfinite(log_value):
            raise GeomprodError(
                f"non-finite partial product accumulation for subset {plan.subset} at x={x}"
            )
    # The weights' sum has the parity of the count of odd weights in it.
    return log_value, -1 if sum(map(plan.weights.__getitem__, negatives)) & 1 else 1


def log_partial_product(
    f: FunctionSource, S: IndexSet, r: float, x: float, n_max: int
) -> LogProduct:
    """Accumulate sum_{n=|S|}^{n_max} binom(n-1, |S|-1) * log f(x_n)."""
    _check_plan(n_max, "S", len(S), n_max - len(S) + 1)
    (plan,) = _subset_plans([S], r, n_max)
    log_value, sign = _log_sum(f, plan, x, {})
    return LogProduct(
        log_value=log_value,
        sign=sign,
        term_count=len(plan.weights),
        min_point=plan.coeff * x / plan.r_pows[-1],
    )


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
    seqs: dict = {}  # plan index -> (logs, negatives) that later subsets reuse
    # x = 0 takes no sample, so the plan is left unbuilt: its r**n can
    # overflow for a huge r that x = 0 never needs.
    for plan in cfg.plan if x != 0.0 else ():
        if k not in (None, plan.top):
            continue
        log_value, s = _log_sum(f, plan, x, seqs)
        logs.append(log_value if plan.odd else -log_value)
        sign *= s
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
