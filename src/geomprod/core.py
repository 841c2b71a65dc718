"""The geometric-multiproduct estimator.

Sample points live on geometric sequences x_n = coeff(S, r) * x / r^n, one
sequence per index set S. Each partial product multiplies function values on
one sequence with integer composition-count weights; the estimate is the
quotient of odd-cardinality partial products over even-cardinality ones,
accumulated in log space as one signed sum, with sign tracking.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Protocol

from .combinatorics import (
    IndexSet, check_integer, check_n_max, check_real, enumerate_subsets, factor_count,
)
from .errors import GeomprodError


# Largest number of samples one config's plan may hold: building it and one
# estimate on it take about 1 s (2 CPUs, Python 3.11).
MAX_SAMPLES = 10**6


class FunctionSource(Protocol):
    """Anything the estimator can sample.

    For each sequence of the plan (see SequencePlan) the estimator takes
    (logs, negatives): log|f| at its points and the positions where f < 0.

    signed_log(x) returns (sign, log|f(x)|), and the estimator calls it once
    per sample of each subset unless the source defines log_batch(points).
    That takes a lazy iterable of sample points on one geometric sequence,
    in signed_log's order, and returns the pair in one call; its values must
    equal signed_log's to the bit. An estimate calls log_batch once per
    sequence it keeps, over every point of it, and weighs each point once,
    by the sequence's merged weight. A ValueError or ArithmeticError, from
    any log_batch call or from summing the logs, or a non-finite sum, hands
    the whole estimate to signed_log, which raises every typed error:
    ZeroSampleError for f(x) == 0, and for a signal NonPositiveSampleError
    and DomainCoverageError as well. A point whose merged weight is 0 is
    still evaluated, so it still raises.

    Through signed_log the estimate weighs the first subset's logs, which
    cover every point of the sequence, and the later subsets on it repeat
    the calls at their own points only to raise the same errors in the
    same order and to keep one call per sample: the benchmark counts the
    samples by those calls (46,640 per Fig-2 pass). Dropping the repeats
    waits until it counts them another way (ROADMAP items 3 and 11).

    The estimator never calls __call__(x), f(x) itself: the sweep's
    reference column does, and so does a signal's own signed_log. A source
    may declare `even`; a false one fails every estimate under an 'even'
    config.
    """

    def __call__(self, x: float) -> float: ...

    def signed_log(self, x: float) -> tuple[int, float]: ...


@dataclass(frozen=True)
class GmpConfig:
    """Estimator parameters: ratio r, truncation n_max, generating base set,
    and the declared parity mode ('all' or 'even'). r is kept as its float
    and n_max as its int, the values their checks return."""

    r: float
    n_max: int
    base: IndexSet
    parity: str = "all"

    def __post_init__(self):
        object.__setattr__(self, "r", _check_r(self.r))
        if not isinstance(self.base, IndexSet):  # which enumerate_subsets assumes
            raise ValueError(f"base must be an IndexSet, got {self.base!r}")
        # Counted in closed form, before any subset is enumerated.
        object.__setattr__(self, "n_max", _check_plan(self.n_max, "base", len(self.base),
                                                      plan_samples))
        check_parity(self.parity, self.base)

    @cached_property
    def plan(self) -> tuple["SequencePlan", ...]:
        """One SequencePlan per distinct coefficient among the non-empty
        subsets of base, each holding its subsets in enumerate_subsets
        order. Built on first use and kept as long as the config, so reuse
        one config across x."""
        return _sequence_plans(enumerate_subsets(self.base), self.r, self.n_max)

    @cached_property
    def component_plans(self) -> dict[int, tuple["SequencePlan", ...]]:
        """For each k in base, the SequencePlans of the subsets whose greatest
        element is k, which component_estimate and reconstruct_from_components
        sample. Built like plan, on first use, and kept as long as the config."""
        subsets = enumerate_subsets(self.base)
        return {k: _sequence_plans([S for S in subsets if S[-1] == k], self.r, self.n_max)
                for k in self.base}


def plan_samples(b: int, n_max: int) -> int:
    """Samples in the plan of a b-element base truncated at n_max: each
    m-element subset contributes n_max - m + 1, and summing over the C(b, m)
    subsets of each size gives (n_max + 1)(2^b - 1) - b 2^(b-1)."""
    return (n_max + 1) * (2**b - 1) - b * 2 ** (b - 1)


def _check_plan(n_max: int, name: str, size: int, count) -> int:
    """check_n_max's int n_max, once count(size, n_max), the plan's samples
    at that int, is at most MAX_SAMPLES."""
    n_max = check_n_max(n_max, name, size)
    samples = count(size, n_max)
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"n_max={n_max} with |{name}|={size} needs {samples} "
            f"samples per estimate, over the {MAX_SAMPLES}-sample plan cap"
        )
    return n_max


def check_parity(parity: str, base: IndexSet) -> None:
    """Reject an unknown parity mode, or 'even' with an odd element in base."""
    if parity not in ("all", "even"):
        raise ValueError(f"parity must be 'all' or 'even', got {parity!r}")
    if parity == "even" and any(k % 2 for k in base):
        raise ValueError(f"even parity mode requires an all-even base, got {base}")


class SequencePlan(NamedTuple):
    """One geometric sequence of the plan: the subsets whose coefficients
    compare equal as floats (at r = 2, S and S + {1}) sample the same points
    coeff * x / r**n. subsets are cardinality-major, so the first has the
    longest run, n = |first S|..n_max, and r_pows holds its r**n. Subset S
    samples the points from n = |S| on, with the signed weight
    (-1)**(|S|+1) * binom(n-1, |S|-1): an odd |S| is a numerator factor, an
    even one a denominator factor. Its greatest element names its component.
    weights holds one merged weight per point, aligned with r_pows:
    W_n = sum over the subsets of their signed weights at n, summed as
    integers and converted to float once (one past 2**1024 is an
    OverflowError naming the first subset). W_n may be 0 (on Fig 2, at 7 of
    315 points). float(W) * v rounds exactly as W * v does for an int W.
    Above 2**53 a float weight has lost its low bits, so the sign rule takes
    each binomial's parity from Lucas's theorem instead (see _products).
    """

    coeff: float
    r_pows: tuple[float, ...]  # r**n from the first subset's first n
    subsets: tuple[IndexSet, ...]
    weights: tuple[float, ...]  # per point, float(sum_S (-1)**(|S|+1) * binom(n-1, |S|-1))


class LogProduct(NamedTuple):
    """One truncated partial product, held as log|value| plus its sign.

    min_point is the last sample, coeff * x / r**n_max, the one nearest 0.
    For x < 0 it is the largest sample, not the minimum.
    """

    log_value: float
    sign: int
    term_count: int
    min_point: float


class Estimate(NamedTuple):
    value: float
    log_value: float
    sign: int
    x: float
    config: GmpConfig
    factor_count: int


def _check_r(r: float) -> float:
    """r's float (check_real), once it lies in 1 < r < inf; every ratio the
    package takes passes here."""
    ratio = check_real(r, "ratio r")
    if not 1.0 < ratio < math.inf:  # nan too
        raise ValueError(f"ratio r must exceed 1 and be finite, got {r}")
    return ratio


def _powers(r: float, exponents) -> list[float]:
    """r**n for each n in exponents, in order; an overflow names r and n."""
    powers = []
    for n in exponents:
        try:
            powers.append(r**n)
        except OverflowError as e:
            raise OverflowError(f"{e.args[-1]} for r**{n} at r={r!r}") from None
    return powers


def _roots(r: float, ks) -> list[float]:
    """(r^k - 1)^(1/k) for each k in ks, the factors of the coefficients."""
    return [(r_k - 1.0) ** (1.0 / k) for r_k, k in zip(_powers(r, ks), ks)]


def coefficient(S: IndexSet, r: float) -> float:
    """The sequence coefficient prod_{k in S} (r^k - 1)^(1/k)."""
    return math.prod(_roots(_check_r(r), S))


def sequence_point(S: IndexSet, r: float, x: float, n: int) -> float:
    """The n-th point of the geometric sequence for index set S."""
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    x, r = check_real(x, "x"), _check_r(r)
    return coefficient(S, r) * x / _powers(r, (n,))[0]


def _sequence_plans(subsets, r: float, n_max: int) -> tuple[SequencePlan, ...]:
    """One SequencePlan per distinct coefficient of `subsets`, given
    cardinality-major as enumerate_subsets orders them, at a ratio r that
    _check_r has passed. r**n is computed once for n = 1..n_max, the signed
    integer weights once per cardinality and each element's root (_roots)
    once; the records share them, and each coefficient multiplies its roots
    in coefficient()'s order. A record's merged column adds its subsets'
    integer columns aligned at their ends, in C; each distinct one is
    converted to floats, which checks the float range, once, after every
    coefficient, so an overflowing coefficient is reported first."""
    r_pows = tuple(_powers(r, range(1, n_max + 1)))
    columns: dict[int, tuple[int, ...]] = {}  # |S| -> signed binomials
    merged: dict[tuple[int, ...], tuple[float, ...]] = {}  # the |S| on a sequence -> weights
    roots: dict[int, float] = {}  # k -> (r**k - 1)**(1/k)
    sequences: dict[float, list[IndexSet]] = {}  # coeff -> its subsets
    for S in subsets:
        m = len(S)
        if m not in columns:
            binoms = map(math.comb, range(m - 1, n_max), itertools.repeat(m - 1))
            columns[m] = tuple(binoms if m & 1 else map(operator.neg, binoms))
        for k in S:
            if k not in roots:
                roots[k] = _roots(r, (k,))[0]
        sequences.setdefault(math.prod(map(roots.__getitem__, S)), []).append(S)
    plans = []
    for coeff, same in sequences.items():
        sizes = tuple(map(len, same))
        m = sizes[0]
        if sizes not in merged:
            total = list(columns[m])
            for size in sizes[1:]:  # a later subset's run is the last points
                total[size - m:] = map(operator.add, total[size - m:], columns[size])
            try:
                merged[sizes] = tuple(map(float, total))
            except OverflowError as e:  # a weight past 2**1024
                raise OverflowError(f"{e} [subset {same[0]}]") from None
        plans.append(SequencePlan(coeff, r_pows[m - 1:], tuple(same), merged[sizes]))
    return tuple(plans)


def _logs(values):
    """math.log of each value, lazily. starmap over zip passes each value in
    a one-tuple that zip reuses, which math.log's argument parsing takes as
    it is on Python 3.10 and 3.11; map builds a new tuple per call. Per
    call, map against this form measured 128 vs 83 ns on 3.10.13, 143 vs
    87 ns on 3.11.7, 77 vs 103 ns on 3.12.1 and 90 vs 104 ns on 3.13.0
    (2 CPUs): 3.12 parses the argument without a tuple, so there this form
    costs 15-25 ns more per log."""
    return itertools.starmap(math.log, zip(values))


def _signed_logs(f: FunctionSource, S: IndexSet, r_pows, scaled_x: float) -> tuple[list, list]:
    """(logs, negatives) through f.signed_log, one call per sample: log|f| at
    S's samples scaled_x / r**n, for r**n in r_pows, and the positions where
    f < 0. A GeomprodError or an ArithmeticError keeps its type and gains
    the sample's [subset S, n=…]; an ArithmeticError, which names no sample,
    gains its abscissa too."""
    logs = []
    negatives = []
    try:
        # A for loop, not map: the note below needs the failing sample's
        # index and abscissa.
        for r_n in r_pows:
            point = scaled_x / r_n
            s, log_f = f.signed_log(point)
            if s < 0:
                negatives.append(len(logs))
            logs.append(log_f)
    except (GeomprodError, ArithmeticError) as e:
        n = len(S) + len(logs)  # one log per sample before the failing one
        at = "" if isinstance(e, GeomprodError) else f" at sample abscissa {point!r}"
        e.args = (f"{e.args[-1] if e.args else ''}{at} [subset {S}, n={n}]",)
        raise
    return logs, negatives


def _products(f: FunctionSource, batch, plans, x: float, odd: list):
    """For each plan, its merged weights times log|f| at its points,
    lazily; the logs as they are where every weight is +1.0. odd gains the
    count of the negative values at odd weights, summed over the plan's
    subsets: by Lucas's theorem the weight of S's i-th sample, counted from
    0, binom(|S|-1+i, |S|-1), is odd exactly when i & (|S|-1) == 0, and W's
    parity is the parity of that count. With batch (f.log_batch) each plan
    takes one call over its points; without it, _signed_logs takes one call
    per sample of each subset, and the first subset's logs, which cover
    every point, are the ones weighed. A plan whose coeff * x is not finite
    fails before its samples are taken."""
    for plan in plans:
        scaled_x = plan.coeff * x  # coeff * x / r**n, in the formula's own order
        first = plan.subsets[0]
        if not math.isfinite(scaled_x):
            raise GeomprodError(
                f"sample point coeff * x is not finite for subset {first} at x={x}")
        if batch is not None:
            logs, negatives = batch(map(operator.truediv, itertools.repeat(scaled_x), plan.r_pows))
        else:
            logs, negatives = _signed_logs(f, first, plan.r_pows, scaled_x)
            for S in plan.subsets[1:]:  # see FunctionSource: the same calls, errors and order
                _signed_logs(f, S, plan.r_pows[len(S) - len(first):], scaled_x)
        if negatives:
            for S in plan.subsets:
                skip = len(S) - len(first)  # the sequence's points before S's first
                odd.append(sum(not (i - skip) & (len(S) - 1) for i in negatives if i >= skip))
        # a lone subset's |w| rises from 1, so its last weight tells
        unit = len(plan.subsets) == 1 and plan.weights[-1] == 1.0
        yield logs if unit else map(operator.mul, logs, plan.weights)


def _quotient(f: FunctionSource, x: float, plans) -> tuple[float, int]:
    """(log_value, sign) of the quotient over `plans`: one math.fsum over
    every plan's _products, one product per point, so the sum is rounded
    once; the quotient is negative when the negatives at odd weights are odd
    in number. If log_batch gives up anywhere (a ValueError, an
    ArithmeticError or a non-finite sum), the whole pass reruns through
    _signed_logs, which raises the typed errors."""
    batch = getattr(f, "log_batch", None)
    if batch is not None:
        odd = []
        try:
            log_value = math.fsum(itertools.chain.from_iterable(
                _products(f, batch, plans, x, odd)))
            if math.isfinite(log_value):
                return log_value, -1 if sum(odd) & 1 else 1
        except (ValueError, ArithmeticError):
            pass
    odd = []
    # A list: every signed_log call runs first, so an error below is fsum's.
    products = list(_products(f, None, plans, x, odd))
    try:
        log_value = math.fsum(itertools.chain.from_iterable(products))
    except OverflowError as e:  # fsum's "intermediate overflow"
        e.args = (f"{e} at x={x}",)
        raise
    except ValueError:  # fsum's "-inf + inf": products of both signs overflowed
        log_value = math.nan
    if not math.isfinite(log_value):
        raise GeomprodError(f"non-finite sum of weighted logs at x={x}")
    return log_value, -1 if sum(odd) & 1 else 1


def log_partial_product(
    f: FunctionSource, S: IndexSet, r: float, x: float, n_max: int
) -> LogProduct:
    """Accumulate sum_{n=|S|}^{n_max} binom(n-1, |S|-1) * log f(x_n)."""
    n_max = _check_plan(n_max, "S", len(S), lambda m, n: n - m + 1)
    r, x = _check_r(r), check_real(x, "x")
    (plan,) = _sequence_plans([S], r, n_max)
    log_value, sign = _quotient(f, x, (plan,))
    return LogProduct(  # log|P|: the plan weighs an even |S| by -binom
        log_value=log_value if len(S) & 1 else -log_value, sign=sign,
        term_count=len(plan.r_pows), min_point=plan.coeff * x / plan.r_pows[-1],
    )


def _plans(f: FunctionSource, x: float, cfg: GmpConfig, k: int | None = None
           ) -> tuple[SequencePlan, ...]:
    """The plans an estimate at the float x samples: cfg.plan, or with k, a
    k in base, cfg.component_plans[k]. A function that declares itself not
    even (f.even false) fails an 'even' config. x = 0 takes no sample and
    leaves the plans unbuilt: their r**n can overflow for a huge r that
    x = 0 never needs."""
    if cfg.parity == "even" and not getattr(f, "even", True):
        raise ValueError(f"even parity mode requires an even function, got {f}")
    if x == 0.0:
        return ()
    return cfg.plan if k is None else cfg.component_plans[k]


def _combine(log_value: float, sign: int, x: float, cfg: GmpConfig, k: int | None = None):
    """The Estimate of log_value and sign over the factors whose greatest element is k (or all)."""
    try:
        value = sign * math.exp(log_value)
    except OverflowError:
        raise GeomprodError(f"estimate overflows: log value {log_value}") from None
    return Estimate(
        value=value, log_value=log_value, sign=sign, x=x, config=cfg,
        factor_count=factor_count(cfg.base, cfg.n_max, k),
    )


def estimate(f: FunctionSource, x: float, cfg: GmpConfig) -> Estimate:
    """Full multiproduct estimate of f(x) under cfg."""
    x = check_real(x, "x")
    return _combine(*_quotient(f, x, _plans(f, x, cfg)), x, cfg)


def component_estimate(f: FunctionSource, k: int, x: float, cfg: GmpConfig) -> Estimate:
    """Estimate of the order-k component exp(c_k x^k): the quotient
    restricted to the subsets of cfg.base whose greatest element is k.
    A k outside cfg.base, None included, raises ValueError."""
    if k not in cfg.base:
        raise ValueError(f"component order {k} not in base {cfg.base}")
    x = check_real(x, "x")
    return _combine(*_quotient(f, x, _plans(f, x, cfg, k)), x, cfg, k)


def reconstruct_from_components(f: FunctionSource, x: float, cfg: GmpConfig) -> Estimate:
    """Product over k in base of the order-k component estimates.

    The subset family partitions by greatest element, so this regroups the
    exact factors of estimate() and must agree with it in log space. The
    components' log values are summed before one exp, so one past the float
    range alone does not overflow the product.
    """
    x = check_real(x, "x")
    log_values, signs = zip(*[_quotient(f, x, _plans(f, x, cfg, k)) for k in cfg.base])
    return _combine(math.fsum(log_values), math.prod(signs), x, cfg)


def pollution_exponent(j: int, k: int, r: float) -> float:
    """Factor multiplying c_j x^j when the order-j component is sampled on
    the order-k sequence: (r^k - 1)^(j/k) / (r^j - 1). Exactly 1 for j == k."""
    r, j, k = _check_r(r), check_integer(j, "j"), check_integer(k, "k")
    if j < 1 or k < 1:
        raise ValueError(f"orders must be positive, got j={j}, k={k}")
    if j == k:
        return 1.0
    try:
        return (r**k - 1.0) ** (j / k) / (r**j - 1.0)
    except OverflowError as e:
        raise OverflowError(
            f"{e.args[-1]} for (r**{k} - 1)**({j}/{k}) / (r**{j} - 1) at r={r!r}"
        ) from None


def cutoff_n_max(K: float, r: float) -> int:
    """Truncation index with r^n_max ~ K held fixed: ceil(ln K / ln r)."""
    r, cutoff = _check_r(r), check_real(K, "cutoff")
    if not cutoff >= 2:  # nan too
        raise ValueError(f"cutoff must be >= 2, got {K}")
    if cutoff == math.inf:
        raise ValueError(f"cutoff must be finite, got {K}")
    return math.ceil(math.log(cutoff) / math.log(r))


def coupled_n_max(coupling: str, value: int, r: float, base: IndexSet) -> int:
    """The n_max a truncation coupling gives at ratio r: 'fixed_n_max' takes
    value as n_max; 'fixed_cutoff' takes it as the cutoff K of cutoff_n_max,
    raised to |base| so every subset of base has at least one term."""
    if coupling == "fixed_n_max":
        return value
    if coupling == "fixed_cutoff":
        return max(cutoff_n_max(value, r), len(base))
    raise ValueError(f"unknown coupling {coupling!r}")
