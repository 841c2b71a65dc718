"""Built-in test functions and independent reference computations.

Everything here is deliberately computed by a different route than the
estimator: closed forms, explicit multi-index enumeration, and truncated
power-series arithmetic. The test suite compares the estimator against
these.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .combinatorics import IndexSet, check_integer, check_real
from .core import MAX_SAMPLES, _check_r, _logs, coefficient


def _log_abs_batch(values: list[float]):
    """(log|v| for each value, the positions of the negative values), for
    values of either sign. A block with every value positive takes its logs
    directly. log(0.0) raises ValueError, so a zero from a user source that
    uses this hands the subset to that source's own signed_log; cos, the
    builtin that uses it, has no zero at any float."""
    if min(values) > 0.0:
        return _logs(values), ()
    negatives = list(itertools.compress(
        itertools.count(), map(operator.lt, values, itertools.repeat(0.0))))
    return _logs(map(abs, values)), negatives


def _cos_log_batch(c: float, k: int, points):
    return _log_abs_batch(list(map(math.cos, points)))


class _Tag(NamedTuple):
    """What one builtin tag computes, as plain functions of its c and k.
    Its log is written once, as log_batch; signed_log reads it at one point."""

    value: Callable  # (c, k, x) -> f(x)
    log_batch: Callable  # (c, k, points) -> (log|f| at each point, positions where f < 0)
    even: Callable  # k -> whether f is even
    label: Callable  # (c, k) -> str(f)
    taylor: Callable  # (c, k, K_max) -> (n, a_n) pairs of f's Taylor series; other a_n are 0


_TAGS = {
    "one": _Tag(
        value=lambda c, k, x: 1.0,
        log_batch=lambda c, k, points: ((0.0 for _ in points), ()),
        even=lambda k: True,
        label=lambda c, k: "one",
        taylor=lambda c, k, K_max: (),
    ),
    "cos": _Tag(
        value=lambda c, k, x: math.cos(x),
        log_batch=_cos_log_batch,
        even=lambda k: True,
        label=lambda c, k: "cos",
        taylor=lambda c, k, K_max: (
            (2 * m, (-1) ** m / math.factorial(2 * m)) for m in range(1, K_max // 2 + 1)
        ),
    ),
    "exp_scaled": _Tag(
        value=lambda c, k, x: math.exp(c * x),
        log_batch=lambda c, k, points: (map(operator.mul, itertools.repeat(c), points), ()),
        even=lambda k: False,
        label=lambda c, k: f"exp_scaled(c={c})",
        taylor=lambda c, k, K_max: (
            (n, c**n / math.factorial(n)) for n in range(1, K_max + 1)
        ),
    ),
    "half_sin_shifted": _Tag(
        value=lambda c, k, x: 1.0 + 0.5 * math.sin(x),
        log_batch=lambda c, k, points: (map(
            math.log1p, map(operator.mul, itertools.repeat(0.5), map(math.sin, points))), ()),
        even=lambda k: False,
        label=lambda c, k: "half_sin_shifted",
        taylor=lambda c, k, K_max: (
            (2 * m + 1, 0.5 * (-1) ** m / math.factorial(2 * m + 1))
            for m in range(0, (K_max - 1) // 2 + 1)
        ),
    ),
    "monomial_exp": _Tag(
        value=lambda c, k, x: math.exp(c * x**k),
        log_batch=lambda c, k, points: (map(
            operator.mul, itertools.repeat(c), map(pow, points, itertools.repeat(k))), ()),
        even=lambda k: k % 2 == 0,
        label=lambda c, k: f"monomial_exp(c={c}, k={k})",
        taylor=lambda c, k, K_max: (
            (k * m, c**m / math.factorial(m)) for m in range(1, K_max // k + 1)
        ),
    ),
}


@dataclass(frozen=True)
class BuiltinFunction:
    """A built-in analytic function with f(0) = 1.

    Tags: 'one', 'cos', 'exp_scaled' (exp(c*x)), 'half_sin_shifted'
    (1 + sin(x)/2), 'monomial_exp' (exp(c*x^k)).

    log_batch(points) returns log|f| at each point and the positions where
    f < 0 (see core.FunctionSource), computed without under/overflow for the
    exponential tags: the estimator evaluates each subset's samples in one
    pass of C-level maps. signed_log(x) is its value at one point, so the
    two agree by construction. c is kept as its float and, for
    'monomial_exp', k as its int, the values their checks return.
    """

    tag: str
    c: float = 0.0
    k: int = 1

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown builtin tag {self.tag!r}")
        object.__setattr__(self, "c", check_real(self.c, "function constant c"))
        if not math.isfinite(self.c):
            raise ValueError(f"function constant must be finite, got {self.c}")
        if self.tag == "monomial_exp":
            object.__setattr__(self, "k", check_integer(self.k, "k"))
            if self.k < 1:
                raise ValueError(f"monomial order must be positive, got {self.k}")

    @property
    def even(self) -> bool:
        return _TAGS[self.tag].even(self.k)

    def __call__(self, x: float) -> float:
        return _TAGS[self.tag].value(self.c, self.k, x)

    def signed_log(self, x: float) -> tuple[int, float]:
        logs, negatives = self.log_batch((x,))
        (log_f,) = logs
        return (-1 if negatives else 1), log_f

    def log_batch(self, points):
        return _TAGS[self.tag].log_batch(self.c, self.k, points)

    def __str__(self) -> str:
        return _TAGS[self.tag].label(self.c, self.k)


ONE = BuiltinFunction("one")
COS = BuiltinFunction("cos")
HALF_SIN_SHIFTED = BuiltinFunction("half_sin_shifted")


def exp_scaled(c: float) -> BuiltinFunction:
    return BuiltinFunction("exp_scaled", c=c)


def monomial_exp(c: float, k: int) -> BuiltinFunction:
    return BuiltinFunction("monomial_exp", c=c, k=k)


def euler_partial_product(x: float, N: int) -> float:
    """prod_{n=1}^{N} cos(x / 2^n): the bisection product for sin(x)/x,
    for N from 1 to core.MAX_SAMPLES."""
    x, N = check_real(x, "x"), check_integer(N, "N")
    if not 1 <= N <= MAX_SAMPLES:
        raise ValueError(f"N must be from 1 to {MAX_SAMPLES}, got {N}")
    # ldexp(x, -n) rounds as x / 2**n does, and takes n past 1023, where
    # 2**n has no float
    return math.prod(math.cos(math.ldexp(x, -n)) for n in range(1, N + 1))


def sinc(x: float) -> float:
    """sin(x)/x with the removable singularity handled by series."""
    x = check_real(x, "x")
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


_BRUTE_SET_MAX = 3
_BRUTE_N_MAX = 10


def multiindex_bruteforce(f, S: IndexSet, r: float, x: float, N: int) -> float:
    """Log of the unconsolidated product: one factor per tuple (n_j), j in S,
    each n_j >= 1, sum(n_j) <= N, evaluated at coeff(S, r) * x / r^sum.

    Small scales only; pairs with core.log_partial_product as the two sides
    of the index-consolidation identity.
    """
    x, N = check_real(x, "x"), check_integer(N, "N")
    m = len(S)
    if m > _BRUTE_SET_MAX or N > _BRUTE_N_MAX:
        raise ValueError(
            f"brute-force scale exceeded: |S| <= {_BRUTE_SET_MAX}, N <= {_BRUTE_N_MAX}"
        )
    r = _check_r(r)
    coeff = coefficient(S, r)
    terms = []
    for tup in itertools.product(range(1, N + 1), repeat=m):
        total = sum(tup)
        if total > N:
            continue
        _, log_f = f.signed_log(coeff * x / r**total)
        terms.append(log_f)
    return math.fsum(terms)


class ComponentSeries(NamedTuple):
    """Power-series coefficients c_1..c_K of log f for a builtin."""

    function: BuiltinFunction
    coefficients: tuple[float, ...]

    def log_f(self, x: float) -> float:
        return math.fsum(c * x**k for k, c in enumerate(self.coefficients, start=1))

    def f(self, x: float) -> float:
        return math.exp(self.log_f(x))


def _taylor_coefficients(f: BuiltinFunction, K_max: int) -> list[float]:
    a = [0.0] * (K_max + 1)
    a[0] = 1.0
    for n, a_n in _TAGS[f.tag].taylor(f.c, f.k, K_max):
        a[n] = a_n
    return a


def _log_of_series(a: list[float]) -> list[float]:
    """Coefficients g_1.. of log f from Taylor coefficients a_0=1, a_1, ...

    Standard recurrence from f' = g' f:
    g_n = a_n - (1/n) * sum_{j=1}^{n-1} j * g_j * a_{n-j}.
    """
    K = len(a) - 1
    g = [0.0] * (K + 1)
    for n in range(1, K + 1):
        acc = sum(j * g[j] * a[n - j] for j in range(1, n))
        g[n] = a[n] - acc / n
    return g


def log_series_components(f: BuiltinFunction, K_max: int = 12) -> ComponentSeries:
    """c_1..c_{K_max} of log f, derived by truncated series arithmetic."""
    K_max = check_integer(K_max, "K_max")
    if not 0 <= K_max <= 12:
        raise ValueError(f"K_max must be from 0 to 12, got {K_max}")
    g = _log_of_series(_taylor_coefficients(f, K_max))
    return ComponentSeries(function=f, coefficients=tuple(g[1:]))


def truncated_invariance_closed_form(
    c: float, k: int, r: float, x: float, N: int
) -> float:
    """Exact log of the N-truncated order-k product of exp(c x^k):
    c * x^k * (1 - r^(-k*N)). An overflow names the expression and its
    arguments."""
    c, k, r = check_real(c, "c"), check_integer(k, "k"), _check_r(r)
    x, N = check_real(x, "x"), check_integer(N, "N")
    try:
        return c * x**k * (1.0 - r ** (-k * N))
    except OverflowError as e:
        raise OverflowError(
            f"{e.args[-1]} for c * x**{k} * (1 - r**(-{k} * {N})) at c={c!r}, r={r!r}, x={x!r}"
        ) from None
