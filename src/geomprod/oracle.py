"""Built-in test functions and independent reference computations.

Everything here is deliberately computed by a different route than the
estimator: closed forms, explicit multi-index enumeration, and truncated
power-series arithmetic. The test suite compares the estimator against
these.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .combinatorics import IndexSet
from .core import coefficient
from .errors import ZeroSampleError


def _cos_signed_log(x: float) -> tuple[int, float]:
    v = math.cos(x)
    if v == 0.0:
        raise ZeroSampleError(x)
    return (1 if v > 0 else -1), math.log(abs(v))


def _half_sin_shifted(x: float) -> float:
    return 1.0 + 0.5 * math.sin(x)


def _half_sin_shifted_signed_log(x: float) -> tuple[int, float]:
    return 1, math.log1p(0.5 * math.sin(x))


class _Tag(NamedTuple):
    """What one builtin tag computes, given the function's c and k."""

    evaluators: Callable  # (c, k) -> (f, signed_log), each a function of x alone
    even: Callable  # k -> whether f is even
    label: Callable  # (c, k) -> str(f)
    taylor: Callable  # (c, k, K_max) -> (n, a_n) pairs of f's Taylor series; other a_n are 0


_TAGS = {
    "one": _Tag(
        evaluators=lambda c, k: (lambda x: 1.0, lambda x: (1, 0.0)),
        even=lambda k: True,
        label=lambda c, k: "one",
        taylor=lambda c, k, K_max: (),
    ),
    "cos": _Tag(
        evaluators=lambda c, k: (math.cos, _cos_signed_log),
        even=lambda k: True,
        label=lambda c, k: "cos",
        taylor=lambda c, k, K_max: (
            (2 * m, (-1) ** m / math.factorial(2 * m)) for m in range(1, K_max // 2 + 1)
        ),
    ),
    "exp_scaled": _Tag(
        evaluators=lambda c, k: (lambda x: math.exp(c * x), lambda x: (1, c * x)),
        even=lambda k: False,
        label=lambda c, k: f"exp_scaled(c={c})",
        taylor=lambda c, k, K_max: (
            (n, c**n / math.factorial(n)) for n in range(1, K_max + 1)
        ),
    ),
    "half_sin_shifted": _Tag(
        evaluators=lambda c, k: (_half_sin_shifted, _half_sin_shifted_signed_log),
        even=lambda k: False,
        label=lambda c, k: "half_sin_shifted",
        taylor=lambda c, k, K_max: (
            (2 * m + 1, 0.5 * (-1) ** m / math.factorial(2 * m + 1))
            for m in range(0, (K_max - 1) // 2 + 1)
        ),
    ),
    "monomial_exp": _Tag(
        evaluators=lambda c, k: (lambda x: math.exp(c * x**k), lambda x: (1, c * x**k)),
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

    signed_log(x) returns (sign, log|f(x)|), computed without under/overflow
    for the exponential tags. It is the tag's evaluator, bound to c and k
    at construction, so a sample costs one call.
    """

    tag: str
    c: float = 0.0
    k: int = 1

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown builtin tag {self.tag!r}")
        if not math.isfinite(self.c):
            raise ValueError(f"function constant must be finite, got {self.c}")
        if self.tag == "monomial_exp" and self.k < 1:
            raise ValueError(f"monomial order must be positive, got {self.k}")
        value, signed_log = _TAGS[self.tag].evaluators(self.c, self.k)
        # Plain attributes, not fields: eq, hash, repr and replace see only
        # tag, c and k.
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "signed_log", signed_log)

    def __reduce__(self):
        # The evaluators are closures, which pickle cannot store; rebuild them.
        return BuiltinFunction, (self.tag, self.c, self.k)

    @property
    def even(self) -> bool:
        return _TAGS[self.tag].even(self.k)

    def __call__(self, x: float) -> float:
        return self._value(x)

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
    """prod_{n=1}^{N} cos(x / 2^n): the bisection product for sin(x)/x."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return math.prod(math.cos(x / 2**n) for n in range(1, N + 1))


def sinc(x: float) -> float:
    """sin(x)/x with the removable singularity handled by series."""
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
    m = len(S)
    if m > _BRUTE_SET_MAX or N > _BRUTE_N_MAX:
        raise ValueError(
            f"brute-force scale exceeded: |S| <= {_BRUTE_SET_MAX}, N <= {_BRUTE_N_MAX}"
        )
    coeff = coefficient(S, r)
    terms = []
    for tup in itertools.product(range(1, N + 1), repeat=m):
        total = sum(tup)
        if total > N:
            continue
        _, log_f = f.signed_log(coeff * x / r**total)
        terms.append(log_f)
    return math.fsum(terms)


@dataclass(frozen=True)
class ComponentSeries:
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
    if K_max > 12:
        raise ValueError(f"K_max must be <= 12, got {K_max}")
    g = _log_of_series(_taylor_coefficients(f, K_max))
    return ComponentSeries(function=f, coefficients=tuple(g[1:]))


def truncated_invariance_closed_form(
    c: float, k: int, r: float, x: float, N: int
) -> float:
    """Exact log of the N-truncated order-k product of exp(c x^k):
    c * x^k * (1 - r^(-k*N))."""
    if not r > 1.0:
        raise ValueError(f"ratio r must exceed 1, got {r}")
    return c * x**k * (1.0 - r ** (-k * N))
