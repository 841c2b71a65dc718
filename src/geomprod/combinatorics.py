"""Subset enumeration, composition-count weights, and the factor count.

Every factor in an order-m partial product carries an integer weight
binomial(n-1, m-1): the number of ways m positive indices can sum to n.
This module owns those weights, the enumeration of the subsets that
generate the full quotient, their closed-form factor count, and a
brute-force counter used as an independent oracle for the weights.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator


class IndexSet(tuple):
    """A finite set of distinct positive integers, stored sorted as a tuple
    of the ints operator.index gives (a bool or a numpy integer becomes its
    int). A non-iterable, or an element that is no integer, is a ValueError.

    Each element is the order k of one geometric-sequence scaling factor
    (r^k - 1)^(1/k). Length, iteration, `in`, indexing, hashing, equality
    and pickling are the tuple's: IndexSet.of(2, 4) == (2, 4), with the
    same hash.
    """

    __slots__ = ()

    def __new__(cls, elements):
        try:
            elems = tuple(elements)
            ints = tuple(map(operator.index, elems))
        except TypeError:
            raise ValueError(
                f"index set elements must be positive integers: {elements!r}") from None
        if not ints:
            raise ValueError("index set must be non-empty")
        if any(k < 1 for k in ints):
            raise ValueError(f"index set elements must be positive integers: {elems}")
        if any(a >= b for a, b in zip(ints, ints[1:])):
            raise ValueError(f"index set elements must be strictly increasing: {elems}")
        return super().__new__(cls, ints)

    @classmethod
    def of(cls, *elements: int) -> "IndexSet":
        return cls(tuple(sorted(elements)))

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def max_element(self) -> int:
        return self[-1]

    def __repr__(self) -> str:
        return f"IndexSet(elements={self.elements!r})"

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self)) + "}"


def enumerate_subsets(base: IndexSet) -> tuple[IndexSet, ...]:
    """Return all 2^|base| - 1 non-empty subsets of `base`.

    Order is cardinality-major, then lexicographic, so any serialized
    output derived from the subsets is reproducible byte-for-byte. A subset
    of a checked IndexSet is one too, so each is built without the checks.
    A base that is not an IndexSet is a ValueError.
    """
    if not isinstance(base, IndexSet):
        raise ValueError(f"base must be an IndexSet, got {base!r}")
    new = tuple.__new__
    return tuple(
        new(IndexSet, combo)
        for size in range(1, len(base) + 1)
        for combo in itertools.combinations(base.elements, size)
    )


def multiplicity(n: int, m: int) -> int:
    """Number of compositions of n into m positive parts: binomial(n-1, m-1).

    Returns 0 when n < m. Exact integer arithmetic; never overflows.
    """
    n, m = check_integer(n, "n"), check_integer(m, "m")
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    if n < m:
        return 0
    return math.comb(n - 1, m - 1)


_BRUTEFORCE_N_MAX = 30
_BRUTEFORCE_M_MAX = 6


def compositions_bruteforce(n: int, m: int) -> int:
    """Count m-tuples of positive integers summing to n by explicit
    enumeration. Independent oracle for multiplicity(); small scales only.

    Enumeration is depth-first over tuple prefixes, pruned so only partial
    sums that can still reach n are visited; every composition is counted
    exactly once and no binomial identity is used.
    """
    n, m = check_integer(n, "n"), check_integer(m, "m")
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    if n > _BRUTEFORCE_N_MAX or m > _BRUTEFORCE_M_MAX:
        raise ValueError(
            f"brute-force scale exceeded: n <= {_BRUTEFORCE_N_MAX}, m <= {_BRUTEFORCE_M_MAX}"
        )
    if n < m:
        return 0

    def count(remaining: int, parts: int) -> int:
        if parts == 1:
            return 1
        total = 0
        for first in range(1, remaining - parts + 2):
            total += count(remaining - first, parts - 1)
        return total

    return count(n, m)


def check_integer(value, name: str) -> int:
    """operator.index(value), the int of an int, a bool or a numpy integer;
    a value that operator.index refuses is a ValueError that names the
    argument `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} must be an integer") from None


def check_real(value, what: str) -> float:
    """value's float, once value is a numbers.Real (int, bool, float,
    Fraction and numpy reals pass) that has one; anything else is a
    ValueError naming the argument `what`: a value of another type, or an
    int or a Fraction past the float range. A float is returned after one
    type test, before the slower isinstance ABC check."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must lie within the float range, got {value!r}") from None


def check_reals(values, what: str) -> tuple:
    """values' floats as a tuple, once check_real passes each entry as an
    entry of the argument `what`; an argument that is not iterable is a
    ValueError too. The numbers.Real test depends on the type alone, so each
    type among the entries takes it once, and a tuple of floats alone is
    returned as it is; check_real runs over the entries only to name the
    first that fails: one that is no real number, or an int or a Fraction
    that float() cannot take."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be an iterable of real numbers, got {values!r}") from None
    kinds = set(map(type, values))
    if kinds == {float}:
        return values
    if all(issubclass(kind, numbers.Real) for kind in kinds):
        try:
            return tuple(map(float, values))
        except OverflowError:
            pass
    return tuple([check_real(value, f"each entry of {what}") for value in values])


def check_n_max(n_max: int, name: str, size: int) -> int:
    """n_max's int (check_integer), once it is at least `size`, the largest
    subset of the set `name`; a smaller one would leave that subset without
    a term."""
    n_max = check_integer(n_max, "n_max")
    if n_max < size:
        raise ValueError(f"n_max={n_max} must be at least |{name}|={size}")
    return n_max


def factor_count(base: IndexSet, n_max: int, k: int | None = None) -> int:
    """Total multiplicity-weighted number of function factors in the full
    quotient generated by `base`, truncated at n_max; with k, only in the
    part whose subsets have greatest element k.

    Per subset S this is sum_{n=|S|}^{n_max} binomial(n-1, |S|-1), which
    telescopes to binomial(n_max, |S|). Summed over the subsets of each size,
    Vandermonde's identity gives binomial(|base| + n_max, |base|) - 1 for the
    whole base, and binomial(j + n_max, j + 1) for the subsets {k} + T with T
    drawn from the j elements of base below k, without enumerating them.
    """
    n_max = check_n_max(n_max, "base", len(base))
    if k is None:
        return math.comb(len(base) + n_max, len(base)) - 1
    if k not in base:
        raise ValueError(f"component order {k} not in base {base}")
    j = base.elements.index(k)
    return math.comb(j + n_max, j + 1)
