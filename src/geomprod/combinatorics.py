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
from dataclasses import dataclass


@dataclass(frozen=True)
class IndexSet:
    """A finite set of distinct positive integers, stored sorted.

    Each element is the order k of one geometric-sequence scaling factor
    (r^k - 1)^(1/k).
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("index set must be non-empty")
        elems = tuple(self.elements)
        if any((not isinstance(k, int)) or k < 1 for k in elems):
            raise ValueError(f"index set elements must be positive integers: {elems}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError(f"index set elements must be strictly increasing: {elems}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def of(cls, *elements: int) -> "IndexSet":
        return cls(tuple(sorted(elements)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, k: int) -> bool:
        return k in self.elements

    @property
    def max_element(self) -> int:
        return self.elements[-1]

    def __str__(self) -> str:
        return "{" + ",".join(str(k) for k in self.elements) + "}"


def enumerate_subsets(base: IndexSet) -> tuple[IndexSet, ...]:
    """Return all 2^|base| - 1 non-empty subsets of `base`.

    Order is cardinality-major, then lexicographic, so any serialized
    output derived from the subsets is reproducible byte-for-byte.
    """
    return tuple(
        IndexSet(combo)
        for size in range(1, len(base) + 1)
        for combo in itertools.combinations(base.elements, size)
    )


def multiplicity(n: int, m: int) -> int:
    """Number of compositions of n into m positive parts: binomial(n-1, m-1).

    Returns 0 when n < m. Exact integer arithmetic; never overflows.
    """
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


def factor_count(base: IndexSet, n_max: int) -> int:
    """Total multiplicity-weighted number of function factors in the full
    quotient generated by `base`, truncated at n_max.

    Per subset S this is sum_{n=|S|}^{n_max} binomial(n-1, |S|-1), which
    telescopes to binomial(n_max, |S|). Summed over the binomial(|base|, m)
    subsets of each size m, Vandermonde's identity gives
    binomial(|base| + n_max, |base|) - 1 without enumerating them.
    """
    if n_max < len(base):
        raise ValueError(f"n_max={n_max} below largest subset cardinality {len(base)}")
    return math.comb(len(base) + n_max, len(base)) - 1
