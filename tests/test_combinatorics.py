import math

import pytest
from hypothesis import given, strategies as st

from geomprod.combinatorics import (
    IndexSet,
    compositions_bruteforce,
    enumerate_subsets,
    factor_count,
    multiplicity,
)


class TestIndexSet:
    def test_sorted_and_valid(self):
        s = IndexSet.of(4, 2)
        assert s.elements == (2, 4)
        assert len(s) == 2
        assert s.max_element == 4

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (2, 2), (3, 1)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            IndexSet(tuple(bad))


class TestEnumerateSubsets:
    def test_paper_power_set(self):
        fam = enumerate_subsets(IndexSet.of(2, 4))
        assert [s.elements for s in fam] == [(2,), (4,), (2, 4)]

    def test_singleton(self):
        fam = enumerate_subsets(IndexSet.of(1))
        assert [s.elements for s in fam] == [(1,)]

    def test_four_element_base(self):
        fam = enumerate_subsets(IndexSet.of(1, 2, 3, 4))
        assert len(fam) == 15
        sizes = [len(s) for s in fam]
        assert sizes == sorted(sizes)

    def test_deterministic(self):
        base = IndexSet.of(1, 3, 5)
        a = enumerate_subsets(base)
        b = enumerate_subsets(base)
        assert a == b


class TestMultiplicity:
    def test_five_into_two(self):
        # compositions of 5 into 2 parts: (1,4),(2,3),(3,2),(4,1)
        assert multiplicity(5, 2) == 4

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_diagonal(self, m):
        assert multiplicity(m, m) == 1

    def test_no_composition(self):
        assert multiplicity(3, 5) == 0

    def test_matches_bruteforce(self):
        for m in range(1, 5):
            for n in range(1, 13):
                assert multiplicity(n, m) == compositions_bruteforce(n, m)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=50))
    def test_pascal_recurrence(self, m, extra):
        n = m + 1 + extra
        assert multiplicity(n, m) == multiplicity(n - 1, m - 1) + multiplicity(n - 1, m)

    def test_hockey_stick(self):
        for m in range(1, 7):
            for N in range(m, 61):
                total = sum(multiplicity(n, m) for n in range(m, N + 1))
                assert total == math.comb(N, m)

    def test_bruteforce_scale_bound(self):
        with pytest.raises(ValueError):
            compositions_bruteforce(31, 2)
        with pytest.raises(ValueError):
            compositions_bruteforce(10, 7)


class TestFactorCount:
    def test_fig2_config(self):
        assert factor_count(IndexSet.of(1, 2, 3, 4), 40) == 135_750

    def test_singleton(self):
        assert factor_count(IndexSet.of(1), 10) == 10

    def test_two_element(self):
        # {2}: C(10,1), {4}: C(10,1), {2,4}: C(10,2)
        assert factor_count(IndexSet.of(2, 4), 10) == 65

    def test_no_native_overflow(self):
        # exact big-integer arithmetic; must not lose precision
        count = factor_count(IndexSet.of(1, 2, 3, 4, 5, 6), 500)
        assert count == sum(
            math.comb(500, len(s)) for s in enumerate_subsets(IndexSet.of(1, 2, 3, 4, 5, 6))
        )

    def test_n_max_too_small(self):
        with pytest.raises(ValueError):
            factor_count(IndexSet.of(1, 2, 3), 2)
