import math
import pickle

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

    def test_tuple_contract(self):
        # An IndexSet is an immutable tuple of its elements that still
        # prints as the frozen dataclass did.
        s = IndexSet.of(4, 2)
        for name in ("elements", "extra"):
            with pytest.raises(AttributeError):
                setattr(s, name, (1,))
        assert repr(s) == "IndexSet(elements=(2, 4))"
        assert str(s) == "{2,4}"
        assert IndexSet(elements=(2, 4)) == s
        back = pickle.loads(pickle.dumps(s))
        assert type(back) is IndexSet and back == s and repr(back) == repr(s)
        assert s == (2, 4) and hash(s) == hash((2, 4))
        assert len(s) == 2 and 4 in s and 3 not in s and list(s) == [2, 4]
        assert type(s.elements) is tuple and s.elements == (2, 4)
        assert s.max_element == s[-1] == 4


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
        # built without IndexSet's checks, each is still the IndexSet they pass
        for s in fam:
            assert type(s) is IndexSet and s == IndexSet(tuple(s))
            assert repr(s) == repr(IndexSet(tuple(s)))

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

    @pytest.mark.parametrize("n, m", [(0, 1), (1, 0), (-2, 3), (3, -1)])
    def test_non_positive_arguments(self, n, m):
        for count in (multiplicity, compositions_bruteforce):
            with pytest.raises(ValueError, match="n and m must be positive"):
                count(n, m)

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
        for n_max in (2.5, 40.0):
            with pytest.raises(ValueError, match=rf"^n_max={n_max} must be an integer$"):
                factor_count(IndexSet.of(1, 2), n_max)

    @given(
        elements=st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True),
        extra=st.integers(0, 54),
    )
    def test_per_order_count_matches_enumeration(self, elements, extra):
        base = IndexSet.of(*elements)
        n_max = len(base) + extra
        subsets = enumerate_subsets(base)
        counts = [factor_count(base, n_max, k) for k in base]
        for k, count in zip(base, counts):
            assert count == sum(
                math.comb(n_max, len(s)) for s in subsets if s.max_element == k
            )
        assert sum(counts) == factor_count(base, n_max)

    def test_order_outside_base(self):
        with pytest.raises(ValueError, match="not in base"):
            factor_count(IndexSet.of(2, 4), 10, 3)
