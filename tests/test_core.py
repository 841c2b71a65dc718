import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from geomprod import core
from geomprod.combinatorics import IndexSet, enumerate_subsets, multiplicity
from geomprod.core import (
    MAX_SAMPLES,
    GmpConfig,
    SequencePlan,
    coefficient,
    component_estimate,
    coupled_n_max,
    cutoff_n_max,
    estimate,
    log_partial_product,
    plan_samples,
    pollution_exponent,
    reconstruct_from_components,
    sequence_point,
)
from geomprod.errors import GeomprodError, ZeroSampleError
from geomprod.oracle import COS, HALF_SIN_SHIFTED, ONE, exp_scaled, monomial_exp
from geomprod.sweeps import SweepSpec, grid_eval

SQRT2 = math.sqrt(2.0)


class TestGmpConfig:
    def test_valid(self):
        GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1, 2))

    def test_r_must_exceed_one(self):
        for r in (1.0, math.inf):
            with pytest.raises(ValueError):
                GmpConfig(r=r, n_max=10, base=IndexSet.of(1))

    def test_n_max_vs_base(self):
        with pytest.raises(ValueError):
            GmpConfig(r=2.0, n_max=2, base=IndexSet.of(1, 2, 3))
        # a string or None is refused before the sample count's arithmetic
        for n_max in (2.5, 40.0, "10", None):
            with pytest.raises(ValueError, match=rf"^n_max={n_max!r} must be an integer$"):
                GmpConfig(r=2.0, n_max=n_max, base=IndexSet.of(1, 2))

    @pytest.mark.parametrize("base", [(1, 2), [1, 2], (1, 1), None])
    def test_base_must_be_an_index_set(self, base):
        # enumerate_subsets reads base as a checked IndexSet: a tuple or a
        # list failed only at the first estimate, with an AttributeError
        with pytest.raises(ValueError, match=rf"^base must be an IndexSet, got {re.escape(repr(base))}$"):
            GmpConfig(r=2.0, n_max=10, base=base)

    @pytest.mark.parametrize("r", ["2", None, 2j])
    def test_r_must_be_a_real_number(self, r):
        message = rf"^ratio r must be a real number, got {re.escape(repr(r))}$"
        with pytest.raises(ValueError, match=message):
            GmpConfig(r=r, n_max=10, base=IndexSet.of(1, 2))
        with pytest.raises(ValueError, match=message):
            coefficient(IndexSet.of(1), r)
        with pytest.raises(ValueError, match=message):
            pollution_exponent(1, 2, r)

    def test_even_mode_needs_even_base(self):
        with pytest.raises(ValueError):
            GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1, 2), parity="even")
        GmpConfig(r=2.0, n_max=10, base=IndexSet.of(2, 4), parity="even")

    def test_even_mode_needs_even_function(self):
        # the library refuses it, not only the CLI; x = 0 included
        cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(2, 4), parity="even")
        msg = "^even parity mode requires an even function, got half_sin_shifted$"
        for x in (0.0, 1.0):
            with pytest.raises(ValueError, match=msg):
                estimate(HALF_SIN_SHIFTED, x, cfg)
            with pytest.raises(ValueError, match=msg):
                component_estimate(HALF_SIN_SHIFTED, 2, x, cfg)
        spec = SweepSpec(HALF_SIN_SHIFTED, (0, 1, 0.5), (2.0,), "fixed_n_max", 10,
                         IndexSet.of(2, 4), "even")
        with pytest.raises(ValueError, match=msg):
            grid_eval(spec)
        # an even function passes, and the mode changes no number
        all_cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(2, 4))
        assert estimate(COS, 1.0, cfg).value == estimate(COS, 1.0, all_cfg).value

    def test_unknown_parity_mode(self):
        with pytest.raises(ValueError, match="parity must be 'all' or 'even', got 'odd'"):
            GmpConfig(r=2.0, n_max=10, base=IndexSet.of(2, 4), parity="odd")

    @pytest.mark.parametrize("base, n_max", [
        ((1,), 1), ((1,), 7), ((2, 5), 2), ((1, 2, 3, 4), 40), ((1, 3, 4, 6, 7), 9),
    ])
    def test_plan_samples_closed_form(self, base, n_max):
        cfg = GmpConfig(r=2.0, n_max=n_max, base=IndexSet(base))
        # subset S samples a record's points from n = |S| on
        assert plan_samples(len(base), n_max) == sum(
            n_max - len(S) + 1 for p in cfg.plan for S in p.subsets)

    def test_plan_size_cap(self):
        # the largest n_max a singleton base may take: n_max samples
        GmpConfig(r=2.0, n_max=MAX_SAMPLES, base=IndexSet.of(1))
        with pytest.raises(ValueError, match="plan cap"):
            GmpConfig(r=2.0, n_max=MAX_SAMPLES + 1, base=IndexSet.of(1))
        # 2^40 subsets are never enumerated: the count is checked first
        with pytest.raises(ValueError, match="23089744183255 samples"):
            GmpConfig(r=2.0, n_max=40, base=IndexSet(tuple(range(1, 41))))


class TestCoefficient:
    def test_paper_cos_pair(self):
        # (r^2-1)^(1/2) * (r^4-1)^(1/4) at r = sqrt(2) is 3^(1/4)
        assert coefficient(IndexSet.of(2, 4), SQRT2) == pytest.approx(
            3.0**0.25, rel=1e-14
        )

    def test_singleton_unity(self):
        assert coefficient(IndexSet.of(1), 2.0) == 1.0

    def test_pair(self):
        assert coefficient(IndexSet.of(1, 2), 2.0) == pytest.approx(
            math.sqrt(3.0), rel=1e-14
        )

    def test_r_validation(self):
        with pytest.raises(ValueError):
            coefficient(IndexSet.of(1), 0.9)

    def test_vanishes_toward_one(self):
        vals = [coefficient(IndexSet.of(2), 1 + 2.0**-t) for t in range(1, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1


class TestSequencePoint:
    def test_first_order(self):
        assert sequence_point(IndexSet.of(1), 2.0, 1.0, 1) == 0.5

    def test_zero_x(self):
        assert sequence_point(IndexSet.of(2, 4), 1.5, 0.0, 3) == 0.0

    def test_order_two(self):
        assert sequence_point(IndexSet.of(2), SQRT2, 1.0, 2) == pytest.approx(0.5)

    def test_decreasing_in_n(self):
        pts = [sequence_point(IndexSet.of(3), 1.3, 2.0, n) for n in range(1, 10)]
        assert all(a > b > 0 for a, b in zip(pts, pts[1:]))

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError, match="sequence index must be >= 1, got 0"):
            sequence_point(IndexSet.of(1), 2.0, 1.0, 0)

    @pytest.mark.parametrize("r, n, power", [(1e200, 2, "r**2 at r=1e+200"),
                                             (2.0, 1100, "r**1100 at r=2.0")])
    def test_overflow_names_r_and_the_power(self, r, n, power):
        message = f"Numerical result out of range for {power}"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            sequence_point(IndexSet.of(1), r, 1.0, n)


class TestLogPartialProduct:
    def test_constant_one(self):
        lp = log_partial_product(ONE, IndexSet.of(1, 2), 1.7, 2.3, 12)
        assert lp.log_value == 0.0
        assert lp.sign == 1
        assert lp.term_count == 11

    def test_exp_geometric_sum(self):
        # f = exp(x), S = {1}: log value telescopes to 1 - 2^-N
        for N in (1, 5, 20):
            lp = log_partial_product(exp_scaled(1.0), IndexSet.of(1), 2.0, 1.0, N)
            assert lp.log_value == pytest.approx(1.0 - 2.0**-N, rel=1e-14)

    def test_gaussian_order_two(self):
        x, r, N = 1.7, 1.5, 25
        lp = log_partial_product(monomial_exp(-0.5, 2), IndexSet.of(2), r, x, N)
        expected = -(x**2 / 2) * (1 - r ** (-2 * N))
        assert lp.log_value == pytest.approx(expected, rel=1e-13)

    def test_min_point(self):
        lp = log_partial_product(ONE, IndexSet.of(1), 2.0, 1.0, 4)
        assert lp.min_point == pytest.approx(1.0 / 16.0)

    def test_zero_sample_rejected(self):
        class Hinge:
            def __call__(self, x):
                return 1.0 - x

            def signed_log(self, x):
                v = 1.0 - x
                if v == 0.0:
                    raise ZeroSampleError(x, "hinge")
                return (1 if v > 0 else -1), math.log(abs(v))

        # S={1}, r=2, x=2 samples the exact zero at 1.0
        with pytest.raises(ZeroSampleError, match=re.escape(
                "function value is zero at sample abscissa 1.0 (hinge) [subset {1}, n=1]")):
            log_partial_product(Hinge(), IndexSet.of(1), 2.0, 2.0, 5)

    def test_n_max_below_cardinality(self):
        with pytest.raises(ValueError):
            log_partial_product(ONE, IndexSet.of(1, 2, 3), 2.0, 1.0, 2)
        with pytest.raises(ValueError, match=r"^n_max='10' must be an integer$"):
            log_partial_product(ONE, IndexSet.of(1, 2), 2.0, 1.0, "10")

    def test_r_validation(self):
        # the plan it builds takes r as checked, so it checks r itself
        for r in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^ratio r must exceed 1 and be finite, got {r}$"):
                log_partial_product(ONE, IndexSet.of(1, 2), r, 1.0, 10)

    def test_plan_cap(self):
        # n_max - |S| + 1 samples over the cap, refused before any r**n is computed
        with pytest.raises(ValueError, match="plan cap"):
            log_partial_product(ONE, IndexSet.of(1), 1 + 1e-6, 1.0, MAX_SAMPLES + 1)


class _Raising:
    """FunctionSource that fails the test if ever sampled."""

    def __call__(self, x):
        raise AssertionError("source must not be evaluated")

    def signed_log(self, x):
        raise AssertionError("source must not be evaluated")


class _Scaled:
    def __init__(self, inner, a):
        self.inner = inner
        self.a = a

    def __call__(self, x):
        return self.inner(self.a * x)

    def signed_log(self, x):
        return self.inner.signed_log(self.a * x)


class TestEstimate:
    def test_constant_one(self):
        cfg = GmpConfig(r=1.3, n_max=9, base=IndexSet.of(1, 2, 3))
        est = estimate(ONE, 2.2, cfg)
        assert est.value == 1.0
        assert est.log_value == 0.0

    def test_x_zero_short_circuits(self):
        cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1, 2))
        est = estimate(_Raising(), 0.0, cfg)
        assert est.value == 1.0

    def test_exp_singleton_closed_form(self):
        cfg = GmpConfig(r=2.0, n_max=20, base=IndexSet.of(1))
        est = estimate(exp_scaled(1.0), 1.5, cfg)
        assert est.value == pytest.approx(math.exp(1.5 * (1 - 2.0**-20)), rel=1e-13)

    def test_factor_count_field(self):
        cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
        est = estimate(HALF_SIN_SHIFTED, 1.0, cfg)
        assert est.factor_count == 135_750

    def test_plan_built_once(self):
        cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
        assert cfg.plan is cfg.plan
        # every subset exactly once, in enumerate_subsets order within each
        # record, and the records in the order of their first subsets
        order = list(enumerate_subsets(cfg.base))
        assert sorted((S for p in cfg.plan for S in p.subsets), key=order.index) == order
        assert all(sorted(p.subsets, key=order.index) == list(p.subsets) for p in cfg.plan)
        firsts = [order.index(p.subsets[0]) for p in cfg.plan]
        assert firsts == sorted(firsts)

    def test_plan_of_a_small_base(self):
        # at r = 2, {2} and {1,2} sample sqrt(3) x / 2^n: {2} from n = 1
        # with the weights 1, 1, {1,2} from n = 2 with -binom(1, 1), so the
        # merged weights are 1 and 1 - 1 = 0
        cfg = GmpConfig(r=2.0, n_max=2, base=IndexSet.of(1, 2))
        assert cfg.plan == (
            SequencePlan(1.0, (2.0, 4.0), (IndexSet.of(1),), (1.0, 1.0)),
            SequencePlan(3**0.5, (2.0, 4.0), (IndexSet.of(2), IndexSet.of(1, 2)), (1.0, 0.0)),
        )

    @pytest.mark.parametrize("r", [2.0, SQRT2, 1.5, 1.0 + 2.0**-8, 1.895715910705717])
    def test_plan_matches_public_formulas(self, r):
        # The plan takes each coefficient from per-element roots and each
        # weight from math.comb, signed + for odd |S| and - for even, and
        # sums a record's weights at each n; they must equal the public
        # formulas to the bit. 12 > n_max, so its r**12 is not among the
        # plan's r**n.
        cfg = GmpConfig(r=r, n_max=8, base=IndexSet.of(1, 2, 5, 12))
        for p in cfg.plan:
            first = len(p.subsets[0])
            assert p.r_pows == tuple(r**n for n in range(first, 9))
            for S in p.subsets:
                assert p.coeff == coefficient(S, r)
            assert p.weights == tuple(
                float(sum((-1) ** (len(S) + 1) * multiplicity(n, len(S))
                          for S in p.subsets if len(S) <= n))
                for n in range(first, 9))

    @given(
        r=st.just(2.0) | st.floats(1.0, 4.0, exclude_min=True),
        base=st.sets(st.integers(1, 6), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_plan_shares_sequences_of_equal_coefficients(self, r, base):
        # one record per coefficient float, in order of its first subset;
        # the first subset with a coefficient has the longest run, one
        # merged weight per point of it, and each other subset's run is the
        # last points of it, skipping |S| - |first S|.
        cfg = GmpConfig(r=r, n_max=8, base=IndexSet(tuple(sorted(base))))
        order = list(enumerate_subsets(cfg.base))
        coeffs = {}
        for S in order:
            coeffs.setdefault(coefficient(S, r), []).append(S)
        assert [(p.coeff, list(p.subsets)) for p in cfg.plan] == list(coeffs.items())
        for p in cfg.plan:
            first = p.subsets[0]
            assert len(p.weights) == len(p.r_pows) == 8 - len(first) + 1
            assert all(len(S) >= len(first) for S in p.subsets)

    def test_fig2_plan_has_315_distinct_points(self):
        # S and S + {1} share a sequence at r = 2, because (2 - 1)^1 is 1.0
        cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
        assert len(cfg.plan) == 8
        assert sum(len(p.r_pows) for p in cfg.plan) == sum(len(p.weights) for p in cfg.plan) == 315
        # {1} alone; each other record is S and S + {1}
        assert cfg.plan[0].subsets == (IndexSet.of(1),)
        for p in cfg.plan[1:]:
            S, with_1 = p.subsets
            assert 1 not in S and with_1 == IndexSet((1, *S))
        # binom(n-1, m-1) = binom(n-1, m) at n = 2m: once for each of the
        # three |S| = 1, three |S| = 2 and one |S| = 3 records
        zeros = [(p.subsets[0], n) for p in cfg.plan
                 for n, w in enumerate(p.weights, len(p.subsets[0])) if w == 0.0]
        assert len(zeros) == 7
        assert all(n == 2 * len(S) for S, n in zeros)

    def test_fig2_bit_identical_to_direct_loop(self):
        # The paper's formula written out independently of the plan, with
        # the signed integer weights of the subsets at each distinct point
        # (coeff, n) summed first, as one fsum over the merged products:
        # every estimate must match it to the last bit on the whole Fig-2
        # grid, over its 315 points.
        r, n_max = 2.0, 40
        cfg = GmpConfig(r=r, n_max=n_max, base=IndexSet.of(1, 2, 3, 4))
        merged = {}
        for S in enumerate_subsets(cfg.base):
            m = len(S)
            coeff = math.prod((r**k - 1.0) ** (1.0 / k) for k in S)
            for n in range(m, n_max + 1):
                merged[coeff, n] = merged.get((coeff, n), 0) + (-1) ** (m + 1) * math.comb(n - 1, m - 1)
        assert len(merged) == 315
        for i in range(81):
            x = 0.05 * i
            products = [math.log1p(0.5 * math.sin(coeff * x / r**n)) * W
                        for (coeff, n), W in merged.items()]
            est = estimate(HALF_SIN_SHIFTED, x, cfg)
            assert est.log_value == math.fsum(products)
            assert est.value == math.exp(math.fsum(products))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x(self, x):
        # a GeomprodError, as for a finite x whose coeff * x overflows
        cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1, 2))
        message = f"sample point coeff * x is not finite for subset {{1}} at x={x}"
        for f in (COS, ONE, _Raising()):
            with pytest.raises(GeomprodError, match=f"^{re.escape(message)}$"):
                estimate(f, x, cfg)
        with pytest.raises(GeomprodError, match=f"^{re.escape(message)}$"):
            log_partial_product(COS, IndexSet.of(1), 2.0, x, 10)

    def test_zero_x_builds_no_plan(self):
        # r = 1e300 overflows r**2, so any plan for this config raises
        cfg = GmpConfig(r=1e300, n_max=10, base=IndexSet.of(1, 2))
        assert estimate(_Raising(), 0.0, cfg).factor_count == 65
        # {2} and {1,2}: C(10,1) + C(10,2)
        assert component_estimate(_Raising(), 2, 0.0, cfg).factor_count == 55
        assert reconstruct_from_components(_Raising(), 0.0, cfg).factor_count == 65
        assert "plan" not in vars(cfg) and "component_plans" not in vars(cfg)
        with pytest.raises(OverflowError):
            estimate(ONE, 0.5, cfg)

    def test_even_symmetry_bit_identical(self):
        cfg = GmpConfig(r=SQRT2, n_max=10, base=IndexSet.of(2, 4), parity="even")
        for x in (0.3, 1.1, 2.7):
            plus = estimate(COS, x, cfg)
            minus = estimate(COS, -x, cfg)
            assert plus.log_value == minus.log_value
            assert plus.sign == minus.sign

    @given(
        st.floats(min_value=0.25, max_value=3.0),
        st.floats(min_value=0.2, max_value=1.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_covariance(self, x, a):
        cfg = GmpConfig(r=1.4, n_max=12, base=IndexSet.of(1, 2))
        f = exp_scaled(0.7)
        direct = estimate(f, a * x, cfg)
        scaled = estimate(_Scaled(f, a), x, cfg)
        assert scaled.log_value == pytest.approx(direct.log_value, abs=1e-12)

    def test_cos_tracks_where_hypotheses_hold(self):
        # the underlying theorem assumes f has no zero in [0, x]; for cos
        # that limits x below pi/2. Tracking is tight there even with the
        # drastic truncation r=sqrt(2), n_max=10.
        cfg = GmpConfig(r=SQRT2, n_max=10, base=IndexSet.of(2, 4), parity="even")
        worst = max(
            abs(estimate(COS, 0.05 * i, cfg).value - math.cos(0.05 * i))
            for i in range(31)
        )
        assert worst <= 0.06

    def test_value_is_finite(self):
        cfg = GmpConfig(r=1.1, n_max=40, base=IndexSet.of(1, 2))
        est = estimate(HALF_SIN_SHIFTED, 2.0, cfg)
        assert math.isfinite(est.value)
        assert abs(est.value) == pytest.approx(math.exp(est.log_value), rel=1e-15)


class TestComponentEstimate:
    def test_singleton_closed_form(self):
        c, r, n_max = 0.8, 1.5, 15
        est = component_estimate(exp_scaled(c), 1, 1.2, GmpConfig(r, n_max, IndexSet.of(1)))
        assert est.value == pytest.approx(
            math.exp(c * 1.2 * (1 - r**-n_max)), rel=1e-13
        )

    def test_constant_one(self):
        est = component_estimate(ONE, 2, 1.0, GmpConfig(1.3, 8, IndexSet.of(2, 4)))
        assert est.value == 1.0

    def test_cos_gaussian_component(self):
        # order-2 component of cos is exp(-x^2/2); small r-1, coupled n_max
        r = 1.02
        n_max = cutoff_n_max(32, r)
        est = component_estimate(COS, 2, 1.0, GmpConfig(r, n_max, IndexSet.of(2, 4)))
        assert est.value == pytest.approx(math.exp(-0.5), abs=2e-3)

    def test_k_not_in_base(self):
        with pytest.raises(ValueError):
            component_estimate(ONE, 3, 1.0, GmpConfig(2.0, 10, IndexSet.of(2, 4)))

    def test_records_built_once_per_config(self, monkeypatch):
        # a loop over x reuses each order's records: one build per k
        built = []
        build = core._sequence_plans
        monkeypatch.setattr(core, "_sequence_plans",
                            lambda subsets, r, n_max: built.append(subsets) or build(subsets, r, n_max))
        cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
        for i in range(1, 11):
            for k in cfg.base:
                component_estimate(HALF_SIN_SHIFTED, k, 0.2 * i, cfg)
            reconstruct_from_components(HALF_SIN_SHIFTED, 0.2 * i, cfg)
        assert [{S[-1] for S in subsets} for subsets in built] == [{1}, {2}, {3}, {4}]
        assert cfg.component_plans is cfg.component_plans
        assert "plan" not in vars(cfg)

    @given(
        r=st.sampled_from([2.0, 1.895715910705717, 1.5, SQRT2]),
        base=st.sets(st.integers(1, 6), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_records_are_the_plan_cut_to_k(self, r, base):
        # order k's records are cfg.plan's, each cut to its subsets whose
        # greatest element is k and run from the first of them on, in the
        # order of those first subsets; at r = 1.895715910705717 {2} and
        # {1,3} share a record, and order 3 keeps {1,3} alone, from n = 2,
        # after {3}
        cfg = GmpConfig(r=r, n_max=8, base=IndexSet(tuple(sorted(base))))
        order = enumerate_subsets(cfg.base)
        for k in cfg.base:
            want = []
            for p in cfg.plan:
                kept = tuple(S for S in p.subsets if S[-1] == k)
                if kept:
                    want.append((p.coeff, p.r_pows[len(kept[0]) - len(p.subsets[0]):], kept))
            want.sort(key=lambda rec: order.index(rec[2][0]))
            assert [tuple(q[:3]) for q in cfg.component_plans[k]] == want


class TestReconstruction:
    @pytest.mark.parametrize(
        "f, cfg",
        [
            (ONE, GmpConfig(r=1.6, n_max=8, base=IndexSet.of(1, 2))),
            (COS, GmpConfig(r=SQRT2, n_max=10, base=IndexSet.of(2, 4), parity="even")),
            (exp_scaled(1.0), GmpConfig(r=1.8, n_max=14, base=IndexSet.of(1, 2))),
            (HALF_SIN_SHIFTED, GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))),
            # {2} and {1,3} share a sequence, and fall in two components
            (HALF_SIN_SHIFTED, GmpConfig(r=1.895715910705717, n_max=12, base=IndexSet.of(1, 2, 3))),
        ],
    )
    def test_partition_identity(self, f, cfg):
        for x in (0.5, 1.0, 2.5):
            whole = estimate(f, x, cfg)
            parts = reconstruct_from_components(f, x, cfg)
            assert parts.log_value == pytest.approx(whole.log_value, abs=1e-12)
            assert parts.sign == whole.sign
            assert parts.factor_count == whole.factor_count

    def test_components_too_large_alone(self):
        # log f = 3000 t - 3000 t^2: at x = 1 the order-1 component is about
        # exp(2000) and the order-2 one exp(-2000), each past the float
        # range, while their product, the estimate, is near f(1) = 1.
        class Bump:
            def __call__(self, t):
                return math.exp(3000 * t - 3000 * t * t)

            def signed_log(self, t):
                return 1, 3000 * t - 3000 * t * t

        f, cfg = Bump(), GmpConfig(r=2.0, n_max=30, base=IndexSet.of(1, 2))
        with pytest.raises(GeomprodError, match="estimate overflows: log value 1999.99"):
            component_estimate(f, 1, 1.0, cfg)
        whole = estimate(f, 1.0, cfg)
        assert whole.value == pytest.approx(1.00014, abs=1e-5)
        parts = reconstruct_from_components(f, 1.0, cfg)
        assert parts.log_value == pytest.approx(whole.log_value, abs=1e-9)
        assert (parts.sign, parts.factor_count) == (whole.sign, whole.factor_count)


class TestPollutionExponent:
    def test_matched_orders(self):
        for k in (1, 2, 5):
            for r in (1.01, 1.5, 3.0):
                assert pollution_exponent(k, k, r) == 1.0

    def test_high_order_value(self):
        assert pollution_exponent(4, 2, 1.1) == pytest.approx(
            (1.1**2 - 1) ** 2 / (1.1**4 - 1), rel=1e-12
        )

    def test_low_order_value(self):
        assert pollution_exponent(1, 2, 1.01) == pytest.approx(
            math.sqrt(1.01**2 - 1) / 0.01, rel=1e-10
        )

    def test_schedule_monotonicity(self):
        schedule = [1 + 2.0**-t for t in range(1, 13)]
        high = [pollution_exponent(4, 2, r) for r in schedule]
        assert all(a >= b for a, b in zip(high, high[1:]))
        assert high[-1] < 1e-2
        low = [pollution_exponent(1, 2, r) for r in schedule]
        assert all(a <= b for a, b in zip(low, low[1:]))
        # exact value is sqrt((r+1)/(r-1)): ~90.5 at t=12, ~1448 at t=20
        assert low[-1] == pytest.approx(math.sqrt((schedule[-1] + 1) / 2.0**-12), rel=1e-12)
        assert pollution_exponent(1, 2, 1 + 2.0**-20) > 1e3

    def test_r_validation(self):
        with pytest.raises(ValueError):
            pollution_exponent(1, 2, 1.0)
        # r is checked first, then that each order is an integer
        with pytest.raises(ValueError, match="ratio r must exceed 1"):
            pollution_exponent("2", 2, 1.0)
        for j, k, name in (("2", 2, "j='2'"), (2, 2.5, "k=2.5")):
            with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer$"):
                pollution_exponent(j, k, 2.0)

    @pytest.mark.parametrize("j, k", [(0, 2), (2, 0), (-1, 1)])
    def test_orders_must_be_positive(self, j, k):
        with pytest.raises(ValueError, match="orders must be positive"):
            pollution_exponent(j, k, 2.0)

    @pytest.mark.parametrize("j, k, formula", [(400, 1, "(r**1 - 1)**(400/1) / (r**400 - 1)"),
                                               (1, 400, "(r**400 - 1)**(1/400) / (r**1 - 1)")])
    def test_overflow_names_r_and_the_powers(self, j, k, formula):
        message = f"Numerical result out of range for {formula} at r=10.0"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            pollution_exponent(j, k, 10.0)


class TestCutoff:
    def test_paper_discipline(self):
        # r^10 = 2^5 at r = sqrt(2)
        assert cutoff_n_max(32, SQRT2) == 10

    def test_grows_toward_one(self):
        ns = [cutoff_n_max(32, 1 + 2.0**-t) for t in range(1, 9)]
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_at_least_one(self):
        # ln 2 / ln r > 0 for every finite r > 1, so the ceiling is never 0
        assert cutoff_n_max(2, 1e300) == cutoff_n_max(2, 1.7976931348623157e308) == 1


class TestCoupledNMax:
    def test_fixed_n_max_is_used_as_given(self):
        for value in (-3, 0, 1, 40):
            assert coupled_n_max("fixed_n_max", value, 2.0, IndexSet.of(1, 2)) == value

    def test_fixed_cutoff_is_raised_to_base(self):
        assert coupled_n_max("fixed_cutoff", 32, SQRT2, IndexSet.of(2, 4)) == 10
        # ceil(ln 2 / ln 2) = 1, below |base| = 3
        assert coupled_n_max("fixed_cutoff", 2, 2.0, IndexSet.of(1, 2, 3)) == 3

    def test_checks(self):
        with pytest.raises(ValueError, match="unknown coupling 'cutoff'"):
            coupled_n_max("cutoff", 32, 2.0, IndexSet.of(1))
        with pytest.raises(ValueError, match="cutoff must be >= 2, got 1"):
            coupled_n_max("fixed_cutoff", 1, 2.0, IndexSet.of(1))
        with pytest.raises(ValueError, match=r"^cutoff must be >= 2, got nan$"):
            coupled_n_max("fixed_cutoff", math.nan, 2.0, IndexSet.of(1))
        with pytest.raises(ValueError, match=r"^cutoff must be finite, got inf$"):
            coupled_n_max("fixed_cutoff", math.inf, 2.0, IndexSet.of(1))
        for value in ("10", None):
            with pytest.raises(ValueError, match=rf"^cutoff must be a real number, got {value!r}$"):
                coupled_n_max("fixed_cutoff", value, 2.0, IndexSet.of(1))
        with pytest.raises(ValueError, match="ratio r must exceed 1"):
            coupled_n_max("fixed_cutoff", 32, 1.0, IndexSet.of(1))
