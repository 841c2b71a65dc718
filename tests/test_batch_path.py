"""A source's log_batch against its signed_log, one call per sample: the
same Estimates and LogProducts to the bit, or the same error type and
message; and the batch path's sharing of sequences between subsets."""

import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from geomprod.combinatorics import IndexSet, enumerate_subsets
from geomprod.core import (
    GmpConfig,
    coefficient,
    component_estimate,
    estimate,
    log_partial_product,
    plan_samples,
    sequence_point,
)
from geomprod.errors import GeomprodError, ZeroSampleError
from geomprod.oracle import COS, HALF_SIN_SHIFTED, ONE, _log_abs_batch, exp_scaled, monomial_exp
from geomprod.signal import _Pchip, normalize
from geomprod.sweeps import DEFAULT_SCHEDULE, SweepSpec, grid_eval


class _SignedLogOnly:
    """A builtin seen through __call__ and signed_log alone, so the
    estimator calls signed_log once per sample; calls counts those calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, x):
        return self.inner(x)

    def signed_log(self, x):
        self.calls += 1
        return self.inner.signed_log(x)


class _BatchOnly:
    """A builtin's log_batch with a signed_log that fails the test, so a
    result proves log_batch produced it."""

    def __init__(self, inner):
        self.log_batch = inner.log_batch

    def __call__(self, x):
        raise AssertionError("__call__ ran")

    def signed_log(self, x):
        raise AssertionError("signed_log ran")


def _outcome(fn, *args):
    """repr of fn's result, or of its error's type and message: equal reprs
    are equal floats to the bit, -0.0 included."""
    try:
        return repr(fn(*args))
    except Exception as e:
        return repr((type(e), str(e)))


def _same_through_both(fn, f, *args):
    batch = _outcome(fn, f, *args)
    assert batch == _outcome(fn, _SignedLogOnly(f), *args)
    return batch


class _CountingBatch:
    """A source whose log_batch counts the points it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.points = 0

    def __call__(self, x):
        return self.inner(x)

    def signed_log(self, x):
        return self.inner.signed_log(x)

    def log_batch(self, points):
        points = list(points)
        self.points += len(points)
        return self.inner.log_batch(points)


class _CosMinus:
    """cos(t) - cos(a): exactly 0 at t = a and negative where cos(t) <
    cos(a), with the cos builtin's log_batch over its values (cos itself is
    never exactly 0 at a float)."""

    def __init__(self, a):
        self.level = math.cos(a)

    def __call__(self, t):
        return math.cos(t) - self.level

    def signed_log(self, t):
        v = math.cos(t) - self.level
        if v == 0.0:
            raise ZeroSampleError(t)
        return (1 if v > 0 else -1), math.log(abs(v))

    def log_batch(self, points):
        return _log_abs_batch([math.cos(t) - self.level for t in points])


_CONSTANTS = st.floats(-1e3, 1e3) | st.floats(-1e300, 1e300)


@st.composite
def _cases(draw):
    elements = draw(st.sets(st.integers(1, 8), min_size=1, max_size=4))
    # At r = 2 the order-1 coefficient is 1.0, so S and S + {1} sample one sequence.
    r = draw(st.just(2.0) | st.floats(1.0, 4.0, exclude_min=True))
    if r == 2.0:
        elements.add(1)
    base = IndexSet(tuple(sorted(elements)))
    n_max = draw(st.integers(len(base), 200))
    x = draw(st.floats(-10.0, 10.0) | st.floats(-1e300, 1e300))
    cfg = GmpConfig(r=r, n_max=n_max, base=base)
    f = draw(st.sampled_from([ONE, COS, HALF_SIN_SHIFTED])
             | st.builds(exp_scaled, _CONSTANTS)
             | st.builds(monomial_exp, _CONSTANTS, st.integers(1, 200))
             | st.none())
    if f is None:  # zero at one of the estimate's own samples
        S = draw(st.sampled_from(enumerate_subsets(base)))
        f = _CosMinus(sequence_point(S, r, x, draw(st.integers(len(S), n_max))))
    return f, cfg, x


_FIG2 = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))


class TestBothPathsAgree:
    @given(_cases())
    @settings(max_examples=200, deadline=None)
    # cos blocks with every value positive, with negative values, and with
    # an exact zero (at n = 3 of {2, 4})
    @example((COS, _FIG2, 0.5))
    @example((COS, _FIG2, 3.0))
    @example((_CosMinus(sequence_point(IndexSet.of(2, 4), 2.0, 3.0, 3)), _FIG2, 3.0))
    def test_every_builtin(self, case):
        f, cfg, x = case
        counted = _SignedLogOnly(f)
        out = _outcome(estimate, counted, x, cfg)
        assert out == _outcome(estimate, f, x, cfg)
        if out.startswith("Estimate("):  # one signed_log call per sample, none at x = 0
            assert counted.calls == (plan_samples(len(cfg.base), cfg.n_max) if x else 0)
        for k in cfg.base:
            _same_through_both(component_estimate, f, k, x, cfg)
        for S in enumerate_subsets(cfg.base):
            _same_through_both(log_partial_product, f, S, cfg.r, x, cfg.n_max)

    def test_fig2_grid(self):
        cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
        assert plan_samples(4, 40) == 583
        counted = _SignedLogOnly(HALF_SIN_SHIFTED)
        for i in range(81):
            before = counted.calls
            x = 0.05 * i
            assert repr(estimate(counted, x, cfg)) == repr(estimate(HALF_SIN_SHIFTED, x, cfg))
            assert counted.calls - before == (583 if i else 0)
        assert counted.calls == 46_640

    def test_default_sweep(self):
        def rows(f):
            return grid_eval(SweepSpec(
                function=f, grid=(0.0, 3.0, 0.05), schedule=DEFAULT_SCHEDULE,
                coupling="fixed_cutoff", coupling_value=32, base=IndexSet.of(2, 4),
                parity="even"))

        batch = rows(COS)
        assert len(batch) == 488
        counted = _SignedLogOnly(COS)
        assert repr(batch) == repr(rows(counted))
        assert counted.calls == 320_820


class TestSharedSequences:
    """At r = 2 a batch estimate evaluates each distinct sample point once:
    S + {1} reuses the logs of S. A scalar-only source still takes one
    signed_log call per sample (TestBothPathsAgree)."""

    def test_fig2_grid(self):
        cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
        counted = _CountingBatch(HALF_SIN_SHIFTED)
        for i in range(81):
            before = counted.points
            x = 0.05 * i
            assert repr(estimate(counted, x, cfg)) == repr(estimate(HALF_SIN_SHIFTED, x, cfg))
            assert counted.points - before == (315 if i else 0)
        assert counted.points == 25_200

    @pytest.mark.parametrize("cfg, points", [
        (GmpConfig(r=2.0, n_max=20, base=IndexSet.of(1, 2)), 40),
        (GmpConfig(r=1.5, n_max=24, base=IndexSet.of(1, 2, 3)), 163),  # no two coefficients equal
    ])
    def test_forecast_configs(self, cfg, points):
        sig = normalize([(0.05 * i, 1.0 + 0.5 * math.sin(0.05 * i)) for i in range(81)])
        counted = _CountingBatch(sig)
        assert repr(estimate(counted, 1.0, cfg)) == repr(estimate(_SignedLogOnly(sig), 1.0, cfg))
        assert counted.points == points

    def test_suffix_drops_a_negative_sample(self):
        # {2} and {1,2} sample sqrt(3) x / 2^n: {2} from n = 1, {1,2} from
        # n = 2. At x = 3 the one negative sample, cos(2.598...), is {2}'s
        # first, so it flips the sign of {2}'s product and not of {1,2}'s.
        cfg = GmpConfig(r=2.0, n_max=12, base=IndexSet.of(1, 2))
        counted = _CountingBatch(COS)
        est = estimate(counted, 3.0, cfg)
        assert repr(est) == repr(estimate(_SignedLogOnly(COS), 3.0, cfg))
        assert est.sign == -1
        assert counted.points == 24  # 12 for {1}, 12 for the shared sequence

    @pytest.mark.parametrize("k, points", [(1, 40), (2, 40), (3, 79), (4, 156)])
    def test_component_evaluates_only_kept_sequences(self, k, points):
        # k = 3 keeps {3}, {1,3}, {2,3} and {1,2,3}: the sequences of {3}
        # (n = 1..40) and of {2,3} (n = 2..40)
        counted = _CountingBatch(HALF_SIN_SHIFTED)
        out = _same_through_both(component_estimate, counted, k, 3.0, _FIG2)
        assert out.startswith("Estimate(")
        assert counted.points == points

    def test_component_without_the_first_subset_of_a_sequence(self):
        # At this r the coefficients of {2} and {1,3} are one float, so
        # {1,3}'s run is {2}'s from n = 2. The order-3 component keeps
        # {1,3} and not {2}, and evaluates {1,3}'s own 11 points.
        cfg = GmpConfig(r=1.895715910705717, n_max=12, base=IndexSet.of(1, 2, 3))
        shared = [(p.subsets, len(p.r_pows), [len(w) for w in p.weights])
                  for p in cfg.plan if len(p.subsets) > 1]
        assert shared == [((IndexSet.of(2), IndexSet.of(1, 3)), 12, [12, 11])]
        counted = _CountingBatch(HALF_SIN_SHIFTED)
        assert _same_through_both(component_estimate, counted, 3, 1.0, cfg).startswith("Estimate(")
        assert counted.points == 12 + 11 + 11 + 10  # {3}, {1,3}, {2,3}, {1,2,3}
        counted = _CountingBatch(HALF_SIN_SHIFTED)
        _same_through_both(estimate, counted, 1.0, cfg)
        assert counted.points == 68  # 79 samples, 11 of them shared


@st.composite
def _shared_cases(draw):
    r = draw(st.sampled_from([2.0, 1.895715910705717, 1.5, math.sqrt(2.0)]))
    base = IndexSet(tuple(sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=4)))))
    cfg = GmpConfig(r=r, n_max=draw(st.integers(len(base), 30)), base=base)
    f = draw(st.sampled_from([COS, HALF_SIN_SHIFTED])
             | st.builds(exp_scaled, st.floats(-5.0, 5.0)))
    return f, cfg, draw(st.floats(-4.0, 4.0))


class TestSequenceRecords:
    """Each SequencePlan takes one log_batch call over its points, and a
    scalar source still one signed_log call per sample of each subset."""

    @given(_shared_cases())
    @settings(max_examples=60, deadline=None)
    def test_points_and_calls(self, case):
        f, cfg, x = case
        for k in (None, *cfg.base):
            batch, scalar = _CountingBatch(f), _SignedLogOnly(f)
            if k is None:
                out = _outcome(estimate, batch, x, cfg)
                assert out == _outcome(estimate, scalar, x, cfg)
            else:
                out = _outcome(component_estimate, batch, k, x, cfg)
                assert out == _outcome(component_estimate, scalar, k, x, cfg)
            assert out.startswith("Estimate(")
            kept = [[(S, w) for S, w in zip(p.subsets, p.weights) if k in (None, S[-1])]
                    for p in cfg.plan]
            # a record cut to its kept subsets runs from its first kept one
            assert batch.points == (sum(len(p[0][1]) for p in kept if p) if x else 0)
            assert scalar.calls == (sum(len(w) for p in kept for _, w in p) if x else 0)
            if k is None:
                assert scalar.calls == (plan_samples(len(cfg.base), cfg.n_max) if x else 0)


class TestSampledSignalBatch:
    SIG = normalize([(0.05 * i, 1.0 + 0.5 * math.sin(0.05 * i)) for i in range(81)])
    CFG = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))

    def test_equals_signed_log(self):
        points = [sequence_point(IndexSet.of(2, 3), 2.0, 3.9, n) for n in range(2, 41)]
        logs, negatives = self.SIG.log_batch(iter(points))
        assert [repr(v) for v in logs] == [repr(self.SIG.signed_log(p)[1]) for p in points]
        assert list(negatives) == []

    @pytest.mark.parametrize("points", [[4.5, 2.0, 1.0], [-1.0, -0.5], [4.0, math.nan]])
    def test_block_out_of_range(self, points):
        with pytest.raises(ValueError, match="leave"):
            self.SIG.log_batch(points)

    @pytest.mark.parametrize("x", [5.0, -1.0])
    def test_out_of_range_estimate_raises_the_scalar_error(self, x):
        out = _same_through_both(estimate, self.SIG, x, self.CFG)
        assert out.startswith("(<class 'geomprod.errors.DomainCoverageError'>")

    @pytest.mark.parametrize("x, error", [
        (2.0, "ZeroSampleError"),  # the PCHIP is exactly 0 at the knot t = 1
        (3.6, "NonPositiveSampleError"),  # and negative beyond it
    ])
    def test_non_positive_estimate_raises_the_scalar_error(self, x, error):
        sig = normalize([(0.0, 1.0), (0.5, 0.5), (1.0, 2.0), (4.0, 3.0)])
        sig._interp = _Pchip((0.0, 0.5, 1.0, 4.0), (1.0, 0.5, 0.0, -3.0))
        with pytest.raises(ValueError):
            list(sig.log_batch([x / 2.0, x / 4.0])[0])
        out = _same_through_both(estimate, sig, x, GmpConfig(r=2.0, n_max=12, base=IndexSet.of(1, 2)))
        assert out.startswith(f"(<class 'geomprod.errors.{error}'>")


class _NoMultiply(float):
    """A log that fails the test when multiplied by +1.0."""

    def __mul__(self, other):
        if other == 1.0:
            raise AssertionError("a log was multiplied by a unit weight")
        return float(self) * other

    __rmul__ = __mul__


class _UnitLogs:
    """1 + sin(t)/2 whose logs refuse multiplication."""

    def __call__(self, t):
        return HALF_SIN_SHIFTED(t)

    def signed_log(self, t):
        return 1, _NoMultiply(HALF_SIN_SHIFTED.signed_log(t)[1])

    def log_batch(self, points):
        return [self.signed_log(p)[1] for p in points], ()


class TestUnitWeights:
    """Where every signed weight is +1 (|S| = 1, or an odd |S| with a single
    sample), the logs are summed as they are: v * 1.0 == v. An even |S|
    with a single sample has the weight -1.0, and its log is multiplied."""

    @pytest.mark.parametrize("path", [_BatchOnly, _SignedLogOnly], ids=["log_batch", "signed_log"])
    @pytest.mark.parametrize("S, n_max", [
        (IndexSet.of(3), 30), (IndexSet.of(1, 2), 2), (IndexSet.of(1, 2, 3), 3)])
    def test_no_multiply(self, path, S, n_max):
        lp = log_partial_product(path(_UnitLogs()), S, 1.5, 2.0, n_max)
        assert repr(lp) == repr(log_partial_product(HALF_SIN_SHIFTED, S, 1.5, 2.0, n_max))
        coeff = coefficient(S, 1.5)
        logs = [HALF_SIN_SHIFTED.signed_log(coeff * 2.0 / 1.5**n)[1]
                for n in range(len(S), n_max + 1)]
        assert repr(lp.log_value) == repr(math.fsum(logs))


class _Marked:
    """1 + sin(t)/2 through log_batch, with the values at the given
    positions of each block reported negative."""

    def __init__(self, negatives):
        self.negatives = negatives

    def log_batch(self, points):
        return [HALF_SIN_SHIFTED.signed_log(p)[1] for p in points], self.negatives


# A 10-element S at n_max 300 has 291 samples with weights C(n-1, 9) up to
# C(299, 9), about 1.6e16: past 2**53, where a float weight has lost its low
# bits, so an odd weight is stored even.
_BIG_WEIGHTS = [math.comb(n - 1, 9) for n in range(10, 301)]
_ODD = [i for i, w in enumerate(_BIG_WEIGHTS) if w > 2**53 and w % 2]
_EVEN = [i for i, w in enumerate(_BIG_WEIGHTS) if w > 2**53 and w % 2 == 0]


class TestWeightsPast2To53:
    S, R, X = IndexSet(tuple(range(1, 11))), 1.2, 1.5

    @pytest.mark.parametrize("negatives", [
        [], _ODD[:1], _EVEN[:1], _ODD[:1] + _EVEN[:1], _ODD[:2], _ODD[-3:] + _EVEN[-2:]])
    def test_sum_and_sign_match_integer_weights(self, negatives):
        assert len(_BIG_WEIGHTS) == 291
        assert all(float(_BIG_WEIGHTS[i]) % 2 == 0 for i in _ODD[:2])
        lp = log_partial_product(_BatchOnly(_Marked(negatives)), self.S, self.R, self.X, 300)
        coeff = coefficient(self.S, self.R)
        direct = math.fsum(
            HALF_SIN_SHIFTED.signed_log(coeff * self.X / self.R**n)[1] * w
            for n, w in zip(range(10, 301), _BIG_WEIGHTS))
        assert repr(lp.log_value) == repr(direct)
        assert lp.sign == (-1 if sum(_BIG_WEIGHTS[i] for i in negatives) % 2 else 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8])
    def test_sign_matches_exact_parity_at_each_cardinality(self, m):
        # sample i of S carries C(m-1+i, m-1): odd exactly where i & (m-1) == 0
        S = IndexSet(tuple(range(1, m + 1)))
        odd = [i for i in range(41) if not i & (m - 1)]
        even = [i for i in range(41) if i & (m - 1)]
        for negatives in ([], odd[:1], odd[1:2], odd[:2], odd[-3:], even[:1], even[:3],
                          odd[:1] + even[:2], odd[-3:] + even[-2:]):
            lp = log_partial_product(_BatchOnly(_Marked(negatives)), S, self.R, self.X, m + 40)
            assert lp.sign == (
                -1 if sum(math.comb(len(S) - 1 + i, len(S) - 1) for i in negatives) % 2 else 1)

    def test_weight_past_the_float_range(self):
        # C(2999, 199) exceeds 2**1024, the float range
        S = IndexSet(tuple(range(1, 201)))
        with pytest.raises(OverflowError, match=r"^int too large to convert to float \[subset \{1,2,3,"):
            log_partial_product(ONE, S, 1.001, 1.0, 3000)


class TestSign:
    # S = {1, 2} at r = 2 samples sqrt(3) x / 2^n with weight n - 1.
    S = IndexSet.of(1, 2)

    def _product(self, f, first_point):
        x = first_point * 4.0 / coefficient(self.S, 2.0)  # sample n = 2 near first_point
        return log_partial_product(f, self.S, 2.0, x, 12)

    def test_negative_sample_at_odd_weight_flips(self):
        # n = 2 at 2.5 (cos < 0, weight 1); every later sample is positive
        lp = self._product(_BatchOnly(COS), 2.5)
        assert lp.sign == -1
        assert repr(lp) == repr(self._product(_SignedLogOnly(COS), 2.5))

    def test_negative_sample_at_even_weight_does_not(self):
        # n = 2 at 5.0 (cos > 0), n = 3 at 2.5 (cos < 0, weight 2)
        lp = self._product(_BatchOnly(COS), 5.0)
        assert lp.sign == 1
        assert repr(lp) == repr(self._product(_SignedLogOnly(COS), 5.0))


class _GivesUpOn:
    """A builtin whose log_batch gives up (ValueError) on the one sequence
    that holds `point` and answers every other; calls counts signed_log's
    calls."""

    def __init__(self, inner, point):
        self.inner = inner
        self.point = point
        self.calls = 0

    def __call__(self, x):
        return self.inner(x)

    def signed_log(self, x):
        self.calls += 1
        return self.inner.signed_log(x)

    def log_batch(self, points):
        points = list(points)
        if self.point in points:
            raise ValueError("gives up")
        return self.inner.log_batch(points)


class TestOneDecision:
    """When log_batch gives up on any sequence, the whole pass reruns
    through signed_log: one call per sample of the plan, and the same
    estimate to the bit."""

    @pytest.mark.parametrize("S, n", [(IndexSet.of(1), 40), (IndexSet.of(2, 4), 3),
                                      (IndexSet.of(1, 2, 3, 4), 4)])
    def test_estimate_equals_signed_log_only(self, S, n):
        f = _GivesUpOn(HALF_SIN_SHIFTED, sequence_point(S, 2.0, 1.5, n))
        counted = _SignedLogOnly(HALF_SIN_SHIFTED)
        assert repr(estimate(f, 1.5, _FIG2)) == repr(estimate(counted, 1.5, _FIG2))
        assert f.calls == counted.calls == plan_samples(4, 40)

    def test_zero_sample_names_the_first_failing_sample(self):
        # {2,4} and {1,2,4} share a sequence at r = 2; its point at n = 5
        # is f's one zero, so log_batch gives up on that sequence only, and
        # signed_log fails first at {2,4}, n = 5.
        f = _CosMinus(sequence_point(IndexSet.of(2, 4), 2.0, 3.0, 5))
        with pytest.raises(ValueError):
            list(f.log_batch([sequence_point(IndexSet.of(2, 4), 2.0, 3.0, 5)])[0])
        with pytest.raises(ZeroSampleError, match=re.escape("[subset {2,4}, n=5]")):
            estimate(f, 3.0, _FIG2)


class TestFallback:
    """Each case makes log_batch give up, so the pass goes through
    signed_log, which raises the error."""

    def test_exp_accumulation_overflows_to_inf(self):
        # at r = 1e10 the terms are about 1e300 * 1e9 / 1e10^(n-1): the
        # first overflows to inf, the rest sum to about 1e299
        f, S = exp_scaled(1e300), IndexSet.of(1)
        out = _same_through_both(log_partial_product, f, S, 1e10, 1e9, 5)
        assert "non-finite sum of weighted logs at x=1000000000.0" in out
        with pytest.raises(AssertionError, match="signed_log ran"):
            log_partial_product(_BatchOnly(f), S, 1e10, 1e9, 5)

    def test_infinite_logs_of_both_signs(self):
        # at r = 1e10 the first samples of {1} and of {1,2} give log f =
        # inf, weighted +1 and -1: fsum meets -inf + inf
        f, cfg = exp_scaled(1e300), GmpConfig(r=1e10, n_max=5, base=IndexSet.of(1, 2))
        out = _same_through_both(estimate, f, 1e9, cfg)
        assert out == repr((GeomprodError, "non-finite sum of weighted logs at x=1000000000.0"))

    def test_monomial_power_overflows(self):
        f, S = monomial_exp(1.0, 200), IndexSet.of(1)
        out = _same_through_both(log_partial_product, f, S, 2.0, 100.0, 10)
        assert "OverflowError" in out
        with pytest.raises(AssertionError, match="signed_log ran"):
            log_partial_product(_BatchOnly(f), S, 2.0, 100.0, 10)

    def test_fsum_intermediate_overflow(self):
        # terms 1e308, 5e307, ... are finite; their sum is not
        f, S = exp_scaled(1e300), IndexSet.of(1)
        out = _same_through_both(log_partial_product, f, S, 2.0, 2e8, 10)
        assert "intermediate overflow in fsum" in out
        with pytest.raises(AssertionError, match="signed_log ran"):
            log_partial_product(_BatchOnly(f), S, 2.0, 2e8, 10)

    def test_zero_sample_of_a_user_source(self):
        class Hinge:
            def __call__(self, x):
                return 1.0 - x

            def signed_log(self, x):
                v = 1.0 - x
                if v == 0.0:
                    raise ZeroSampleError(x)
                return (1 if v > 0 else -1), math.log(abs(v))

            def log_batch(self, points):
                # log(0.0) raises ValueError: signed_log takes the subset
                return [math.log(abs(1.0 - p)) for p in points], ()

        # S={1}, r=2, x=2 samples the exact zero at 1.0, the first sample
        with pytest.raises(ZeroSampleError, match=r"abscissa 1\.0 \[subset \{1\}, n=1\]"):
            log_partial_product(Hinge(), IndexSet.of(1), 2.0, 2.0, 5)
