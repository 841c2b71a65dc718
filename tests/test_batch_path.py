"""A source's log_batch against its signed_log, one call per sample: the
same Estimates and LogProducts to the bit, or the same error type and
message; and the batch path's sharing of sequences between subsets."""

import math

import pytest
from hypothesis import given, settings, strategies as st

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
from geomprod.errors import ZeroSampleError
from geomprod.oracle import COS, HALF_SIN_SHIFTED, ONE, exp_scaled, monomial_exp
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
    cos(a), with a log_batch."""

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
        values = [math.cos(t) - self.level for t in points]
        # log(0.0) raises ValueError: signed_log takes the subset
        return map(math.log, map(abs, values)), [i for i, v in enumerate(values) if v < 0.0]


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


class TestBothPathsAgree:
    @given(_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_builtin(self, case):
        f, cfg, x = case
        counted = _SignedLogOnly(f)
        out = _outcome(estimate, counted, x, cfg)
        assert out == _outcome(estimate, f, x, cfg)
        if out.startswith("Estimate("):  # one signed_log call per sample, none at x = 0
            assert counted.calls == (plan_samples(len(cfg.base), cfg.n_max) if x else 0)
        for k in cfg.base:
            _same_through_both(component_estimate, f, k, x, cfg)
        for plan in cfg.plan:
            _same_through_both(log_partial_product, f, plan.subset, cfg.r, x, cfg.n_max)

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


class TestFallback:
    """Each case makes log_batch give up, so the subset goes through
    signed_log, which raises the error."""

    def test_exp_accumulation_overflows_to_inf(self):
        # at r = 1e10 the terms are about 1e300 * 1e9 / 1e10^(n-1): the
        # first overflows to inf, the rest sum to about 1e299
        f, S = exp_scaled(1e300), IndexSet.of(1)
        out = _same_through_both(log_partial_product, f, S, 1e10, 1e9, 5)
        assert "non-finite partial product accumulation" in out
        with pytest.raises(AssertionError, match="signed_log ran"):
            log_partial_product(_BatchOnly(f), S, 1e10, 1e9, 5)

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
