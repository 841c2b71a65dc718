"""The batch path (a source's log_batch) against the scalar loop (its
signed_log): the same Estimates and LogProducts to the bit, or the same
error type and message."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from geomprod.combinatorics import IndexSet
from geomprod.core import GmpConfig, coefficient, estimate, log_partial_product
from geomprod.errors import ZeroSampleError
from geomprod.oracle import COS, HALF_SIN_SHIFTED, ONE, exp_scaled, monomial_exp
from geomprod.sweeps import DEFAULT_SCHEDULE, SweepSpec, grid_eval


class _ScalarOnly:
    """A builtin seen through __call__ and signed_log alone, so the
    estimator takes the scalar loop."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x):
        return self.inner(x)

    def signed_log(self, x):
        return self.inner.signed_log(x)


class _BatchOnly:
    """A builtin's log_batch with a signed_log that fails the test, so a
    result proves the batch path produced it."""

    def __init__(self, inner):
        self.log_batch = inner.log_batch

    def __call__(self, x):
        raise AssertionError("scalar loop ran")

    def signed_log(self, x):
        raise AssertionError("scalar loop ran")


def _outcome(fn, *args):
    """repr of fn's result, or of its error's type and message: equal reprs
    are equal floats to the bit, -0.0 included."""
    try:
        return repr(fn(*args))
    except Exception as e:
        return repr((type(e), str(e)))


def _same_through_both(fn, f, *args):
    batch = _outcome(fn, f, *args)
    assert batch == _outcome(fn, _ScalarOnly(f), *args)
    return batch


_CONSTANTS = st.floats(-1e3, 1e3) | st.floats(-1e300, 1e300)


@st.composite
def _cases(draw):
    f = draw(st.sampled_from([ONE, COS, HALF_SIN_SHIFTED])
             | st.builds(exp_scaled, _CONSTANTS)
             | st.builds(monomial_exp, _CONSTANTS, st.integers(1, 200)))
    base = IndexSet(tuple(sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))))
    n_max = draw(st.integers(len(base), 200))
    r = draw(st.floats(1.0, 4.0, exclude_min=True))
    x = draw(st.floats(-10.0, 10.0) | st.floats(-1e300, 1e300))
    return f, GmpConfig(r=r, n_max=n_max, base=base), x


class TestBothPathsAgree:
    @given(_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_builtin(self, case):
        f, cfg, x = case
        _same_through_both(estimate, f, x, cfg)
        for plan in cfg.plan:
            _same_through_both(log_partial_product, f, plan.subset, cfg.r, x, cfg.n_max)

    def test_fig2_grid(self):
        cfg = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))
        for i in range(81):
            _same_through_both(estimate, HALF_SIN_SHIFTED, 0.05 * i, cfg)

    def test_default_sweep(self):
        def rows(f):
            return grid_eval(SweepSpec(
                function=f, grid=(0.0, 3.0, 0.05), schedule=DEFAULT_SCHEDULE,
                coupling="fixed_cutoff", coupling_value=32, base=IndexSet.of(2, 4),
                parity="even"))

        batch = rows(COS)
        assert len(batch) == 488
        assert repr(batch) == repr(rows(_ScalarOnly(COS)))


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
        assert repr(lp) == repr(self._product(_ScalarOnly(COS), 2.5))

    def test_negative_sample_at_even_weight_does_not(self):
        # n = 2 at 5.0 (cos > 0), n = 3 at 2.5 (cos < 0, weight 2)
        lp = self._product(_BatchOnly(COS), 5.0)
        assert lp.sign == 1
        assert repr(lp) == repr(self._product(_ScalarOnly(COS), 5.0))


class TestFallback:
    """Each case makes the batch path give up, so the scalar loop reruns and
    raises its own error, unchanged."""

    def test_exp_accumulation_overflows_to_inf(self):
        # at r = 1e10 the terms are about 1e300 * 1e9 / 1e10^(n-1): the
        # first overflows to inf, the rest sum to about 1e299
        f, S = exp_scaled(1e300), IndexSet.of(1)
        out = _same_through_both(log_partial_product, f, S, 1e10, 1e9, 5)
        assert "non-finite partial product accumulation" in out
        with pytest.raises(AssertionError, match="scalar loop ran"):
            log_partial_product(_BatchOnly(f), S, 1e10, 1e9, 5)

    def test_monomial_power_overflows(self):
        f, S = monomial_exp(1.0, 200), IndexSet.of(1)
        out = _same_through_both(log_partial_product, f, S, 2.0, 100.0, 10)
        assert "OverflowError" in out
        with pytest.raises(AssertionError, match="scalar loop ran"):
            log_partial_product(_BatchOnly(f), S, 2.0, 100.0, 10)

    def test_fsum_intermediate_overflow(self):
        # terms 1e308, 5e307, ... are finite; their sum is not
        f, S = exp_scaled(1e300), IndexSet.of(1)
        out = _same_through_both(log_partial_product, f, S, 2.0, 2e8, 10)
        assert "intermediate overflow in fsum" in out
        with pytest.raises(AssertionError, match="scalar loop ran"):
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
                # log(0.0) raises ValueError: the scalar loop reruns
                return [math.log(abs(1.0 - p)) for p in points], ()

        # S={1}, r=2, x=2 samples the exact zero at 1.0, the first sample
        with pytest.raises(ZeroSampleError, match=r"abscissa 1\.0 \[subset \{1\}, n=1\]"):
            log_partial_product(Hinge(), IndexSet.of(1), 2.0, 2.0, 5)
