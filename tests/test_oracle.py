import copy
import dataclasses
import math
import pickle
import re
from fractions import Fraction

import pytest

from geomprod.combinatorics import IndexSet, enumerate_subsets
from geomprod.core import log_partial_product
from geomprod.oracle import (
    COS,
    HALF_SIN_SHIFTED,
    ONE,
    BuiltinFunction,
    euler_partial_product,
    exp_scaled,
    log_series_components,
    monomial_exp,
    multiindex_bruteforce,
    sinc,
    truncated_invariance_closed_form,
)


class TestBuiltins:
    @pytest.mark.parametrize(
        "f",
        [ONE, COS, HALF_SIN_SHIFTED, exp_scaled(-2.0), monomial_exp(0.3, 4)],
    )
    def test_normalized_at_origin(self, f):
        assert f(0.0) == 1.0

    def test_parity_flags(self):
        assert COS.even and ONE.even
        assert monomial_exp(1.0, 2).even
        assert not monomial_exp(1.0, 3).even
        assert not HALF_SIN_SHIFTED.even

    def test_signed_log_consistency(self):
        for f in (COS, HALF_SIN_SHIFTED, exp_scaled(0.4), monomial_exp(-1.0, 2)):
            for x in (-1.3, 0.2, 2.0):
                s, la = f.signed_log(x)
                assert s * math.exp(la) == pytest.approx(f(x), rel=1e-13)

    def test_signed_log_avoids_underflow(self):
        # exp(-729) underflows in direct evaluation; the log path must not
        s, la = monomial_exp(-1.0, 6).signed_log(3.0)
        assert s == 1
        assert la == pytest.approx(-729.0, rel=1e-14)

    @pytest.mark.parametrize(
        "f",
        [ONE, COS, HALF_SIN_SHIFTED, exp_scaled(-2.0), monomial_exp(0.3, 4)],
    )
    def test_value_semantics(self, f):
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f),
                  dataclasses.replace(f)):
            assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
            assert g.signed_log(0.7) == f.signed_log(0.7) and g(0.7) == f(0.7)
            assert list(g.log_batch([0.7])) == list(f.log_batch([0.7]))
        moved = dataclasses.replace(f, c=f.c + 1.0)
        assert moved.c == f.c + 1.0 and moved.signed_log(0.7) == BuiltinFunction(
            f.tag, f.c + 1.0, f.k).signed_log(0.7)
        # log_batch reads the new c as well
        logs = moved.log_batch([0.7, 1.5])
        assert list(logs) == [moved.signed_log(0.7)[1], moved.signed_log(1.5)[1]]

    def test_labels(self):
        labels = [str(f) for f in
                  (ONE, COS, HALF_SIN_SHIFTED, exp_scaled(-2.0), monomial_exp(0.3, 4))]
        assert labels == ["one", "cos", "half_sin_shifted", "exp_scaled(c=-2.0)",
                          "monomial_exp(c=0.3, k=4)"]

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            BuiltinFunction("sinh")

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
    def test_monomial_order_must_be_an_integer(self, k):
        # k = 2.5 made an estimate at x = -0.5 raise TypeError on a complex power
        with pytest.raises(ValueError, match=rf"^k={re.escape(repr(k))} must be an integer$"):
            monomial_exp(1.0, k)

    @pytest.mark.parametrize("c", ["1", None, 1j])
    def test_constant_must_be_a_real_number(self, c):
        message = rf"^function constant c must be a real number, got {re.escape(repr(c))}$"
        with pytest.raises(ValueError, match=message):
            exp_scaled(c)
        with pytest.raises(ValueError, match=message):
            monomial_exp(c, 2)

    @pytest.mark.parametrize("c, message", [
        (math.inf, "function constant must be finite"),
        (-math.inf, "function constant must be finite"),
        (math.nan, "function constant must be finite"),
        # a real past the float range has no float at all
        (10**400, "function constant c must lie within the float range"),
        (-Fraction(10**400), "function constant c must lie within the float range"),
    ], ids=["inf", "-inf", "nan", "10**400", "-Fraction(10**400)"])
    def test_non_finite_constant(self, c, message):
        with pytest.raises(ValueError, match="^" + message):
            exp_scaled(c)
        with pytest.raises(ValueError, match="^" + message):
            exp_scaled(c)
        with pytest.raises(ValueError):
            monomial_exp(c, 2)


class TestEulerProduct:
    def test_origin(self):
        assert euler_partial_product(0.0, 7) == 1.0
        # N counts factors, so only an integer N is one
        for N in (2.5, "3"):
            with pytest.raises(ValueError, match=rf"^N={N!r} must be an integer$"):
                euler_partial_product(0.0, N)

    def test_half_pi(self):
        assert euler_partial_product(math.pi / 2, 40) == pytest.approx(
            2.0 / math.pi, abs=1e-10
        )

    def test_unit(self):
        assert euler_partial_product(1.0, 40) == pytest.approx(math.sin(1.0), abs=1e-10)

    def test_tail_bound(self):
        # |partial - sinc| <= 10 * 4^-N * x^2 on [0, 3], plus float rounding
        for N in (5, 10, 20, 40):
            for x in (0.5, 1.0, 2.0, 3.0):
                err = abs(euler_partial_product(x, N) - sinc(x))
                assert err <= 10.0 * 4.0**-N * x * x + 1e-14


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_zero_at_pi(self):
        assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_half_pi(self):
        assert sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_series_branch_continuity(self):
        for x in (1e-5, 5e-5, 9.9e-5, 1.1e-4):
            assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-13)


class TestMultiindexBruteforce:
    def test_constant_one(self):
        assert multiindex_bruteforce(ONE, IndexSet.of(1, 2), 1.5, 2.0, 8) == 0.0

    def test_matches_consolidated_form(self):
        base = IndexSet.of(1, 2, 3)
        for f in (exp_scaled(1.0), COS, HALF_SIN_SHIFTED):
            for S in enumerate_subsets(base):
                for r in (1.2, 2.0):
                    for x in (0.5, 1.5):
                        brute = multiindex_bruteforce(f, S, r, x, 10)
                        single = log_partial_product(f, S, r, x, 10)
                        assert brute == pytest.approx(single.log_value, abs=1e-12)

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            multiindex_bruteforce(ONE, IndexSet.of(1, 2, 3, 4), 1.5, 1.0, 5)
        with pytest.raises(ValueError):
            multiindex_bruteforce(ONE, IndexSet.of(1), 1.5, 1.0, 11)


class TestLogSeriesComponents:
    def test_exp_scaled(self):
        series = log_series_components(exp_scaled(3.0), 8)
        assert series.coefficients[0] == pytest.approx(3.0)
        assert all(abs(c) < 1e-14 for c in series.coefficients[1:])

    def test_monomial(self):
        series = log_series_components(monomial_exp(-0.5, 3), 9)
        assert series.coefficients[2] == pytest.approx(-0.5)
        assert all(
            abs(c) < 1e-14 for i, c in enumerate(series.coefficients, 1) if i != 3
        )

    def test_cos_leading_coefficients(self):
        series = log_series_components(COS, 8)
        c = series.coefficients
        assert c[1] == pytest.approx(-1.0 / 2.0, rel=1e-12)
        assert c[3] == pytest.approx(-1.0 / 12.0, rel=1e-12)
        assert c[5] == pytest.approx(-1.0 / 45.0, rel=1e-12)
        assert all(abs(c[i]) < 1e-14 for i in (0, 2, 4, 6))

    def test_half_sin_leading_coefficient(self):
        series = log_series_components(HALF_SIN_SHIFTED, 8)
        assert series.coefficients[0] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "f",
        [ONE, COS, HALF_SIN_SHIFTED, exp_scaled(0.7), monomial_exp(-0.4, 2)],
    )
    def test_series_reproduces_function(self, f):
        # log-series radius for cos is pi/2, so the order-12 truncation
        # carries a ~(x / (pi/2))^14 tail: tight near 0, ~1e-4 at |x| = 1
        series = log_series_components(f, 12)
        for i in range(-10, 11):
            x = 0.1 * i
            tol = 1e-10 if abs(x) <= 0.25 else 1e-3
            assert series.f(x) == pytest.approx(f(x), abs=tol)

    def test_even_function_has_no_odd_terms(self):
        for f in (COS, monomial_exp(0.9, 4)):
            series = log_series_components(f, 12)
            assert all(
                abs(c) < 1e-14 for i, c in enumerate(series.coefficients, 1) if i % 2
            )

    def test_k_max_bound(self):
        for K_max in (13, -1):
            with pytest.raises(ValueError, match=rf"^K_max must be from 0 to 12, got {K_max}$"):
                log_series_components(COS, K_max)
        for K_max in (2.5, "3"):
            with pytest.raises(ValueError, match=rf"^K_max={K_max!r} must be an integer$"):
                log_series_components(COS, K_max)

    def test_overflow_names_the_power(self):
        series = log_series_components(COS, 8)
        message = "Numerical result out of range for x**2 at x=1e+200"
        for method in (series.log_f, series.f):
            with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
                method(1e200)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x(self, x):
        # cos's zero odd coefficients would make 0.0 * inf a silent nan
        series = log_series_components(COS, 8)
        for method in (series.log_f, series.f):
            with pytest.raises(ValueError, match=f"^x must be finite, got {x}$"):
                method(x)


class TestTruncatedInvariance:
    def test_large_n_limit(self):
        assert truncated_invariance_closed_form(0.7, 3, 1.5, 1.2, 400) == pytest.approx(
            0.7 * 1.2**3, rel=1e-14
        )

    def test_single_term(self):
        assert truncated_invariance_closed_form(1.0, 1, 2.0, 1.0, 1) == 0.5

    def test_zero_coefficient(self):
        assert truncated_invariance_closed_form(0.0, 4, 1.3, 2.0, 7) == 0.0

    @pytest.mark.parametrize("r", [1.0, 0.5, -2.0, math.nan, math.inf])
    def test_ratio_must_exceed_one(self, r):
        with pytest.raises(ValueError, match="ratio r must exceed 1"):
            truncated_invariance_closed_form(1.0, 2, r, 1.0, 5)

    def test_overflow_names_the_expression_and_its_arguments(self):
        message = ("Numerical result out of range for c * x**2 * (1 - r**(-2 * 5)) "
                   "at c=1.0, r=2.0, x=1e+200")
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            truncated_invariance_closed_form(1.0, 2, 2.0, 1e200, 5)

    def test_matches_partial_product(self):
        for c in (-1.0, 0.3):
            for k in (1, 3, 6):
                for r in (1.05, 1.5, 2.0):
                    for N in (5, 20, 60):
                        for x in (-3.0, -0.5, 1.0, 3.0):
                            lp = log_partial_product(
                                monomial_exp(c, k), IndexSet.of(k), r, x, N
                            )
                            expected = truncated_invariance_closed_form(c, k, r, x, N)
                            assert lp.log_value == pytest.approx(expected, rel=1e-12)
