import math
from fractions import Fraction

import pytest

from geomprod.combinatorics import IndexSet, factor_count
from geomprod.core import cutoff_n_max
from geomprod.oracle import COS, ONE, exp_scaled, monomial_exp
from geomprod.sweeps import (
    DEFAULT_SCHEDULE,
    MAX_ROWS,
    SweepSpec,
    grid_eval,
    r_sweep,
    rows_to_csv,
)

SQRT2 = math.sqrt(2.0)


def fig1_spec(schedule=(SQRT2,)):
    return SweepSpec(
        function=COS,
        grid=(0.0, 3.0, 0.05),
        schedule=schedule,
        coupling="fixed_n_max",
        coupling_value=10,
        base=IndexSet.of(2, 4),
        parity="even",
    )


class TestSweepSpec:
    def test_default_schedule(self):
        assert DEFAULT_SCHEDULE == tuple(1 + 2.0**-t for t in range(1, 9))

    def test_grid_points(self):
        assert len(fig1_spec().grid_points()) == 61

    def test_cutoff_coupling(self):
        spec = SweepSpec(
            function=COS,
            grid=(0.0, 1.0, 0.5),
            schedule=(SQRT2,),
            coupling="fixed_cutoff",
            coupling_value=32,
            base=IndexSet.of(2, 4),
        )
        assert spec.n_max_for(SQRT2) == 10

    def test_configs_one_per_ratio(self):
        spec = fig1_spec(schedule=(SQRT2, 1.5, 2.0))
        assert [(cfg.r, cfg.n_max, cfg.base, cfg.parity) for cfg in spec.configs] == [
            (r, 10, IndexSet.of(2, 4), "even") for r in (SQRT2, 1.5, 2.0)]
        assert spec.configs is spec.configs

    def test_fixed_n_max_below_base_is_rejected(self):
        # a fixed n_max is used as given, never raised to |base|
        with pytest.raises(ValueError, match=r"n_max=1 must be at least \|base\|=2"):
            SweepSpec(
                function=COS,
                grid=(0.0, 1.0, 0.5),
                schedule=(2.0,),
                coupling="fixed_n_max",
                coupling_value=1,
                base=IndexSet.of(1, 2),
            )

    def test_coupling_checks(self):
        def spec(coupling, value):
            return SweepSpec(function=COS, grid=(0.0, 1.0, 0.5), schedule=(2.0,),
                             coupling=coupling, coupling_value=value, base=IndexSet.of(1))

        with pytest.raises(ValueError, match="unknown coupling 'fixed_k'"):
            spec("fixed_k", 10)
        with pytest.raises(ValueError, match="cutoff must be >= 2, got 1"):
            spec("fixed_cutoff", 1)
        for value in ("10", None):
            with pytest.raises(ValueError, match=rf"^cutoff must be a real number, got {value!r}$"):
                spec("fixed_cutoff", value)

    def test_validation(self):
        for r in (1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                fig1_spec(schedule=(r,))
        # a negative step; non-finite parts; a span that overflows; a last
        # point half a step past stop that leaves the float range; the same
        # two in a grid of exact numbers, which computes past the float range
        for grid in ((0.0, 1.0, -0.1), (0.0, 1.0, math.inf), (math.nan, 1.0, 0.5),
                     (-math.inf, 1.0, 0.5), (1e308, -1e308, 1.0), (5e307, 1.7e308, 1.79e308),
                     (0, 10**308, Fraction(1, 10**10)),
                     (Fraction(17 * 10**307), Fraction(179 * 10**306), Fraction(10**307))):
            with pytest.raises(ValueError):
                SweepSpec(
                    function=COS,
                    grid=grid,
                    schedule=(2.0,),
                    coupling="fixed_n_max",
                    coupling_value=10,
                    base=IndexSet.of(1),
                )

    def test_row_cap(self):
        def spec(stop):
            return SweepSpec(
                function=COS,
                grid=(0.0, stop, 1.0),
                schedule=DEFAULT_SCHEDULE,
                coupling="fixed_n_max",
                coupling_value=10,
                base=IndexSet.of(1),
            )

        assert len(spec(MAX_ROWS / 8 - 1).grid_points()) * 8 == MAX_ROWS
        for stop in (MAX_ROWS / 8, 1e18, math.inf, math.nan):
            with pytest.raises(ValueError):
                spec(stop)


class TestGridEval:
    def test_fig1_row_count(self):
        rows = grid_eval(fig1_spec())
        assert len(rows) == 61
        assert all(row.status == "ok" for row in rows)

    def test_constant_function_zero_error(self):
        spec = SweepSpec(
            function=ONE,
            grid=(0.0, 2.0, 0.25),
            schedule=(1.5, 2.0),
            coupling="fixed_n_max",
            coupling_value=12,
            base=IndexSet.of(1, 2),
        )
        rows = grid_eval(spec)
        assert len(rows) == 18
        assert all(row.abs_error == 0.0 for row in rows)

    def test_factor_count_column(self):
        for row in grid_eval(fig1_spec()):
            assert row.factor_count == factor_count(IndexSet.of(2, 4), row.n_max)

    def test_row_order(self):
        spec = SweepSpec(
            function=ONE,
            grid=(0.0, 1.0, 0.5),
            schedule=(1.2, 1.5),
            coupling="fixed_n_max",
            coupling_value=8,
            base=IndexSet.of(1),
        )
        rows = grid_eval(spec)
        assert [(row.x, row.r) for row in rows] == [
            (0.0, 1.2), (0.0, 1.5), (0.5, 1.2), (0.5, 1.5), (1.0, 1.2), (1.0, 1.5),
        ]

    def test_huge_ratio_zero_row_ok(self):
        # x = 0 takes no sample, so r = 1e300 still gives 1.0 there, while
        # every other x overflows in r**n
        spec = SweepSpec(
            function=exp_scaled(800.0),
            grid=(0.0, 1.0, 0.5),
            schedule=(1.5, 2.0, 1e300),
            coupling="fixed_n_max",
            coupling_value=10,
            base=IndexSet.of(1, 2),
        )
        rows = grid_eval(spec)
        assert (rows[2].x, rows[2].r, rows[2].estimate, rows[2].status) == (
            0.0, 1e300, 1.0, "ok")
        assert [row.status for row in rows[5::3]] == ["OverflowError", "OverflowError"]

    def test_non_finite_reference_is_empty(self):
        # exp(1e300 * 1e20) is exp(inf) = inf, which raises no OverflowError
        spec = SweepSpec(
            function=exp_scaled(1e300),
            grid=(1e20, 1e20, 1.0),
            schedule=(2.0,),
            coupling="fixed_n_max",
            coupling_value=1,
            base=IndexSet.of(1),
        )
        [row] = grid_eval(spec)
        assert (row.reference, row.status) == (None, "GeomprodError")

    def test_overflowing_sample_point_fails_its_row(self):
        # coeff * x = (1e6 - 1) * 1e308 is inf, while cos(1e308) is finite
        spec = SweepSpec(
            function=COS,
            grid=(1e308, 1e308, 1.0),
            schedule=(1e6,),
            coupling="fixed_n_max",
            coupling_value=1,
            base=IndexSet.of(1),
        )
        [row] = grid_eval(spec)
        assert (row.estimate, row.reference, row.status) == (
            None, math.cos(1e308), "GeomprodError")

    def test_non_finite_reference_with_estimate_is_reference_overflow(self):
        class InfiniteReference:
            """Samples like ONE, but evaluates to inf."""

            def __call__(self, x):
                return math.inf

            def signed_log(self, x):
                return 1, 0.0

        spec = SweepSpec(
            function=InfiniteReference(),
            grid=(1.0, 1.0, 1.0),
            schedule=(2.0,),
            coupling="fixed_n_max",
            coupling_value=4,
            base=IndexSet.of(1),
        )
        [row] = grid_eval(spec)
        assert (row.estimate, row.reference, row.abs_error, row.status) == (
            1.0, None, None, "ReferenceOverflow")

    def test_deterministic_csv(self):
        a = rows_to_csv(grid_eval(fig1_spec()))
        b = rows_to_csv(grid_eval(fig1_spec()))
        assert a == b


class TestRSweep:
    def test_monomial_matches_closed_form(self):
        c, k, x = -0.6, 2, 1.4
        rows = r_sweep(
            monomial_exp(c, k),
            x,
            schedule=DEFAULT_SCHEDULE,
            coupling="fixed_cutoff",
            coupling_value=32,
            base=IndexSet.of(k),
        )
        for row in rows:
            expected = abs(
                math.exp(c * x**k * (1 - row.r ** (-k * row.n_max))) - math.exp(c * x**k)
            )
            assert row.abs_error == pytest.approx(expected, abs=1e-12)

    def test_constant_function(self):
        rows = r_sweep(
            ONE, 2.0, DEFAULT_SCHEDULE, "fixed_n_max", 10, IndexSet.of(1, 2)
        )
        assert all(row.abs_error == 0.0 for row in rows)

    def test_cutoff_grows_n_max(self):
        rows = r_sweep(
            exp_scaled(1.0), 1.0, DEFAULT_SCHEDULE, "fixed_cutoff", 32, IndexSet.of(1)
        )
        n_maxes = [row.n_max for row in rows]
        assert n_maxes == sorted(n_maxes)
        assert n_maxes[0] == cutoff_n_max(32, DEFAULT_SCHEDULE[0])


class TestCsvOutput:
    def test_header_and_precision(self):
        rows = grid_eval(fig1_spec())
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "x,r,n_max,estimate,reference,abs_error,factor_count,status"
        # 17 significant digits survive a float round trip
        cell = lines[2].split(",")[1]
        assert float(cell) == SQRT2

    def test_fraction_grid_prints_floats(self):
        # x is written as a 17-digit float, never as str(Fraction)
        exact = SweepSpec(function=COS, grid=(Fraction(0), Fraction(1), Fraction(1, 3)),
                          schedule=(1.5,), coupling="fixed_n_max",
                          coupling_value=10, base=IndexSet.of(2, 4))
        rounded = SweepSpec(function=COS, grid=(0.0, 1.0, 1 / 3), schedule=(1.5,),
                            coupling="fixed_n_max", coupling_value=10, base=IndexSet.of(2, 4))
        text = rows_to_csv(grid_eval(exact))
        assert "/" not in text
        assert [line.split(",")[:2] for line in text.splitlines()[1:]] == [
            ["0", "1.5"], ["0.33333333333333331", "1.5"], ["0.66666666666666663", "1.5"],
            ["1", "1.5"]]
        assert text == rows_to_csv(grid_eval(rounded))

    def test_error_rows_are_recorded_not_raised(self):
        # a signal-free config that still fails: cos hits an exact zero only
        # on a measure-zero set, so force failure via a huge horizon overflow
        spec = SweepSpec(
            function=exp_scaled(500.0),
            grid=(700.0, 700.0, 1.0),
            schedule=(2.0,),
            coupling="fixed_n_max",
            coupling_value=10,
            base=IndexSet.of(1),
        )
        with pytest.raises(OverflowError):
            spec.function(700.0)
        rows = grid_eval(spec)
        assert len(rows) == 1
        assert rows[0].status != "ok"
