"""Every argument is checked where it enters the package: a real-number
argument by combinatorics.check_real, an integer argument by
combinatorics.check_integer. A bad value ends in a ValueError that names
the argument, never in a TypeError, AttributeError or IndexError from deep
inside an estimate. The checked value is the value used: check_real returns
the float and check_integer the int, and the code past the entry computes
with those and stores them. So a float, an int, a Fraction or a numpy
scalar gives the float's result, repr and errors included, a numpy integer
gives the int's, and a real past the float range has no float to give.
Every callable the package exports has a row here, or a reason not to."""

import re
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import geomprod
from geomprod.combinatorics import (
    IndexSet,
    check_integer,
    check_real,
    check_reals,
    compositions_bruteforce,
    enumerate_subsets,
    factor_count,
    multiplicity,
)
from geomprod.core import (
    GmpConfig,
    coefficient,
    component_estimate,
    cutoff_n_max,
    estimate,
    log_partial_product,
    pollution_exponent,
    reconstruct_from_components,
    sequence_point,
)
from geomprod.oracle import (
    COS,
    euler_partial_product,
    exp_scaled,
    log_series_components,
    monomial_exp,
    multiindex_bruteforce,
    sinc,
    truncated_invariance_closed_form,
)
from geomprod.signal import (
    Normalization,
    SampledSignal,
    coverage_check,
    forecast,
    normalize,
    read_signal,
)
from geomprod.sweeps import SweepSpec, grid_eval, r_sweep

CFG = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1, 2))
SIG = normalize([(t, 1.0 + 0.1 * t) for t in range(9)])
S = IndexSet.of(1, 2)
NORM = Normalization(0.0, 1.0)
SERIES = log_series_components(COS, 8)


def sweep_spec(**fields):
    spec = dict(function=COS, grid=(0.0, 1.0, 0.5), schedule=(2.0,),
                coupling="fixed_n_max", coupling_value=10, base=IndexSet.of(2, 4))
    return SweepSpec(**dict(spec, **fields))


def component_k(k):
    return component_estimate(COS, k, 0.5, CFG)


def affine(a, b):
    return normalize([(0, 2), (1, 3), (2, 5)], "affine", a, b).values


def read_affine(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "series.csv")
        path.write_text("0,2\n1,3\n2,5\n3,7\n", encoding="utf-8")
        return read_signal(path, "affine", a, b).values


# (argument, call with the argument's value, the name its message gives it)
REAL = [
    ("estimate x", lambda v: estimate(COS, v, CFG), "x"),
    ("component_estimate x", lambda v: component_estimate(COS, 2, v, CFG), "x"),
    ("reconstruct_from_components x", lambda v: reconstruct_from_components(COS, v, CFG), "x"),
    ("log_partial_product x", lambda v: log_partial_product(COS, S, 2.0, v, 10), "x"),
    ("sequence_point x", lambda v: sequence_point(S, 2.0, v, 3), "x"),
    ("coverage_check x", lambda v: coverage_check(SIG, CFG, v), "x"),
    ("forecast x", lambda v: forecast(SIG, v, CFG), "x"),
    ("SampledSignal x", lambda v: SIG(v), "x"),
    ("signed_log x", lambda v: SIG.signed_log(v), "x"),
    ("truncated_invariance_closed_form c",
     lambda v: truncated_invariance_closed_form(v, 2, 2.0, 0.5, 5), "c"),
    ("truncated_invariance_closed_form x",
     lambda v: truncated_invariance_closed_form(0.5, 2, 2.0, v, 5), "x"),
    ("euler_partial_product x", lambda v: euler_partial_product(v, 5), "x"),
    ("sinc x", lambda v: sinc(v), "x"),
    ("multiindex_bruteforce x", lambda v: multiindex_bruteforce(COS, S, 2.0, v, 5), "x"),
    ("normalize a", lambda v: affine(v, 0.5), "affine offset a"),
    ("normalize b", lambda v: affine(0.0, v), "affine scale b"),
    ("SampledSignal abscissas", lambda v: SampledSignal([0.0, v], [1.0, 2.0], NORM),
     "each entry of abscissas"),
    ("SampledSignal values", lambda v: SampledSignal([0.0, 1.0], [1.0, v], NORM),
     "each entry of values"),
    ("GmpConfig r", lambda v: GmpConfig(r=v, n_max=10, base=S), "ratio r"),
    ("BuiltinFunction c", lambda v: exp_scaled(v), "function constant c"),
    ("cutoff_n_max K", lambda v: cutoff_n_max(v, 2.0), "cutoff"),
    ("r_sweep x", lambda v: r_sweep(COS, v, (2.0,), "fixed_n_max", 10, S), "each entry of grid"),
    ("SweepSpec grid", lambda v: sweep_spec(grid=(0.0, v, 0.5)), "each entry of grid"),
    ("SweepSpec schedule", lambda v: sweep_spec(schedule=(2.0, v)), "each entry of schedule"),
    ("coefficient r", lambda v: coefficient(S, v), "ratio r"),
    ("pollution_exponent r", lambda v: pollution_exponent(1, 2, v), "ratio r"),
    ("exp_scaled c", lambda v: exp_scaled(v), "function constant c"),
    ("monomial_exp c", lambda v: monomial_exp(v, 2), "function constant c"),
    ("read_signal a", lambda v: read_affine(v, 0.5), "affine offset a"),
    ("read_signal b", lambda v: read_affine(0.0, v), "affine scale b"),
    ("ComponentSeries.log_f x", lambda v: SERIES.log_f(v), "x"),
    ("ComponentSeries.f x", lambda v: SERIES.f(v), "x"),
    ("Normalization.apply raw", lambda v: NORM.apply(v), "raw"),
    ("Normalization.invert stored", lambda v: NORM.invert(v), "stored"),
]
INTEGER = [
    ("sequence_point n", lambda v: sequence_point(S, 2.0, 0.5, v), "n"),
    ("truncated_invariance_closed_form k",
     lambda v: truncated_invariance_closed_form(0.5, v, 2.0, 0.5, 5), "k"),
    ("truncated_invariance_closed_form N",
     lambda v: truncated_invariance_closed_form(0.5, 2, 2.0, 0.5, v), "N"),
    ("multiindex_bruteforce N", lambda v: multiindex_bruteforce(COS, S, 2.0, 0.5, v), "N"),
    ("multiplicity n", lambda v: multiplicity(v, 2), "n"),
    ("multiplicity m", lambda v: multiplicity(3, v), "m"),
    ("compositions_bruteforce n", lambda v: compositions_bruteforce(v, 2), "n"),
    ("compositions_bruteforce m", lambda v: compositions_bruteforce(3, v), "m"),
    ("factor_count n_max", lambda v: factor_count(S, v), "n_max"),
    ("log_series_components K_max", lambda v: log_series_components(COS, v), "K_max"),
    ("monomial_exp k", lambda v: monomial_exp(0.5, v), "k"),
    ("pollution_exponent j", lambda v: pollution_exponent(v, 2, 2.0), "j"),
    ("pollution_exponent k", lambda v: pollution_exponent(1, v, 2.0), "k"),
]
NOT_REAL = ["1", None, Decimal(1), 1j, [1]]
# A real number with no float: an int or a Fraction past the float range.
BEYOND = [10**400, Fraction(10**400)]
# A value refused whole, not by its type: (argument, call, value, message start)
OTHER = [
    ("component_estimate k", component_k, None, "component order None not in base"),
    ("component_estimate k", component_k, 1.5, "component order 1.5 not in base"),
    ("component_estimate k", component_k, "1", "component order 1 not in base"),
    ("SweepSpec function", lambda v: sweep_spec(function=v), "cos", "function must"),
    ("SweepSpec function", lambda v: sweep_spec(function=v), None, "function must"),
    ("SweepSpec grid", lambda v: sweep_spec(grid=v), (0.0, 1.0), "grid must be three real numbers"),
    ("SweepSpec grid", lambda v: sweep_spec(grid=v), None, "grid must be an iterable"),
    ("SweepSpec schedule", lambda v: sweep_spec(schedule=v), 2.0, "schedule must be an iterable"),
    ("normalize a", lambda v: affine(v, 0.5), None, "affine mode needs offset a and nonzero scale b"),
    ("normalize b", lambda v: affine(0.0, v), None, "affine mode needs offset a and nonzero scale b"),
    ("IndexSet elements", IndexSet.of, 1.5, "index set elements must be positive integers"),
    ("IndexSet elements", IndexSet.of, "1", "index set elements must be positive integers"),
    ("IndexSet elements", IndexSet, 5, "index set elements must be positive integers: 5"),
    ("enumerate_subsets base", enumerate_subsets, 5, "base must be an IndexSet, got 5"),
    ("normalize raw", normalize, 5, "raw must be (t, value) pairs, got 5"),
    ("normalize raw", normalize, [1.0, 2.0, 3.0],
     "raw must be (t, value) pairs, got [1.0, 2.0, 3.0]"),
    ("normalize raw", normalize, [(0, 1, 2), (1, 2, 3)],
     "raw must be (t, value) pairs, got [(0, 1, 2), (1, 2, 3)]"),
]
# None is affine mode's "not given", which OTHER refuses with the mode's message
NOT_GIVEN = {"affine offset a", "affine scale b"}
# A Decimal inside the range checks: it compares with floats, so only the
# type check refuses it.
INSIDE = {"ratio r": [Decimal(2)], "function constant c": [Decimal("0.5")], "cutoff": [Decimal(32)]}
CASES = (
    [(name, call, v, f"{what} must be a real number, got {v!r}")
     for name, call, what in REAL for v in [*NOT_REAL, *INSIDE.get(what, [])]
     if not (v is None and what in NOT_GIVEN)]
    + [(name, call, v, f"{what} must lie within the float range, got {v!r}")
       for name, call, what in REAL for v in BEYOND]
    + [(name, call, v, f"{what}={v!r} must be an integer")
       for name, call, what in INTEGER for v in [*NOT_REAL, 1.5]]
    + OTHER
)


@pytest.mark.parametrize(
    "call, value, start",
    [case[1:] for case in CASES],
    ids=[f"{name}-{value!r:.30}" for name, _, value, _ in CASES],
)
def test_bad_argument_is_a_value_error_naming_it(call, value, start):
    # pytest.raises lets any other exception, a TypeError say, fail the test
    with pytest.raises(ValueError, match="^" + re.escape(start)):
        call(value)


# (argument, call, two valid floats: one integral, one not)
GOOD = [
    ("estimate x", lambda v: estimate(COS, v, CFG), (1.0, 0.5)),
    ("component_estimate x", lambda v: component_estimate(COS, 2, v, CFG), (1.0, 0.5)),
    ("reconstruct_from_components x", lambda v: reconstruct_from_components(COS, v, CFG), (1.0, 0.5)),
    ("log_partial_product x", lambda v: log_partial_product(COS, S, 2.0, v, 10), (1.0, 0.5)),
    ("sequence_point x", lambda v: sequence_point(S, 2.0, v, 3), (1.0, 0.5)),
    ("forecast x", lambda v: forecast(SIG, v, CFG), (1.0, 0.5)),
    ("SampledSignal x", lambda v: SIG.signed_log(v), (1.0, 0.5)),
    ("truncated_invariance_closed_form c",
     lambda v: truncated_invariance_closed_form(v, 2, 2.0, 0.5, 5), (1.0, 0.5)),
    ("truncated_invariance_closed_form x",
     lambda v: truncated_invariance_closed_form(0.5, 2, 2.0, v, 5), (1.0, 0.5)),
    ("euler_partial_product x", lambda v: euler_partial_product(v, 5), (1.0, 0.5)),
    ("sinc x", lambda v: sinc(v), (1.0, 0.5)),
    ("multiindex_bruteforce x", lambda v: multiindex_bruteforce(COS, S, 2.0, v, 5), (1.0, 0.5)),
    # a + b * 2 == 1 keeps the first value at 1
    ("normalize a", lambda v: affine(v, (1 - v) / 2), (-1.0, 0.5)),
    ("normalize b", lambda v: affine(1 - 2 * v, v), (1.0, 0.5)),
    ("SampledSignal abscissas", lambda v: SampledSignal([0.0, v], [1.0, 2.0], NORM).abscissas,
     (1.0, 0.5)),
    ("SampledSignal values", lambda v: SampledSignal([0.0, 1.0], [1.0, v], NORM).values,
     (1.0, 0.5)),
    ("GmpConfig r", lambda v: estimate(COS, 0.5, GmpConfig(r=v, n_max=10, base=S)), (2.0, 1.5)),
    ("BuiltinFunction c", lambda v: estimate(exp_scaled(v), 0.5, CFG), (1.0, 0.5)),
    ("cutoff_n_max K", lambda v: cutoff_n_max(v, 1.5), (32.0, 20.5)),
    ("r_sweep x", lambda v: r_sweep(COS, v, (2.0,), "fixed_n_max", 10, S), (1.0, 0.5)),
    ("ComponentSeries.log_f x", lambda v: SERIES.log_f(v), (1.0, 0.5)),
    ("ComponentSeries.f x", lambda v: SERIES.f(v), (1.0, 0.5)),
    ("Normalization.apply raw", lambda v: Normalization(0.5, 3.0).apply(v), (1.0, 0.5)),
    ("Normalization.invert stored", lambda v: Normalization(0.5, 3.0).invert(v), (1.0, 0.5)),
    # r**1024 overflows at r = 2.0, and 1.5's 1100 powers are floats
    ("GmpConfig r at n_max 1100",
     lambda v: estimate(COS, 0.5, GmpConfig(r=v, n_max=1100, base=S)), (2.0, 1.5)),
]


def outcome(call, value):
    """The repr of call(value), or the type and message of the error it
    raises: a Fraction or a numpy scalar kept past the entry shows in either."""
    try:
        return repr(call(value))
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("call, floats", [g[1:] for g in GOOD], ids=[g[0] for g in GOOD])
def test_real_arguments_of_every_type_give_the_floats_result(call, floats):
    integral, half = floats
    for value, same in [(integral, int(integral)), (integral, Fraction(integral)),
                        (integral, np.float64(integral)), (half, Fraction(half)),
                        (half, np.float64(half))]:
        assert outcome(call, same) == outcome(call, value), (value, same)


# (argument, call, a valid int)
GOOD_INTEGERS = [
    ("GmpConfig n_max", lambda v: estimate(COS, 0.5, GmpConfig(r=2.0, n_max=v, base=S)), 10),
    # plan_samples past the cap, which int64 arithmetic would wrap below 0
    ("GmpConfig n_max over the cap",
     lambda v: GmpConfig(r=2.0, n_max=v, base=IndexSet(range(1, 46))), 10**6),
    ("monomial_exp k", lambda v: monomial_exp(0.5, v), 3),
    ("sequence_point n", lambda v: sequence_point(S, 2.0, 0.5, v), 3),
    ("pollution_exponent k", lambda v: pollution_exponent(1, v, 2.0), 2),
    ("truncated_invariance_closed_form N",
     lambda v: truncated_invariance_closed_form(0.5, 2, 2.0, 0.5, v), 5),
]


@pytest.mark.parametrize("call, integer", [g[1:] for g in GOOD_INTEGERS],
                         ids=[g[0] for g in GOOD_INTEGERS])
def test_integer_arguments_of_every_type_give_the_ints_result(call, integer):
    for same in (np.int64(integer), np.int32(integer)):
        assert outcome(call, same) == outcome(call, integer), same


def test_entries_store_the_checked_float_and_int():
    cfg = GmpConfig(r=Fraction(3, 2), n_max=np.int64(10), base=IndexSet.of(np.int64(1), 2))
    f = monomial_exp(np.float64(0.5), np.int64(2))
    est = estimate(f, Fraction(1, 2), cfg)
    spec = sweep_spec(grid=(0, Fraction(1, 2), Fraction(1, 2)), schedule=(Fraction(3, 2),),
                      coupling_value=np.int64(10))
    rows = grid_eval(spec)
    floats = [cfg.r, f.c, est.x, *spec.grid, *spec.schedule, *(row.x for row in rows),
              *(row.r for row in rows)]
    ints = [cfg.n_max, f.k, *cfg.base, *(row.n_max for row in rows)]
    assert {type(v) for v in floats} == {float}
    assert {type(v) for v in ints} == {int}
    assert IndexSet.of(True) == (1,) and str(IndexSet.of(True)) == "{1}"


def test_check_real():
    for value in (0, True, 2.5, Fraction(1, 3), np.float32(1.5), np.int64(3), float("nan")):
        check_real(value, "v")
    for value in NOT_REAL:
        with pytest.raises(ValueError, match=rf"^v must be a real number, got {re.escape(repr(value))}$"):
            check_real(value, "v")


def test_check_reals():
    values = (0.5, 1.5)
    assert check_reals(values, "v") is values
    got = check_reals([0, True, Fraction(1, 4), np.float32(1.5), np.int64(3), 2.5], "v")
    assert got == (0.0, 1.0, 0.25, 1.5, 3.0, 2.5) and {type(v) for v in got} == {float}
    for value in [*NOT_REAL, *BEYOND]:
        with pytest.raises(ValueError, match=rf"^each entry of v must (be a real number|lie "
                                             rf"within the float range), got {re.escape(repr(value))}$"):
            check_reals([1.0, value], "v")
    with pytest.raises(ValueError, match=r"^v must be an iterable of real numbers, got 3$"):
        check_reals(3, "v")


def test_check_integer_returns_the_int():
    for value, expected in ((3, 3), (True, 1), (np.int64(3), 3), (np.uint8(7), 7)):
        checked = check_integer(value, "n")
        assert type(checked) is int and checked == expected, value


# Exports that take no number of their own, each set with its reason.
# Records the package returns, or that a checked constructor takes whole;
# a record method that takes a number (ComponentSeries.f, say) has a row.
RECORDS = {"ComponentSeries", "CoverageReport", "Estimate", "ForecastResult", "LogProduct",
           "Normalization", "SequencePlan", "SweepRow"}
# Error classes: their arguments are the parts of a message.
ERRORS = {"DomainCoverageError", "GeomprodError", "NonPositiveSampleError", "NormalizationError",
          "SignalFormatError", "ZeroSampleError"}
# A path (refused unless os.fspath takes it), a SweepSpec or SweepRows,
# each checked where it is made.
NO_NUMBER = {"load_csv", "grid_eval", "rows_to_csv"}


def test_every_export_has_a_row_or_a_reason():
    exports = {name for name, obj in vars(geomprod).items()
               if callable(obj) and not name.startswith("_")}
    rows = {name.split()[0] for name, *_ in REAL + INTEGER + OTHER}
    exempt = RECORDS | ERRORS | NO_NUMBER
    assert not exempt & rows
    assert exports - rows - exempt == set()
    assert exempt <= exports
