import csv
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from geomprod import signal
from geomprod.combinatorics import IndexSet
from geomprod.core import GmpConfig, estimate
from geomprod.errors import (
    DomainCoverageError,
    GeomprodError,
    NormalizationError,
    SignalFormatError,
)
from geomprod.oracle import HALF_SIN_SHIFTED
from geomprod.signal import (
    Normalization,
    SampledSignal,
    _Pchip,
    coverage_check,
    forecast,
    load_csv,
    normalize,
)

FIG2_CFG = GmpConfig(r=2.0, n_max=40, base=IndexSet.of(1, 2, 3, 4))


def write_csv(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def half_sin_series(stop=4.0, step=0.05):
    ts = [step * i for i in range(int(round(stop / step)) + 1)]
    return [(t, 1.0 + 0.5 * math.sin(t)) for t in ts]


class TestLoadCsv:
    def test_too_few_points(self, tmp_path):
        path = write_csv(tmp_path, "0,1\n1,1.2\n2,1.4\n")
        with pytest.raises(SignalFormatError, match="at least 4"):
            load_csv(path)

    def test_synthetic_series(self, tmp_path):
        text = "\n".join(f"{t},{v}" for t, v in half_sin_series(4.0, 0.1))
        rows = load_csv(write_csv(tmp_path, text))
        assert len(rows) == 41
        assert rows[0] == (0.0, 1.0)

    def test_header_skipped(self, tmp_path):
        path = write_csv(tmp_path, "t,value\n0,1\n1,2\n2,3\n3,4\n")
        assert len(load_csv(path)) == 4

    def test_duplicate_abscissa(self, tmp_path):
        path = write_csv(tmp_path, "0,1\n1,2\n1,3\n2,4\n3,5\n")
        with pytest.raises(SignalFormatError, match="duplicate"):
            load_csv(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write_csv(tmp_path, "0,1\n1,2\nbad,row\n3,4\n")
        with pytest.raises(SignalFormatError, match=":3:"):
            load_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("2,x", "could not parse ['2', 'x'] as numbers"),
        ("2,3,4", "expected two columns, got 3"),
    ])
    def test_error_line_counts_the_lines_of_a_quoted_cell(self, tmp_path, row, message):
        # the first record spans lines 1 and 2, so the bad row is on line 4
        path = write_csv(tmp_path, f'"0\n",1\n1,2\n{row}\n3,4\n')
        with pytest.raises(SignalFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:4: {message}"

    def test_oversized_field_carries_line_number(self, tmp_path):
        wide = "1" * (csv.field_size_limit() + 1)
        path = write_csv(tmp_path, f"0,1\n1,2\n2,{wide}\n3,4\n")
        with pytest.raises(SignalFormatError, match=r":3: field larger than field limit"):
            load_csv(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,caf\xe9\n0,1\n1,2\n2,3\n3,4\n".encode("latin-1"))
        with pytest.raises(SignalFormatError, match="not UTF-8 text"):
            load_csv(path)

    def test_unsorted_input_sorted(self, tmp_path):
        path = write_csv(tmp_path, "3,4\n0,1\n2,3\n1,2\n")
        rows = load_csv(path)
        assert [t for t, _ in rows] == [0.0, 1.0, 2.0, 3.0]


# csv.field_size_limit() while the property below runs: a float's repr
# fits, and the padded cells of PAST_LIMIT do not.
FIELD_LIMIT = 32

# Cells float() reads, in the forms a CSV may hold them; the small integers
# give duplicate times.
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map("{:e}".format),
    st.integers(0, 99).map(lambda k: f"{k // 10}_{k % 10}"),
    st.sampled_from(["0", "1", "2", "-0", ".5", "5.", "+3", "1E2", "007"]),
)
PAST_LIMIT = st.integers(FIELD_LIMIT - 2, FIELD_LIMIT + 2).map(lambda k: "0" * k + "1")
# Cells float() rejects, cells that are not finite, and cells too long for csv.
ODD_NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-Infinity", "1e999", "x", "", "1 2", "1__0"]), PAST_LIMIT
)
SPACE = st.sampled_from(["", " ", "\t", "\x0c", "\xa0", "\u2028"])
# Lines csv.reader splits or joins differently from one comma per line.
ODD_LINE = st.sampled_from(
    ["", " ", "1", "1,2,3", '"1",2', '1,"2\n3"', "1,2\r", "\r", "1,\x00"]
)


def row(pad, t, v):
    return f"{pad}{t}{pad},{pad}{v}{pad}"


@st.composite
def csv_texts(draw):
    """A two-column CSV text: mostly rows of numbers, sometimes under a
    header or a BOM, sometimes with one odd cell or one odd line."""
    rows = draw(st.lists(st.tuples(SPACE, NUMBER, NUMBER), min_size=4, max_size=6))
    lines = [row(*parts) for parts in rows]
    odd = draw(st.sampled_from([None, None, "cell", "line"]))
    if odd == "cell":
        cells = draw(st.permutations([draw(st.one_of(NUMBER, ODD_NUMBER)), draw(ODD_NUMBER)]))
        lines.insert(draw(st.integers(0, len(lines))), row(draw(SPACE), *cells))
    elif odd == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(ODD_LINE))
    header = draw(st.sampled_from([None, "t,value", "t,1", "\ufefft,value"]))
    text = "\n".join(([header] if header else []) + lines) + draw(st.sampled_from(["", "\n"]))
    return "\ufeff" + text if draw(st.booleans()) else text


def load_outcome(path):
    """load_csv's rows as exact float hex, or its error message."""
    try:
        return [(t.hex(), v.hex()) for t, v in load_csv(path)]
    except SignalFormatError as e:
        return str(e)


class TestPlainParse:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plain") / "series.csv"

    @settings(max_examples=100, deadline=None)
    @given(text=csv_texts())
    @example(text='"0","1"\n1,2\n2,3\n3,4\n')  # csv reads a quoted first row as data
    # a 63-character line of two cells that fit, then cells of FIELD_LIMIT
    # and of FIELD_LIMIT + 1 characters
    @example(text="0,1\n1,2\n" + "0" * 30 + "3," + "0" * 30 + "4\n5,6\n")
    @example(text="0,1\n1,2\n" + "0" * 31 + "3,4\n5,6\n")
    @example(text="0,1\n1,2\n" + "0" * 32 + "3,4\n5,6\n")
    def test_matches_csv_module(self, path, text):
        """load_csv gives the same rows, or the same error, as the csv.reader
        loop on the same file."""
        path.write_bytes(text.encode("utf-8"))
        saved = csv.field_size_limit(FIELD_LIMIT)
        try:
            got = load_outcome(path)
            with mock.patch.object(signal, "_plain_columns", return_value=None):
                want = load_outcome(path)
        finally:
            csv.field_size_limit(saved)
        assert got == want

    def test_plain_text_skips_csv_module(self, tmp_path):
        plain = write_csv(tmp_path, "t,value\n0,1\n1,2\n2,3\n3,4\n", "plain.csv")
        crlf = write_csv(tmp_path, "t,value\r\n0,1\r\n1,2\r\n2,3\r\n3,4\r\n", "crlf.csv")
        with mock.patch.object(signal.csv, "reader", side_effect=AssertionError("csv.reader")):
            assert signal.read_signal(plain).values == (1.0, 2.0, 3.0, 4.0)
            with pytest.raises(AssertionError, match="csv.reader"):
                load_csv(crlf)


@given(text=st.text(alphabet="0,\n", max_size=40), limit=st.integers(-3, 12))
def test_lines_within_bounds_every_line(text, limit):
    """True only when no line is longer than limit, for any limit csv takes."""
    assert not signal._lines_within(text, limit) or max(map(len, text.split("\n"))) <= limit


@pytest.mark.parametrize("xs", [
    [], [math.inf], [math.nan], [math.inf, -math.inf], [1e308, 1e308],
    [1.7e308] * 4,  # finite terms whose hypot overflows
    [np.float64(1.7e308)] * 4,  # a sum of these would warn in numpy
    [10**308, 10**308],
    [math.nan, 10**400],  # the scan stops before the int past the float range
])
def test_all_finite_is_the_scan(xs):
    assert signal._all_finite(xs) == all(map(math.isfinite, xs))


class TestNormalize:
    def test_divide_by_first(self):
        sig = normalize([(0, 2.0), (1, 2.2), (2, 2.6), (3, 2.9)], "divide_by_first")
        assert sig.values[0] == 1.0
        assert sig.values[1] == pytest.approx(1.1)

    def test_affine_half_sin(self):
        raw = [(t, math.sin(t)) for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
        sig = normalize(raw, "affine", a=1.0, b=0.5)
        assert sig.values[0] == 1.0
        assert all(v >= 0.5 for v in sig.values)

    def test_none_requires_positive(self):
        with pytest.raises(NormalizationError):
            normalize([(0, 1.0), (1, 2.0), (2, -5.0), (3, 1.0)], "none")

    def test_none_requires_unit_start(self):
        with pytest.raises(NormalizationError):
            normalize([(0, 2.0), (1, 2.2), (2, 2.4), (3, 2.6)], "none")

    def test_zero_first_value(self):
        with pytest.raises(NormalizationError):
            normalize([(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)], "divide_by_first")

    @pytest.mark.parametrize("mode, a, b", [("none", None, None), ("affine", 0.0, 1.0)])
    def test_nan_first_value(self, mode, a, b):
        # abs(nan - 1) > 1e-9 is False, so the t = 0 check must be written
        # to fail for nan
        with pytest.raises(NormalizationError, match="at t=0 is nan, must be 1"):
            normalize([(0, math.nan), (1, 1.2), (2, 1.3), (3, 1.4)], mode, a, b)

    @pytest.mark.parametrize("raw", [
        [(0, 1e-300), (1, 1.0), (2, 1e300), (3, 1.0)],  # the scaled 1e300 overflows
        [(-1e308, 1.0), (0, 1.0), (1e308, 1.0), (1.5e308, 1.0)],  # so does the shifted time
    ])
    def test_non_finite_after_normalization(self, raw):
        with pytest.raises(NormalizationError, match="finite"):
            normalize(raw, "divide_by_first")

    def test_shifted_times_that_collide(self):
        for raw, message in [
            # strictly increasing, but 0.5 + 1e16 and 1.0 + 1e16 round to 1e16
            ([(-1e16, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)],
             r"^times 0\.5 and 1\.0 both shift to 1e\+16 with t0=-1e\+16$"),
            # int shifts stay exact, but 2**53 + 1 has no float of its own
            ([(0, 1.0), (2**53, 1.0), (2**53 + 1, 1.0), (2**54, 1.0)],
             r"^times 9007199254740992 and 9007199254740993 both shift to "
             r"9007199254740992\.0 with t0=0$"),
        ]:
            with pytest.raises(NormalizationError, match=message):
                normalize(raw, "none")
            with pytest.raises(ValueError, match="abscissas must be strictly increasing"):
                normalize(raw[::-1], "none")

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_collision_of_numpy_rows_names_python_numbers(self, dtype):
        # the message Python rows give, not np.float64(0.5) or np.int64(0)
        raw = [(-1e16, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
        if dtype is np.int64:
            raw = [(0, 1), (2**53, 1), (2**53 + 1, 1), (2**54, 1)]
        with pytest.raises(NormalizationError) as want:
            normalize(raw, "none")
        with pytest.raises(NormalizationError) as got:
            normalize(np.array(raw, dtype=dtype), "none")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("ab", [{}, {"a": 1.0, "b": 0.0}])
    def test_affine_needs_offset_and_nonzero_scale(self, ab):
        with pytest.raises(ValueError, match="^affine mode needs offset a and nonzero scale b$"):
            normalize(half_sin_series(), "affine", **ab)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown normalization mode 'bogus'"):
            normalize(half_sin_series(), mode="bogus")

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="two or more"):
            normalize([(0, 1.0)], "divide_by_first")
        with pytest.raises(ValueError, match="need two or more abscissas and one value for each"):
            normalize([], "divide_by_first")
        with pytest.raises(ValueError, match="one value for each"):
            SampledSignal(np.array([0.0, 1.0]), np.array([1.0]), Normalization(0.0, 1.0))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
    def test_two_dimensional_input(self, shape):
        # each row is an entry that is no real number
        grid = np.ones(shape)
        message = r"^each entry of abscissas must be a real number, got array\("
        with pytest.raises(ValueError, match=message):
            SampledSignal(grid, grid, Normalization(0.0, 1.0))

    def test_inputs_stay_writeable(self):
        ts, vs = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.5, 2.0])
        sig = SampledSignal(ts, vs, Normalization(0.0, 1.0))
        assert ts.flags.writeable and vs.flags.writeable
        assert sig.abscissas == (0.0, 1.0, 2.0) and sig.values == (1.0, 1.5, 2.0)
        assert all(type(v) is float for v in sig.abscissas + sig.values)

    def test_scale_is_python_float(self):
        raw = [(0, 2.0), (1, 2.2), (2, 2.6), (3, 2.9)]
        for rows in (raw, np.array(raw)):
            sig = normalize(rows, "divide_by_first")
            assert type(sig.normalization.scale) is float
            assert repr(sig.normalization) == "Normalization(offset=0.0, scale=0.5)"
            assert type(sig.normalization.invert(1.0)) is float

    def test_time_shift(self):
        sig = normalize([(5, 2.0), (6, 2.2), (7, 2.4), (8, 2.6)], "divide_by_first")
        assert sig.abscissas[0] == 0.0
        assert sig.domain == (0.0, 3.0)

    def test_round_trip_inverse(self):
        raw = [(t, 3.0 + math.cos(t)) for t in (0.0, 0.7, 1.4, 2.1, 2.8)]
        sig = normalize(raw, "divide_by_first")
        for (t, v), stored in zip(raw, sig.values):
            assert sig.normalization.invert(stored) == pytest.approx(v, abs=1e-14)
            assert sig.normalization.apply(v) == pytest.approx(stored, abs=1e-14)


# The forecast golden's series, 2 + sin(t) in 81 rows on [0, 4], with its
# times moved to start at T0; mode "none" reads the values minus 1, which
# start at exactly 1.
T0 = 1234.5
GOLDEN_TS = [T0 + 0.05 * i for i in range(81)]
GOLDEN_VS = [2.0 + math.sin(0.05 * i) for i in range(81)]
# Integer times past 2**53, where t - t0 differs from float(t) - float(t0).
INT_TS = [10**17 + 3 * i for i in range(81)]
INT_VS = [2 + i % 5 for i in range(81)]
MODES = [("divide_by_first", None, None), ("affine", 0.25, 0.375), ("none", None, None)]


def shift_and_scale(ts, vs, mode, a, b):
    """The normalized columns, one term at a time: t - t0, and 1 followed by
    offset + scale * v."""
    offset, scale = {"divide_by_first": (0.0, 1.0 / vs[0]), "affine": (a, b),
                     "none": (0.0, 1.0)}[mode]
    return tuple(t - ts[0] for t in ts), (1.0,) + tuple(offset + scale * v for v in vs[1:])


def bits(xs):
    return [float(x).hex() for x in xs]


class TestShiftAndScale:
    """Every way in builds the oracle's columns as tuples of Python floats,
    equal to the bit."""

    def check(self, sig, ts, vs, mode, a, b):
        want_ts, want_vs = shift_and_scale(ts, vs, mode, a, b)
        assert type(sig.abscissas) is tuple and type(sig.values) is tuple
        assert all(type(x) is float for x in sig.abscissas + sig.values)
        assert bits(sig.abscissas) == bits(want_ts)
        assert bits(sig.values) == bits(want_vs)

    @pytest.mark.parametrize("mode, a, b", MODES)
    def test_read_signal(self, tmp_path, mode, a, b):
        vs = [v - 1.0 for v in GOLDEN_VS] if mode == "none" else GOLDEN_VS
        text = "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(GOLDEN_TS, vs))
        sig = signal.read_signal(write_csv(tmp_path, text), mode, a, b)
        self.check(sig, GOLDEN_TS, vs, mode, a, b)

    @pytest.mark.parametrize("mode, a, b", MODES)
    @pytest.mark.parametrize("kind", ["float", "int", "numpy"])
    def test_normalize(self, kind, mode, a, b):
        ts, vs = (INT_TS, INT_VS) if kind == "int" else (GOLDEN_TS, GOLDEN_VS)
        if mode == "none":
            vs = [v - 1 for v in vs]
        rows = list(zip(ts, vs))
        if kind == "numpy":
            rows = np.array(rows)
            ts, vs = list(rows[:, 0]), list(rows[:, 1])
        self.check(normalize(rows, mode, a, b), ts, vs, mode, a, b)


def signal_outcome(make):
    """make()'s signal as its columns in exact float hex and its
    Normalization, or the type and message of its error."""
    try:
        sig = make()
    except (GeomprodError, ValueError) as e:
        return type(e), str(e)
    return bits(sig.abscissas), bits(sig.values), sig.normalization


class TestReadSignal:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("read") / "series.csv"

    @settings(max_examples=100, deadline=None)
    @given(text=csv_texts(), mode=st.sampled_from(MODES))
    @example(text="t,value\n0,2\n1,3\n2,4\n3,5\n", mode=MODES[0])
    @example(text="t,value\n0,2\n1,3\n2,4\n3,5\n", mode=MODES[1])
    @example(text="0,1\n1,2\n2,3\n3,4\n", mode=MODES[2])
    # a series at (0, 1), which read_signal keeps as the reader gives it
    # wherever the Normalization is (0, 1) and every value positive
    @example(text="t,value\n0,1\n1,2\n2,3\n3,4\n", mode=MODES[0])
    @example(text="t,value\n0,1\n1,2\n2,3\n3,4\n", mode=MODES[1])
    @example(text="t,value\n0,1\n1,2\n2,3\n3,4\n", mode=MODES[2])
    @example(text="t,value\n0,1\n1,2\n2,3\n3,4\n", mode=("affine", 0.0, 1.0))
    @example(text="t,value\n0,1\n1,2\n2,3\n3,4\n", mode=("affine", -0.0, 1.0))
    # a first value of 1 at a time other than 0
    @example(text="5,1\n6,2\n7,3\n8,4\n", mode=MODES[2])
    # a first time of -0 shifts to +0
    @example(text="-0,1\n1,2\n2,3\n3,4\n", mode=MODES[0])
    @example(text="-0,1\n1,2\n2,3\n3,4\n", mode=MODES[2])
    # a later value that is not positive
    @example(text="0,1\n1,0\n2,3\n3,4\n", mode=MODES[2])
    @example(text="0,1\n1,-0\n2,3\n3,4\n", mode=MODES[0])
    @example(text="0,1\n1,2\n2,-1\n3,4\n", mode=MODES[2])
    # unsorted rows whose smallest t is 0, with value 1
    @example(text="2,3\n0,1\n3,4\n1,2\n", mode=MODES[0])
    @example(text="2,3\n0,1\n3,4\n1,2\n", mode=MODES[2])
    # a first value near 1 under a Normalization of (0, 1): accepted and
    # stored as 1, but not the identity
    @example(text="0,1.0000000001\n1,2\n2,3\n3,4\n", mode=MODES[2])
    @example(text="0,1.0000000001\n1,2\n2,3\n3,4\n", mode=("affine", 0.0, 1.0))
    def test_matches_normalize_of_load_csv(self, path, text, mode):
        """read_signal(path, mode, a, b) gives the same signal, or the same
        error, as normalize(load_csv(path), mode, a, b)."""
        path.write_bytes(text.encode("utf-8"))
        assert signal_outcome(lambda: signal.read_signal(path, *mode)) == signal_outcome(
            lambda: normalize(load_csv(path), *mode))


class TestSampledSignal:
    def test_interpolant_exact_at_samples(self):
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        for t, v in zip(sig.abscissas, sig.values):
            assert sig(float(t)) == pytest.approx(float(v), abs=1e-15)

    def test_interpolant_stays_positive(self):
        sig = normalize(half_sin_series(4.0, 0.05), "none")
        probes = np.linspace(0.0, 4.0, 4001)
        assert all(sig(float(t)) > 0.0 for t in probes)

    @pytest.mark.parametrize("ts, vs, message", [
        ([0.5, 1.0], [1.0, 2.0], "first abscissa must be 0"),
        ([0.0, math.inf], [1.0, 2.0], "abscissas and values must be finite"),
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "abscissas must be strictly increasing"),
        ([0.0, 1.0], [2.0, 1.0], "normalized value at t=0 must be exactly 1"),
        ([0.0, 1.0], [1.0, math.nan], "abscissas and values must be finite"),
    ])
    def test_direct_construction_checks(self, ts, vs, message):
        with pytest.raises(ValueError, match=message):
            SampledSignal(ts, vs, Normalization(0.0, 1.0))

    @pytest.mark.parametrize("normalization", [
        Normalization(0.0, 0.0), Normalization(0.0, -0.0), Normalization(0.0, math.nan),
        Normalization(0.0, math.inf), Normalization(math.nan, 1.0), Normalization(-math.inf, 1.0),
        None, (0.0, 1.0)])
    def test_direct_construction_checks_the_normalization(self, normalization):
        # forecast divides by the scale: 0 would end in ZeroDivisionError,
        # a nan scale in a nan forecast, and a record that is not a
        # Normalization in an AttributeError
        with pytest.raises(ValueError, match="finite offset and a finite, nonzero scale"):
            SampledSignal([0.0, 1.0], [1.0, 2.0], normalization)

    def test_out_of_domain(self):
        sig = normalize(half_sin_series(2.0, 0.25), "none")
        with pytest.raises(DomainCoverageError):
            sig(2.5)
        with pytest.raises(DomainCoverageError):
            sig(-0.1)
        for query in (sig, sig.signed_log):
            with pytest.raises(DomainCoverageError, match=r"^abscissa nan outside"):
                query(math.nan)


def random_series(rows, seed, positive=False):
    """Uneven knots; values with sign changes, zeros, flat runs and repeats."""
    rng = random.Random(seed)
    ts = [0.0]
    while len(ts) < rows:
        ts.append(ts[-1] + rng.choice([0.05, rng.uniform(1e-6, 2.0), rng.expovariate(3.0)]))
    vs = []
    for _ in range(rows):
        roll = rng.random()
        if roll < 0.25 and vs:
            vs.append(vs[-1])
        elif roll < 0.4:
            vs.append(float(rng.randint(-2, 2)))
        else:
            vs.append(rng.uniform(-3.0, 3.0) * 10.0 ** rng.randint(-2, 2))
    if positive:
        vs = [1.0] + [abs(v) + 0.5 for v in vs[1:]]
    return ts, vs


def queries(ts, seed):
    """Every knot, the last included, then random interior points, most of
    them near t = 0, where a forecast samples."""
    rng = random.Random(seed)
    span = ts[-1]
    return ts + [span * rng.random() for _ in ts] + [span * rng.random() ** 8 for _ in ts]


ROWS = (2, 3, 4, 81, 801)


class TestPchipMatchesScipy:
    """The package's PCHIP performs scipy's floating-point operations, so
    values must be equal, not close."""

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical(self, rows, seed):
        ts, vs = random_series(rows, seed)
        reference = PchipInterpolator(np.array(ts), np.array(vs), extrapolate=False)
        pchip, qs = _Pchip(ts, vs), queries(ts, seed)
        want = reference(np.array(qs)).tolist()
        assert [pchip.values((q,))[0] for q in qs] == want
        # one batch through a fresh interpolant, in given, reversed and shuffled order
        shuffled = list(range(len(qs)))
        random.Random(seed).shuffle(shuffled)
        for order in (range(len(qs)), range(len(qs))[::-1], shuffled):
            assert _Pchip(ts, vs).values([qs[i] for i in order]) == [want[i] for i in order]

    @pytest.mark.parametrize("x", [-0.5, 3.5, math.nan])
    def test_point_outside_the_knots(self, x):
        # the loop would read a cubic at index -1, or extrapolate the last one
        pchip = _Pchip((0.0, 1.0, 2.0, 3.0), (1.0, 1.5, 1.25, 2.0))
        for points in ([x], [1.5, x], [x, 1.5]):
            with pytest.raises(ValueError, match=r"^sample point .* leaves \[0\.0, 3\.0\]$"):
                pchip.values(points)

    @pytest.mark.parametrize("rows", ROWS)
    def test_sampled_signal_bit_identical(self, rows):
        ts, vs = random_series(rows, 100 + rows, positive=True)
        sig = SampledSignal(np.array(ts), np.array(vs), Normalization(0.0, 1.0))
        reference = PchipInterpolator(sig.abscissas, sig.values, extrapolate=False)
        qs = queries(ts, rows)
        assert [sig(q) for q in qs] == reference(np.array(qs)).tolist()
        # geometric runs x / r**n, as an estimate samples them, each through
        # log_batch on a fresh signal
        for x in (ts[-1], ts[-1] * 0.7, ts[1]):
            for r in (2.0, 1.5, 1.0 + 2.0**-8):
                points = [x / r**n for n in range(40)]
                fresh = SampledSignal(sig.abscissas, sig.values, sig.normalization)
                logs, negatives = fresh.log_batch(iter(points))
                assert list(logs) == [math.log(v) for v in reference(np.array(points)).tolist()]
                assert negatives == ()

    def test_returns_python_float(self):
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        for t in (0.0, 1.3, 4.0):
            assert type(sig(np.float64(t))) is float


class TestCoverageCheck:
    def test_zero_horizon(self):
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        assert coverage_check(sig, FIG2_CFG, 0.0).ok

    def test_fig2_horizon(self):
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        report = coverage_check(sig, FIG2_CFG, 4.0)
        # largest point comes from the singleton {4}: (2^4-1)^(1/4) * 4 / 2
        assert report.max_required == pytest.approx(15.0**0.25 * 4.0 / 2.0, rel=1e-12)
        assert report.ok == (report.max_required <= 4.0)

    def test_infeasible_with_suggestion(self):
        sig = normalize(half_sin_series(1.0, 0.1), "none")
        cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1))
        report = coverage_check(sig, cfg, 100.0)
        assert not report.ok
        # points scale linearly in x, so the suggested horizon is exact
        assert coverage_check(sig, cfg, report.max_feasible_x).max_required == pytest.approx(
            1.0, rel=1e-12
        )

    def test_negative_horizon_is_not_covered(self):
        # every sample of x < 0 lies at t < 0, outside [0, 4]
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1, 2))
        report = coverage_check(sig, cfg, -0.5)
        assert not report.ok
        # the farthest sample is {2}'s first: sqrt(2^2 - 1) * -0.5 / 2
        assert report.max_required == pytest.approx(-(3.0**0.5) / 4.0, rel=1e-12)
        assert report.max_feasible_x == coverage_check(sig, cfg, 0.5).max_feasible_x

    @pytest.mark.parametrize("cfg, x, required, horizon", [
        # x / 2, the first sample of {1} at r = 2, rounds to 0.0
        pytest.param(GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1)), x,
                     math.copysign(0.0, x), 8.0, id=repr(x))
        for x in (5e-324, -5e-324)
    ] + [
        # {4}'s first sample, 15^(1/4) x / 2, rounds to a few subnormal ulps
        pytest.param(FIG2_CFG, x, required, 4.0 / (15.0**0.25 / 2.0), id=f"fig2-{x!r}")
        for x, required in ((5e-324, 5e-324), (1e-320, 9.8417876651576312e-321))
    ])
    def test_subnormal_horizon(self, cfg, x, required, horizon):
        # the horizon is that of a normal x, domain_end / max_S(coeff / r^|S|)
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        report = coverage_check(sig, cfg, x)
        assert report.ok == (x > 0.0)
        assert repr(report.max_required) == repr(required)
        assert report.max_feasible_x == coverage_check(sig, cfg, 1.0).max_feasible_x == horizon


class TestForecast:
    def test_negative_horizon_fails_before_sampling(self):
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1, 2))
        with pytest.raises(DomainCoverageError) as info:
            forecast(sig, -0.5, cfg)
        # the coverage check's message, not a sample's "[subset S, n=...]"
        assert str(info.value) == (
            f"abscissa {-(3.0**0.5) * 0.5 / 2.0!r} outside sampled range [0.0, 4.0] "
            "(forecast at x=-0.5 infeasible; a horizon x < 0 samples t < 0, "
            "and the signal covers t >= 0 only)"
        )

    def test_constant_signal(self):
        sig = normalize([(t, 1.0) for t in (0.0, 1.0, 2.0, 3.0, 4.0)], "none")
        cfg = GmpConfig(r=2.0, n_max=15, base=IndexSet.of(1, 2))
        result = forecast(sig, 3.0, cfg)
        assert result.raw_value == pytest.approx(1.0, abs=1e-13)

    def test_half_sin_round_trip(self):
        sig = normalize(half_sin_series(4.0, 0.05), "none")
        result = forecast(sig, 3.0, FIG2_CFG)
        analytic = estimate(HALF_SIN_SHIFTED, 3.0, FIG2_CFG)
        interp_err = max(
            abs(sig(t) - (1.0 + 0.5 * math.sin(t))) for t in np.linspace(0, 4, 2001)
        )
        assert abs(result.raw_value - analytic.value) <= 10.0 * interp_err
        assert result.raw_value == pytest.approx(1.0 + 0.5 * math.sin(3.0), abs=0.01)

    def test_exp_closed_form(self):
        ts = np.linspace(0.0, 2.0, 81)
        raw = [(float(t), math.exp(t)) for t in ts]
        sig = normalize(raw, "divide_by_first")
        cfg = GmpConfig(r=2.0, n_max=20, base=IndexSet.of(1))
        result = forecast(sig, 1.5, cfg)
        expected = math.exp(1.5 * (1.0 - 2.0**-20))
        assert result.raw_value == pytest.approx(expected, abs=5e-4)

    def test_infeasible_horizon_raises(self):
        sig = normalize(half_sin_series(1.0, 0.1), "none")
        cfg = GmpConfig(r=2.0, n_max=10, base=IndexSet.of(1))
        with pytest.raises(DomainCoverageError, match="feasible"):
            forecast(sig, 100.0, cfg)


class TestNormalizationRecord:
    def test_identity_round_trip(self):
        rec = Normalization(offset=0.25, scale=1.75)
        for v in (-3.0, 0.0, 0.9, 12.5):
            assert rec.invert(rec.apply(v)) == pytest.approx(v, abs=1e-14)
