import csv
import math
import random

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from geomprod.combinatorics import IndexSet
from geomprod.core import GmpConfig, estimate
from geomprod.errors import (
    DomainCoverageError,
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

    @pytest.mark.parametrize("raw", [
        [(0, 1e-300), (1, 1.0), (2, 1e300), (3, 1.0)],  # the scaled 1e300 overflows
        [(-1e308, 1.0), (0, 1.0), (1e308, 1.0), (1.5e308, 1.0)],  # so does the shifted time
    ])
    def test_non_finite_after_normalization(self, raw):
        with pytest.raises(NormalizationError, match="finite"):
            normalize(raw, "divide_by_first")

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="two or more"):
            normalize([(0, 1.0)], "divide_by_first")
        with pytest.raises(ValueError, match="one value for each"):
            SampledSignal(np.array([0.0, 1.0]), np.array([1.0]), Normalization(0.0, 1.0))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
    def test_two_dimensional_input(self, shape):
        grid = np.ones(shape)
        with pytest.raises(ValueError, match="need two or more abscissas and one value for each"):
            SampledSignal(grid, grid, Normalization(0.0, 1.0))

    def test_inputs_stay_writeable(self):
        ts, vs = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.5, 2.0])
        sig = SampledSignal(ts, vs, Normalization(0.0, 1.0))
        assert ts.flags.writeable and vs.flags.writeable
        assert sig.abscissas == (0.0, 1.0, 2.0) and sig.values == (1.0, 1.5, 2.0)
        assert all(type(v) is float for v in sig.abscissas + sig.values)

    def test_scale_is_python_float(self):
        sig = normalize([(0, 2.0), (1, 2.2), (2, 2.6), (3, 2.9)], "divide_by_first")
        assert type(sig.normalization.scale) is float
        assert repr(sig.normalization) == "Normalization(offset=0.0, scale=0.5)"

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


class TestSampledSignal:
    def test_interpolant_exact_at_samples(self):
        sig = normalize(half_sin_series(4.0, 0.25), "none")
        for t, v in zip(sig.abscissas, sig.values):
            assert sig(float(t)) == pytest.approx(float(v), abs=1e-15)

    def test_interpolant_stays_positive(self):
        sig = normalize(half_sin_series(4.0, 0.05), "none")
        probes = np.linspace(0.0, 4.0, 4001)
        assert all(sig(float(t)) > 0.0 for t in probes)

    def test_out_of_domain(self):
        sig = normalize(half_sin_series(2.0, 0.25), "none")
        with pytest.raises(DomainCoverageError):
            sig(2.5)
        with pytest.raises(DomainCoverageError):
            sig(-0.1)


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
        assert [pchip(q) for q in qs] == reference(np.array(qs)).tolist()

    @pytest.mark.parametrize("rows", ROWS)
    def test_sampled_signal_bit_identical(self, rows):
        ts, vs = random_series(rows, 100 + rows, positive=True)
        sig = SampledSignal(np.array(ts), np.array(vs), Normalization(0.0, 1.0))
        reference = PchipInterpolator(sig.abscissas, sig.values, extrapolate=False)
        qs = queries(ts, rows)
        assert [sig(q) for q in qs] == reference(np.array(qs)).tolist()

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
