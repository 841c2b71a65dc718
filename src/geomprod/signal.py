"""Forecasting from sampled data.

A raw (t, value) series is shifted so time starts at 0, normalized so the
first value is exactly 1, and bridged to the estimator's geometric sample
points with a shape-preserving cubic interpolant (PCHIP). Coverage checks
guarantee every required sample point lies inside the sampled range before a
forecast runs.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

from .core import Estimate, GmpConfig, estimate
from .errors import (
    DomainCoverageError,
    NonPositiveSampleError,
    NormalizationError,
    SignalFormatError,
    ZeroSampleError,
)

MIN_POINTS = 4


@dataclass(frozen=True)
class Normalization:
    """Affine record: stored = offset + scale * raw."""

    offset: float
    scale: float

    def apply(self, raw: float) -> float:
        return self.offset + self.scale * raw

    def invert(self, stored: float) -> float:
        return (stored - self.offset) / self.scale


def load_csv(path) -> list[tuple[float, float]]:
    """Parse a two-column UTF-8 CSV of (t, value) pairs.

    An unparseable first row is treated as a header. Rows are sorted by t;
    non-finite numbers, duplicate abscissas and series shorter than
    MIN_POINTS are rejected, and so is a file that is not UTF-8 or that the
    csv module cannot read: each as a SignalFormatError.
    """
    rows: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for lineno, record in enumerate(reader, start=1):
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                if len(record) != 2:
                    raise SignalFormatError(
                        f"{path}:{lineno}: expected two columns, got {len(record)}"
                    )
                try:
                    t, v = float(record[0]), float(record[1])
                except ValueError:
                    if lineno == 1:
                        continue  # header
                    raise SignalFormatError(
                        f"{path}:{lineno}: could not parse {record!r} as numbers"
                    ) from None
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise SignalFormatError(
                        f"{path}:{lineno}: non-finite number in {record!r}"
                    )
                rows.append((t, v))
        except csv.Error as e:  # e.g. a field over csv.field_size_limit()
            raise SignalFormatError(f"{path}:{reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise SignalFormatError(f"{path}: not UTF-8 text ({e.reason})") from None
    rows.sort(key=operator.itemgetter(0))
    for (t0, _), (t1, _) in zip(rows, rows[1:]):
        if t0 == t1:
            raise SignalFormatError(f"{path}: duplicate abscissa {t0!r}")
    if len(rows) < MIN_POINTS:
        raise SignalFormatError(
            f"{path}: need at least {MIN_POINTS} points, got {len(rows)}"
        )
    return rows


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope with its two shape guards (Moler,
    Numerical Computing with MATLAB, section 3.6, pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """scipy's PchipInterpolator(ts, vs, extrapolate=False) on [ts[0], ts[-1]],
    computed with the same floating-point operations in the same order, so
    every value matches it to the bit.

    A forecast queries a few intervals near t = 0 hundreds of times and most
    others never, so each interval's cubic is built on its first query.
    """

    __slots__ = ("_ts", "_vs", "_last", "_cubics")

    def __init__(self, ts: tuple[float, ...], vs: tuple[float, ...]):
        self._ts = ts
        self._vs = vs
        self._last = len(ts) - 2  # the last knot belongs to the last interval
        self._cubics: dict[int, tuple[float, float, float, float]] = {}

    def _secant(self, i: int) -> float:
        return (self._vs[i + 1] - self._vs[i]) / (self._ts[i + 1] - self._ts[i])

    def _slope(self, k: int) -> float:
        """The derivative at knot k."""
        ts, last = self._ts, self._last
        if last == 0:
            return self._secant(0)
        if k == 0:
            return _end_slope(ts[1] - ts[0], ts[2] - ts[1], self._secant(0), self._secant(1))
        if k == last + 1:
            return _end_slope(ts[k] - ts[k - 1], ts[k - 1] - ts[k - 2],
                              self._secant(k - 1), self._secant(k - 2))
        # Fritsch-Butland weighted harmonic mean of the neighbouring secants,
        # zero where either is flat or their signs differ.
        ml, mr = self._secant(k - 1), self._secant(k)
        if ml == 0.0 or mr == 0.0 or _sign(ml) != _sign(mr):
            return 0.0
        hl, hr = ts[k] - ts[k - 1], ts[k + 1] - ts[k]
        w1, w2 = 2 * hr + hl, hr + 2 * hl
        whmean = (w1 / ml + w2 / mr) / (w1 + w2)
        # numpy's 1/0 is a signed infinity where Python raises
        return 1.0 / whmean if whmean else math.copysign(math.inf, whmean)

    def _cubic(self, i: int) -> tuple[float, float, float, float]:
        """CubicHermiteSpline's coefficients on interval i, constant first."""
        h = self._ts[i + 1] - self._ts[i]
        m = self._secant(i)
        d0, d1 = self._slope(i), self._slope(i + 1)
        t = (d0 + d1 - 2 * m) / h
        return self._vs[i], d0, (m - d0) / h - t, t / h

    def __call__(self, x: float) -> float:
        i = bisect_right(self._ts, x) - 1
        if i > self._last:
            i = self._last
        c = self._cubics.get(i)
        if c is None:
            c = self._cubics[i] = self._cubic(i)
        s = x - self._ts[i]
        z = s * s
        # PPoly's sum, from 0.0 upward with a running power of s
        return 0.0 + c[0] + c[1] * s + c[2] * z + c[3] * (z * s)


class SampledSignal:
    """Immutable sampled series with a shape-preserving cubic interpolant.

    Acts as a FunctionSource over [0, t_last]; queries outside the sampled
    range raise DomainCoverageError. `abscissas` (the shifted times) and
    `values` (the normalized values) are tuples of floats, and the
    interpolant reads the same tuples.
    """

    def __init__(self, abscissas, values, normalization: Normalization):
        try:
            ts = tuple(map(float, abscissas))
            vs = tuple(map(float, values))
        except TypeError:  # a scalar, or the rows of a 2-D array
            ts = vs = ()
        if len(ts) < 2 or len(vs) != len(ts):
            raise ValueError("need two or more abscissas and one value for each")
        if ts[0] != 0.0:
            raise ValueError("first abscissa must be 0 after time shift")
        # inf < inf is False, so an overflowed time must fail here, before
        # the order check could call it out of order.
        if not all(map(math.isfinite, ts)):
            raise ValueError("abscissas and values must be finite")
        if not all(map(operator.lt, ts, ts[1:])):
            raise ValueError("abscissas must be strictly increasing")
        # nan <= 0 is False: a nan value fails the last check, not this one
        if any(map(operator.le, vs, itertools.repeat(0.0))):
            bad = next(i for i, v in enumerate(vs) if v <= 0.0)
            raise NormalizationError(f"non-positive value {vs[bad]!r} at t={ts[bad]!r}")
        if vs[0] != 1.0:
            raise ValueError("normalized value at t=0 must be exactly 1")
        if not all(map(math.isfinite, vs)):
            raise ValueError("abscissas and values must be finite")
        self.abscissas = ts
        self.values = vs
        self.normalization = normalization
        self._t_last = ts[-1]
        self._interp = _Pchip(ts, vs)

    @property
    def domain(self) -> tuple[float, float]:
        return 0.0, self._t_last

    def __call__(self, x: float) -> float:
        x = float(x)
        if x < 0.0 or x > self._t_last:
            raise DomainCoverageError(x, 0.0, self._t_last)
        return self._interp(x)

    def signed_log(self, x: float) -> tuple[int, float]:
        v = self(x)
        if v == 0.0:
            raise ZeroSampleError(x)
        if v < 0.0:
            raise NonPositiveSampleError(x, v, "interpolated signal value")
        return 1, math.log(v)

    def log_batch(self, points):
        """signed_log's batch form (see core.FunctionSource): log v at each
        point, and no negatives. The points lie on one geometric sequence, so
        its two end points bound it and are checked against [0, t_last] once.
        An out-of-range block, or a value v <= 0 (math.log's domain), raises
        ValueError, and the estimator's signed_log calls raise the typed
        error."""
        points = tuple(points)
        first, last = points[0], points[-1]
        t_last = self._t_last
        if not (0.0 <= first <= t_last and 0.0 <= last <= t_last):
            raise ValueError(f"sample points {first!r}..{last!r} leave [0, {t_last!r}]")
        return map(math.log, map(self._interp, points)), ()


def normalize(
    raw: list[tuple[float, float]],
    mode: str = "divide_by_first",
    a: float | None = None,
    b: float | None = None,
) -> SampledSignal:
    """Build a SampledSignal from a raw series.

    Modes: 'divide_by_first' (scale so the first value is 1), 'affine'
    (stored = a + b*raw; must map the first value to 1), 'none' (raw values
    must already start at 1).
    """
    t0, v0 = raw[0]
    ts = [t - t0 for t, _ in raw]
    if mode == "divide_by_first":
        if v0 == 0.0:
            raise NormalizationError("first value is zero; cannot divide by it")
        norm = Normalization(offset=0.0, scale=1.0 / v0)
    elif mode == "affine":
        if a is None or b is None or b == 0.0:
            raise ValueError("affine mode needs offset a and nonzero scale b")
        norm = Normalization(offset=float(a), scale=float(b))
    elif mode == "none":
        norm = Normalization(offset=0.0, scale=1.0)
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    offset, scale = norm.offset, norm.scale
    stored = [offset + scale * v for _, v in raw]
    if abs(stored[0] - 1.0) > 1e-9:
        raise NormalizationError(
            f"normalized value at t=0 is {stored[0]!r}, must be 1"
        )
    stored[0] = 1.0
    # A raw series of finite numbers can still overflow here, and that is a
    # normalization failure, not a bad argument.
    if not (all(map(math.isfinite, ts)) and all(map(math.isfinite, stored))):
        raise NormalizationError("shifted times and normalized values must be finite")
    return SampledSignal(ts, stored, norm)  # rejects a non-positive stored value


@dataclass(frozen=True)
class CoverageReport:
    """ok: every sample point lies in [0, domain_end]. max_required: the
    sample point farthest from 0, negative for x < 0. max_feasible_x: the
    largest x > 0 whose samples all lie in the range."""

    ok: bool
    max_required: float
    domain_end: float
    max_feasible_x: float


def coverage_check(sig: SampledSignal, cfg: GmpConfig, x: float) -> CoverageReport:
    """Check that every geometric sample point for (cfg, x) lies inside the
    sampled range; report the largest feasible horizon either way. Every
    sample of an x < 0 lies at t < 0, so no x < 0 is covered."""
    domain_end = sig.domain[1]
    if x == 0.0:
        return CoverageReport(True, 0.0, domain_end, math.inf)
    # Each subset's farthest sample is its first: coeff * |x| / r^|S|.
    farthest = max(plan.coeff * abs(x) / plan.r_pows[0] for plan in cfg.plan)
    return CoverageReport(
        x > 0.0 and farthest <= domain_end,
        math.copysign(farthest, x),
        domain_end,
        abs(x) * domain_end / farthest,
    )


@dataclass(frozen=True)
class ForecastResult:
    normalized: Estimate
    raw_value: float
    coverage: CoverageReport


def forecast(sig: SampledSignal, x: float, cfg: GmpConfig) -> ForecastResult:
    """Multiproduct estimate of the signal at horizon x, mapped back to raw
    units through the stored normalization record."""
    report = coverage_check(sig, cfg, x)
    if not report.ok:
        reason = (
            "a horizon x < 0 samples t < 0, and the signal covers t >= 0 only"
            if x < 0.0
            else f"largest feasible x is {report.max_feasible_x:.6g}"
        )
        raise DomainCoverageError(
            report.max_required,
            0.0,
            report.domain_end,
            f"forecast at x={x} infeasible; {reason}",
        )
    est = estimate(sig, x, cfg)
    return ForecastResult(
        normalized=est,
        raw_value=sig.normalization.invert(est.value),
        coverage=report,
    )
