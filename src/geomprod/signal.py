"""Forecasting from sampled data.

A raw (t, value) series is shifted so time starts at 0, normalized so the
first value is exactly 1, and bridged to the estimator's geometric sample
points with a shape-preserving cubic interpolant (PCHIP). Coverage checks
guarantee every required sample point lies inside the sampled range before a
forecast runs.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
import operator
import os
import reprlib
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import check_real, check_reals
from .core import Estimate, GmpConfig, _logs, estimate
from .errors import (
    DomainCoverageError,
    NonPositiveSampleError,
    NormalizationError,
    SignalFormatError,
    ZeroSampleError,
)

MIN_POINTS = 4


class Normalization(NamedTuple):
    """Affine record: stored = offset + scale * raw. apply and invert take
    their number's float (check_real)."""

    offset: float
    scale: float

    def apply(self, raw: float) -> float:
        return self.offset + self.scale * check_real(raw, "raw")

    def invert(self, stored: float) -> float:
        return (check_real(stored, "stored") - self.offset) / self.scale


def load_csv(path) -> list[tuple[float, float]]:
    """Parse a two-column UTF-8 CSV of (t, value) pairs.

    One leading byte order mark is ignored, and an unparseable first row
    is treated as a header. Rows are sorted by t;
    non-finite numbers, duplicate abscissas and series shorter than
    MIN_POINTS are rejected, and so is a file that is not UTF-8 or that the
    csv module cannot read: each as a SignalFormatError.
    """
    return list(zip(*_read_columns(path)))


def _read_columns(path) -> tuple[list[float], list[float]]:
    """load_csv's series as (ts, vs), sorted by t and checked."""
    try:
        os.fspath(path)
    except TypeError:  # open() would read an int or a bool as a file descriptor, then close it
        raise ValueError(f"path must be a str, bytes or os.PathLike, got {path!r}") from None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # Excel's "CSV UTF-8" writes one
    except UnicodeDecodeError as e:
        raise SignalFormatError(f"{path}: not UTF-8 text ({e.reason})") from None
    ts, vs = _plain_columns(text) or _csv_columns(path, text)
    if not all(map(operator.lt, ts, ts[1:])):
        order = sorted(range(len(ts)), key=ts.__getitem__)
        ts = [ts[i] for i in order]
        vs = [vs[i] for i in order]
        for t0, t1 in zip(ts, ts[1:]):
            if t0 == t1:
                raise SignalFormatError(f"{path}: duplicate abscissa {t0!r}")
    if len(ts) < MIN_POINTS:
        raise SignalFormatError(
            f"{path}: need at least {MIN_POINTS} points, got {len(ts)}"
        )
    return ts, vs


# Every byte but the two separators, which _plain_columns keeps in order.
_NOT_SEPARATOR = bytes(c for c in range(256) if c not in b",\n")


def _plain_columns(text: str) -> tuple[list[float], list[float]] | None:
    """The (ts, vs) columns of a plain text in one pass of float, or None
    for any other text, which only the csv module reads.

    Plain means no quote, carriage return or NUL (csv gives these meaning,
    and Python 3.10's csv rejects NUL), exactly one comma on every line, no
    cell longer than csv.field_size_limit() (a process-wide setting, so it
    is read on each call), and every cell below an optional header a finite
    float. csv.reader splits such a text into the same cells, so both
    readers give the same floats.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    if not text.endswith("\n"):
        text += "\n"
    # one comma on every line: the separators read ",\n" once per line
    separators = text.encode().translate(None, _NOT_SEPARATOR)
    if separators != b",\n" * (len(separators) // 2):
        return None
    cells = text.replace("\n", ",").split(",")
    cells.pop()  # the empty cell after the last newline
    limit = csv.field_size_limit()
    if not _lines_within(text, limit) and max(map(len, cells)) > limit:
        return None
    try:
        float(cells[0]), float(cells[1])
    except ValueError:
        del cells[:2]  # header
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    if not _all_finite(values):
        return None
    return values[0::2], values[1::2]


def _lines_within(text: str, limit: int) -> bool:
    """True only if no line of text is longer than limit characters, found
    with one search per w = limit // 2 + 1 characters: a newline-free run of
    2w - 1 or more characters holds a whole w-character span that starts at
    a multiple of w, so when every such span holds a newline, every line is
    at most 2w - 2 <= limit long. False means the lines must be measured."""
    w = limit // 2 + 1  # csv takes any int as its limit, so w may be < 1
    return w > 0 and all(text.find("\n", k, k + w) >= 0 for k in range(0, len(text), w))


def _all_finite(xs) -> bool:
    """all(map(math.isfinite, xs)), mostly in one C pass: hypot is inf or
    nan when any term is, so a finite hypot proves every term finite, and
    only one that overflowed pays for the scan. hypot reads each term as
    isfinite does; sum would add ints exactly and numpy scalars in numpy,
    which warns when the sum overflows. An int or a Fraction past the float
    range, which an exact shift can make, is not finite."""
    try:
        return math.isfinite(math.hypot(*xs)) or all(map(math.isfinite, xs))
    except OverflowError:
        return False


def _csv_columns(path, text: str) -> tuple[list[float], list[float]]:
    """The (ts, vs) columns, in file order, of any text the csv module reads,
    with a `path:line:` SignalFormatError naming the line that ends a row it
    cannot use (a quoted cell may span lines). Only the first is a header."""
    ts: list[float] = []
    vs: list[float] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for index, record in enumerate(reader):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != 2:
                raise SignalFormatError(
                    f"{path}:{reader.line_num}: expected two columns, got {len(record)}"
                )
            try:
                t, v = float(record[0]), float(record[1])
            except ValueError:
                if index == 0:
                    continue  # header
                raise SignalFormatError(
                    f"{path}:{reader.line_num}: could not parse {record!r} as numbers"
                ) from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise SignalFormatError(
                    f"{path}:{reader.line_num}: non-finite number in {record!r}"
                )
            ts.append(t)
            vs.append(v)
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise SignalFormatError(f"{path}:{reader.line_num}: {e}") from None
    return ts, vs


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


def _inner_slope(hl: float, hr: float, ml: float, mr: float) -> float:
    """The slope at an interior knot: the Fritsch-Butland weighted harmonic
    mean of the secants ml and mr of its intervals hl and hr, zero where
    either is flat or their signs differ. A secant of finite values over
    increasing finite abscissas is never nan, so two nonzero secants differ
    in sign exactly where one is positive and the other not."""
    if ml == 0.0 or mr == 0.0 or (ml > 0.0) != (mr > 0.0):
        return 0.0
    w1, w2 = 2 * hr + hl, hr + 2 * hl
    whmean = (w1 / ml + w2 / mr) / (w1 + w2)
    # numpy's 1/0 is a signed infinity where Python raises
    return 1.0 / whmean if whmean else math.copysign(math.inf, whmean)


class _Pchip:
    """scipy's PchipInterpolator(ts, vs, extrapolate=False) on [ts[0], ts[-1]],
    computed with the same floating-point operations in the same order, so
    every value matches it to the bit; outside that range it raises ValueError.

    A forecast queries a few intervals near t = 0 hundreds of times and most
    others never, so each interval's cubic is built on its first query, and
    a geometric sequence's points are evaluated in one call to values().
    """

    __slots__ = ("_ts", "_vs", "_last", "_cubics")

    def __init__(self, ts: tuple[float, ...], vs: tuple[float, ...]):
        self._ts = ts
        self._vs = vs
        self._last = len(ts) - 2  # the last knot belongs to the last interval
        self._cubics: dict[int, tuple[float, float, float, float]] = {}

    def _cubic(self, i: int) -> tuple[float, float, float, float]:
        """CubicHermiteSpline's coefficients on interval i, constant first,
        from the secants of intervals i - 1, i and i + 1, where they exist."""
        ts, vs, last = self._ts, self._vs, self._last
        t0, t1, v0, v1 = ts[i], ts[i + 1], vs[i], vs[i + 1]
        h = t1 - t0
        m = (v1 - v0) / h
        if last == 0:
            d0 = d1 = m
        else:
            if i > 0:
                hl = t0 - ts[i - 1]
                ml = (v0 - vs[i - 1]) / hl
            if i < last:
                hr = ts[i + 2] - t1
                mr = (vs[i + 2] - v1) / hr
            d0 = _inner_slope(hl, h, ml, m) if i > 0 else _end_slope(h, hr, m, mr)
            d1 = _inner_slope(h, hr, m, mr) if i < last else _end_slope(h, hl, m, ml)
        t = (d0 + d1 - 2 * m) / h
        return v0, d0, (m - d0) / h - t, t / h

    def values(self, points) -> list[float]:
        """The interpolant at each point, in any order. The current interval's
        cubic stays at hand, and bisect_right runs only for a point outside
        that interval, after a ValueError for one outside [ts[0], ts[-1]]."""
        ts, last, cubics = self._ts, self._last, self._cubics
        start, end = ts[0], ts[-1]
        lo = hi = math.nan  # the current interval [lo, hi); none yet
        out = []
        append = out.append
        for x in points:
            if not lo <= x < hi:
                if not start <= x <= end:  # nan too
                    raise ValueError(f"sample point {x!r} leaves [{start!r}, {end!r}]")
                i = bisect_right(ts, x) - 1
                if i > last:
                    i = last
                c = cubics.get(i)
                if c is None:
                    c = cubics[i] = self._cubic(i)
                c0, c1, c2, c3 = c
                lo, hi = ts[i], ts[i + 1]  # t_last itself takes the bisect
            s = x - lo
            z = s * s
            # PPoly's sum, from 0.0 upward with a running power of s
            append(0.0 + c0 + c1 * s + c2 * z + c3 * (z * s))
        return out


def _check_increasing_and_positive(ts: tuple[float, ...], vs: tuple[float, ...]) -> None:
    """Raise unless the floats ts strictly increase and every value is positive."""
    if not all(map(operator.lt, ts, ts[1:])):
        raise ValueError("abscissas must be strictly increasing")
    # nan <= 0 is False: a nan value is left to the finiteness check
    if any(map(operator.le, vs, itertools.repeat(0.0))):
        bad = next(i for i, v in enumerate(vs) if v <= 0.0)
        raise NormalizationError(f"non-positive value {vs[bad]!r} at t={ts[bad]!r}")


class SampledSignal:
    """Immutable sampled series with a shape-preserving cubic interpolant.

    Acts as a FunctionSource over [0, t_last]; queries outside the sampled
    range raise DomainCoverageError. `abscissas` (the shifted times) and
    `values` (the normalized values) are tuples of floats, and the
    interpolant reads the same tuples.

    The constructor checks, in this order: two or more abscissas and one
    value for each, every entry of both a real number (check_reals' rule,
    which is check_real's tested once per type), a first abscissa of 0,
    finite abscissas, strictly increasing abscissas, positive values (a
    NormalizationError), a first value of exactly 1, finite values, and a
    Normalization with a finite offset and a finite, nonzero scale, which
    forecast inverts. Every other failure is a ValueError. It keeps each
    entry as float() gives it.
    """

    def __init__(self, abscissas, values, normalization: Normalization):
        try:
            ts, vs = tuple(abscissas), tuple(values)
        except TypeError:  # a scalar
            ts = vs = ()
        if len(ts) < 2 or len(vs) != len(ts):
            raise ValueError("need two or more abscissas and one value for each")
        ts, vs = check_reals(ts, "abscissas"), check_reals(vs, "values")
        if ts[0] != 0.0:
            raise ValueError("first abscissa must be 0 after time shift")
        # inf < inf is False, so an overflowed time must fail here, before
        # the order check could call it out of order.
        if not _all_finite(ts):
            raise ValueError("abscissas and values must be finite")
        _check_increasing_and_positive(ts, vs)
        # checked after those two, so that a series failing several gets
        # the message of the first in the order above
        if vs[0] != 1.0:
            raise ValueError("normalized value at t=0 must be exactly 1")
        if not _all_finite(vs):
            raise ValueError("abscissas and values must be finite")
        if not (isinstance(normalization, Normalization) and math.isfinite(normalization.offset)
                and math.isfinite(normalization.scale) and normalization.scale != 0.0):
            raise ValueError("normalization must be a Normalization with a finite offset and a "
                             f"finite, nonzero scale, got {normalization!r}")
        self._keep(ts, vs, normalization)

    @classmethod
    def _of_floats(cls, ts: tuple[float, ...], vs: tuple[float, ...],
                   normalization: Normalization) -> SampledSignal:
        """A SampledSignal of float tuples that pass every check of the
        constructor, built without running any."""
        self = cls.__new__(cls)
        self._keep(ts, vs, normalization)
        return self

    def _keep(self, ts, vs, normalization: Normalization) -> None:
        self.abscissas = ts
        self.values = vs
        self.normalization = normalization
        self._interp = _Pchip(ts, vs)

    @property
    def domain(self) -> tuple[float, float]:
        return 0.0, self.abscissas[-1]

    def __call__(self, x: float) -> float:
        x = check_real(x, "x")
        if not 0.0 <= x <= self.abscissas[-1]:  # nan too
            raise DomainCoverageError(x, 0.0, self.abscissas[-1])
        return self._interp.values((x,))[0]

    def signed_log(self, x: float) -> tuple[int, float]:
        v = self(x)
        if v == 0.0:
            raise ZeroSampleError(x)
        if v < 0.0:
            raise NonPositiveSampleError(x, v, "interpolated signal value")
        return 1, math.log(v)

    def log_batch(self, points):
        """signed_log's batch form (see core.FunctionSource): log v at each
        point, lazily. A point outside [0, t_last] (the interpolant's check,
        on the call) or a value v <= 0 (math.log's, as the logs are taken)
        raises ValueError, and the estimator's signed_log calls then raise
        the typed error."""
        return _logs(self._interp.values(points))


def normalize(
    raw: list[tuple[float, float]],
    mode: str = "divide_by_first",
    a: float | None = None,
    b: float | None = None,
) -> SampledSignal:
    """Build a SampledSignal from a raw series of (t, value) rows.

    Modes: 'divide_by_first' (scale so the first value is 1), 'affine'
    (stored = a + b*raw, with real numbers a and b; must map the first value
    to 1), 'none' (raw values must already start at 1).

    raw is any iterable of (t, value) pairs, read once, or anything with a
    tolist method (a numpy array), whose list is read instead: it holds the
    same numbers as Python ints and floats, made in one call. Anything
    else, a row that is no pair included, is a ValueError that names raw,
    and so is a datetime64 or timedelta64 array, in every unit. A series
    needs two or more rows, and every entry of a row must be a real number
    that has a float (check_reals' rule, which is check_real's), or a
    ValueError names abscissas or values before any arithmetic on them.
    Values are then scaled as floats. Times shift in Python's own
    arithmetic: an int or a Fraction stays as it is, so that t - t0 is exact
    and rounds once, another integer (a numpy one, say) becomes the int it
    equals, and any other real its float. Then the series takes the checks
    of read_signal's general path, in its order.
    """
    # tolist gives a datetime64 or timedelta64 array's entries as ints in
    # some units and as datetime objects in others, and neither is a number
    # of the series' own.
    if getattr(getattr(raw, "dtype", None), "kind", None) in ("m", "M"):
        raise ValueError(f"raw must be (t, value) pairs of real numbers, got a {raw.dtype} array")
    try:  # a TypeError for no iterable, a ValueError for a row of other length
        rows = raw.tolist() if hasattr(raw, "tolist") else list(raw)
        ts, vs = tuple([t for t, _ in rows]), tuple([v for _, v in rows])
    except (TypeError, ValueError):
        raise ValueError(f"raw must be (t, value) pairs, got {reprlib.repr(raw)}") from None
    if len(ts) < 2:
        raise ValueError("need two or more abscissas and one value for each")
    floats, vs = check_reals(ts, "abscissas"), check_reals(vs, "values")
    if floats is not ts:  # check_reals returns a tuple of floats alone as it is
        ts = [t if type(t) in (float, int, Fraction) else operator.index(t)
              if isinstance(t, numbers.Integral) else f for t, f in zip(ts, floats)]
    return _normalized(ts, vs, _normalization(vs[0], mode, a, b))


def read_signal(
    path,
    mode: str = "divide_by_first",
    a: float | None = None,
    b: float | None = None,
) -> SampledSignal:
    """normalize(load_csv(path), mode, a, b), with the same values and
    errors, carried as two float columns with no per-row tuples.

    _read_columns' times are finite floats that strictly increase and its
    values finite floats, so a series that starts at (0, 1), has all values
    positive and a Normalization of (0, 1) is already shifted and
    normalized: t - 0 is t and 0 + 1 * v is v, and only a first time of -0
    shifts to +0. Such a series keeps the reader's columns, with no
    rescan. Any other series, or one that fails a check, takes _normalized,
    the pass normalize takes, and raises the error normalize would.
    """
    ts, vs = _read_columns(path)
    norm = _normalization(vs[0], mode, a, b)
    if ts[0] == 0.0 and vs[0] == 1.0 and norm == (0.0, 1.0) and min(vs) > 0.0:
        ts[0] = 0.0  # t0 - t0, +0.0 also when t0 is -0
        return SampledSignal._of_floats(tuple(ts), tuple(vs), norm)
    return _normalized(ts, vs, norm)


def _normalization(v0: float, mode: str, a, b) -> Normalization:
    """The Normalization that mode gives a series whose first value is v0."""
    if mode == "divide_by_first":
        if v0 == 0.0:
            raise NormalizationError("first value is zero; cannot divide by it")
        return Normalization(offset=0.0, scale=1.0 / v0)
    if mode == "affine":
        if a is not None and b is not None:
            a, b = check_real(a, "affine offset a"), check_real(b, "affine scale b")
            if b != 0.0:
                return Normalization(offset=a, scale=b)
        raise ValueError("affine mode needs offset a and nonzero scale b")
    if mode == "none":
        return Normalization(offset=0.0, scale=1.0)
    raise ValueError(f"unknown normalization mode {mode!r}")


def _normalized(ts, vs, norm: Normalization) -> SampledSignal:
    """The signal of a series' two or more rows, as two columns, under
    norm, in one pass: each time shifted by the first, each value scaled,
    then the checks of the first value, finiteness, order and sign, in that
    order, and the float columns handed to SampledSignal._of_floats. vs
    holds floats, and ts floats, ints and Fractions (what normalize's checks
    leave); a shift from an int or a Fraction t0 can be exact, and rounds
    once, after the finiteness check."""
    t0 = ts[0]
    shifted = tuple([t - t0 for t in ts])
    offset, scale = norm
    stored = [offset + scale * v for v in vs]
    if not abs(stored[0] - 1.0) <= 1e-9:  # nan too
        raise NormalizationError(
            f"normalized value at t=0 is {stored[0]!r}, must be 1"
        )
    stored[0] = 1.0
    # A raw series of finite numbers can still overflow here, and that is a
    # normalization failure, not a bad argument.
    if not (_all_finite(shifted) and _all_finite(stored)):
        raise NormalizationError("shifted times and normalized values must be finite")
    if type(t0) is not float:  # a float t0 leaves every shift a float
        shifted = tuple(map(float, shifted))
    try:
        _check_increasing_and_positive(shifted, stored)
    except ValueError:
        # Increasing times can meet once shifted, since t - t0 rounds; like
        # an overflow, that is a failure of normalization.
        for i, (s0, s1) in enumerate(zip(shifted, shifted[1:])):
            if not s0 < s1:
                if ts[i] < ts[i + 1]:
                    raise NormalizationError(
                        f"times {ts[i]!r} and {ts[i + 1]!r} both shift to {s1!r} with t0={t0!r}"
                    ) from None
                break
        raise
    return SampledSignal._of_floats(shifted, tuple(stored), norm)


class CoverageReport(NamedTuple):
    """ok: every sample point lies in [0, domain_end]. max_required: the
    sample point farthest from 0, negative for x < 0. max_feasible_x: the
    largest x > 0 whose samples all lie in the range."""

    ok: bool
    max_required: float
    domain_end: float
    max_feasible_x: float


def coverage_check(sig: SampledSignal, cfg: GmpConfig, x: float) -> CoverageReport:
    """Check that every geometric sample point for (cfg, x) lies inside the
    sampled range; report the largest feasible horizon either way. Each
    SequencePlan's farthest sample is its first, coeff * |x| / r^|S| for its
    first subset S, so one point per sequence is checked. Every sample of an
    x < 0 lies at t < 0, so no x < 0 is covered."""
    x = check_real(x, "x")
    domain_end = sig.domain[1]
    if x == 0.0:
        return CoverageReport(True, 0.0, domain_end, math.inf)
    farthest = max(plan.coeff * abs(x) / plan.r_pows[0] for plan in cfg.plan)
    return CoverageReport(
        x > 0.0 and farthest <= domain_end,
        math.copysign(farthest, x),
        domain_end,
        # Samples scale with x, so the horizon is that of x = 1, whose farthest
        # sample is max coeff / r^|S|; x's own farthest sample rounds through x.
        domain_end / max(plan.coeff / plan.r_pows[0] for plan in cfg.plan),
    )


class ForecastResult(NamedTuple):
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
