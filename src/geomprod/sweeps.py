"""Convergence studies: error curves over an x grid and over a schedule of
ratios approaching 1 from above.

Failures inside a sweep are recorded per row in a `status` column rather
than aborting the study. Output CSV is byte-reproducible: fixed row order,
17 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import IndexSet, factor_count
from .core import GmpConfig, estimate, floored_cutoff_n_max
from .errors import GeomprodError
from .oracle import BuiltinFunction

CSV_HEADER = "x,r,n_max,estimate,reference,abs_error,factor_count,status"

DEFAULT_SCHEDULE = tuple(1.0 + 2.0**-t for t in range(1, 9))


@dataclass(frozen=True)
class SweepSpec:
    """One convergence study: a builtin function, an x grid, a ratio
    schedule, and the truncation coupling.

    coupling 'fixed_n_max' uses coupling_value as n_max directly;
    'fixed_cutoff' sets n_max = ceil(ln K / ln r) with K = coupling_value,
    so truncation keeps pace as r drops toward 1.
    """

    function: BuiltinFunction
    grid: tuple[float, float, float]  # start, stop, step
    schedule: tuple[float, ...]
    coupling: str  # 'fixed_n_max' | 'fixed_cutoff'
    coupling_value: int
    base: IndexSet
    parity: str = "all"

    def __post_init__(self):
        if self.coupling not in ("fixed_n_max", "fixed_cutoff"):
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.coupling == "fixed_cutoff" and self.coupling_value < 2:
            raise ValueError("fixed_cutoff K must be >= 2")
        if any(r <= 1.0 for r in self.schedule):
            raise ValueError("every schedule ratio must exceed 1")
        if self.grid[2] <= 0:
            raise ValueError("grid step must be positive")

    def n_max_for(self, r: float) -> int:
        if self.coupling == "fixed_n_max":
            return max(self.coupling_value, len(self.base))
        return floored_cutoff_n_max(self.coupling_value, r, self.base)

    def grid_points(self) -> list[float]:
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        return [start + i * step for i in range(count)]


@dataclass(frozen=True)
class SweepRow:
    x: float
    r: float
    n_max: int
    estimate: float | None
    reference: float | None
    abs_error: float | None
    factor_count: int
    status: str = "ok"


def _eval_row(spec: SweepSpec, x: float, r: float) -> SweepRow:
    n_max = spec.n_max_for(r)
    count = factor_count(spec.base, n_max)
    try:
        reference = spec.function(x)
    except OverflowError:
        reference = None
    try:
        cfg = GmpConfig(r=r, n_max=n_max, base=spec.base, parity=spec.parity)
        est = estimate(spec.function, x, cfg)
    except (GeomprodError, OverflowError) as e:
        return SweepRow(x, r, n_max, None, reference, None, count, type(e).__name__)
    if reference is None:
        return SweepRow(x, r, n_max, est.value, None, None, count, "ReferenceOverflow")
    return SweepRow(
        x, r, n_max, est.value, reference, abs(est.value - reference), count
    )


def grid_eval(spec: SweepSpec) -> list[SweepRow]:
    """One row per (x, r) pair, ordered by x then r."""
    return [_eval_row(spec, x, r) for x in spec.grid_points() for r in spec.schedule]


def r_sweep(
    function: BuiltinFunction,
    x: float,
    schedule: tuple[float, ...],
    coupling: str,
    coupling_value: int,
    base: IndexSet,
    parity: str = "all",
) -> list[SweepRow]:
    """Error at a single x across a ratio schedule; one row per r."""
    return grid_eval(
        SweepSpec(
            function=function,
            grid=(x, x, 1.0),
            schedule=tuple(schedule),
            coupling=coupling,
            coupling_value=coupling_value,
            base=base,
            parity=parity,
        )
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _fmt(row.x),
                    _fmt(row.r),
                    str(row.n_max),
                    _fmt(row.estimate),
                    _fmt(row.reference),
                    _fmt(row.abs_error),
                    str(row.factor_count),
                    row.status,
                ]
            )
        )
    return "\n".join(lines) + "\n"
