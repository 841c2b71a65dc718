"""Convergence studies: error curves over an x grid and over a schedule of
ratios approaching 1 from above.

Failures inside a sweep are recorded per row in a `status` column rather
than aborting the study. Output CSV is byte-reproducible: fixed row order,
17 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .combinatorics import IndexSet, check_reals, factor_count
from .core import FunctionSource, GmpConfig, coupled_n_max, estimate
from .errors import GeomprodError

DEFAULT_SCHEDULE = tuple(1.0 + 2.0**-t for t in range(1, 9))

# Largest number of rows (grid points x ratios) a SweepSpec accepts.
MAX_ROWS = 10**6


@dataclass(frozen=True)
class SweepSpec:
    """One convergence study: a function, an x grid, a ratio schedule, and
    the truncation coupling.

    coupling 'fixed_n_max' uses coupling_value as n_max directly;
    'fixed_cutoff' sets n_max = ceil(ln K / ln r) with K = coupling_value,
    so truncation keeps pace as r drops toward 1 (core.coupled_n_max).

    function must be a FunctionSource, callable with a signed_log (an
    oracle.BuiltinFunction is one), grid three real numbers and schedule an
    iterable of real numbers, each kept as a tuple of their floats; a field
    that is not fails as a ValueError naming it, before any config is built.
    """

    function: FunctionSource
    grid: tuple[float, float, float]  # start, stop, step
    schedule: tuple[float, ...]
    coupling: str  # 'fixed_n_max' | 'fixed_cutoff'
    coupling_value: int
    base: IndexSet
    parity: str = "all"

    def __post_init__(self):
        if not (callable(self.function) and hasattr(self.function, "signed_log")):
            raise ValueError("function must be a FunctionSource, callable with a signed_log, "
                             f"got {self.function!r}")
        grid = check_reals(self.grid, "grid")
        if len(grid) != 3:
            raise ValueError(f"grid must be three real numbers (start, stop, step), got {self.grid!r}")
        object.__setattr__(self, "schedule", check_reals(self.schedule, "schedule"))
        self.configs  # built here, so a bad coupling, cutoff or ratio fails construction
        start, stop, step = grid
        if step <= 0:
            raise ValueError("grid step must be positive")
        # Checked on the float span, before any list is built: a grid like
        # 0:1e9:1e-9 would otherwise allocate ~1e18 x values. The messages
        # print the grid as given; its floats are kept once it passes.
        span = (stop - start) / step + 0.5
        if not all(map(math.isfinite, (start, stop, step, span))):
            raise ValueError(f"grid {self.grid} must be finite, with a finite point count")
        if not span < MAX_ROWS // max(len(self.schedule), 1):
            raise ValueError(
                f"grid {self.grid} with {len(self.schedule)} ratios exceeds "
                f"the {MAX_ROWS}-row sweep cap"
            )
        # The last point can pass stop by half a step, and so leave the float range.
        if not math.isfinite(start + max(math.floor(span), 0) * step):
            raise ValueError(f"grid {self.grid} ends outside the float range")
        object.__setattr__(self, "grid", grid)

    def n_max_for(self, r: float) -> int:
        return coupled_n_max(self.coupling, self.coupling_value, r, self.base)

    @cached_property
    def configs(self) -> tuple[GmpConfig, ...]:
        """One config per ratio of the schedule, in schedule order."""
        return tuple(
            GmpConfig(r=r, n_max=self.n_max_for(r), base=self.base, parity=self.parity)
            for r in self.schedule
        )

    def grid_points(self) -> list[float]:
        """start + i * step up to stop, in float arithmetic."""
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        return [start + i * step for i in range(count)]


class SweepRow(NamedTuple):
    x: float
    r: float
    n_max: int
    estimate: float | None
    reference: float | None
    abs_error: float | None
    factor_count: int
    status: str = "ok"


CSV_HEADER = ",".join(SweepRow._fields)


def _eval_row(function: FunctionSource, x: float, cfg: GmpConfig) -> SweepRow:
    r, n_max = cfg.r, cfg.n_max
    count = factor_count(cfg.base, n_max)
    try:
        reference = function(x)
    except OverflowError:
        reference = math.inf
    if not math.isfinite(reference):  # exp(inf) is inf, not an OverflowError
        reference = None
    try:
        est = estimate(function, x, cfg)
    except (GeomprodError, OverflowError) as e:
        return SweepRow(x, r, n_max, None, reference, None, count, type(e).__name__)
    if reference is None:
        return SweepRow(x, r, n_max, est.value, None, None, count, "ReferenceOverflow")
    return SweepRow(
        x, r, n_max, est.value, reference, abs(est.value - reference), count
    )


def grid_eval(spec: SweepSpec) -> list[SweepRow]:
    """One row per (x, r) pair, ordered by x then r. Each ratio has one
    config in spec.configs, so its plan is built once and reused across the
    grid."""
    return [
        _eval_row(spec.function, x, cfg) for x in spec.grid_points() for cfg in spec.configs
    ]


def r_sweep(
    function: FunctionSource,
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
    """One CSV cell: empty for None or a non-finite float, 17 significant
    digits for a float, ';'-joined for a list, str otherwise."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}" if math.isfinite(v) else ""
    if isinstance(v, list):
        return ";".join(map(str, v))
    return str(v)


def rows_to_csv(rows: list[SweepRow]) -> str:
    """CSV_HEADER, then one line per row with its fields in declaration order."""
    lines = [CSV_HEADER]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"
