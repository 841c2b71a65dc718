"""geomprod: extrapolation of analytic functions and sampled signals by
multiplying and dividing values sampled on geometric sequences that
collapse to the origin."""

from .combinatorics import (
    IndexSet,
    compositions_bruteforce,
    enumerate_subsets,
    factor_count,
    multiplicity,
)
from .core import (
    Estimate,
    GmpConfig,
    LogProduct,
    SequencePlan,
    coefficient,
    component_estimate,
    cutoff_n_max,
    estimate,
    log_partial_product,
    pollution_exponent,
    reconstruct_from_components,
    sequence_point,
)
from .errors import (
    DomainCoverageError,
    GeomprodError,
    NonPositiveSampleError,
    NormalizationError,
    SignalFormatError,
    ZeroSampleError,
)
from .oracle import (
    BuiltinFunction,
    ComponentSeries,
    euler_partial_product,
    exp_scaled,
    log_series_components,
    monomial_exp,
    multiindex_bruteforce,
    sinc,
    truncated_invariance_closed_form,
)
from .signal import (
    CoverageReport,
    ForecastResult,
    Normalization,
    SampledSignal,
    coverage_check,
    forecast,
    load_csv,
    normalize,
    read_signal,
)
from .sweeps import (
    DEFAULT_SCHEDULE,
    MAX_ROWS,
    SweepRow,
    SweepSpec,
    grid_eval,
    r_sweep,
    rows_to_csv,
)

__version__ = "0.1.0"
