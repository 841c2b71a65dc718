"""What a result record promises.

The eight records that only carry fields are named tuples. Each is
immutable, compares and hashes by its fields, prints as
`Name(field=value, ...)` (the string the frozen dataclasses printed before
them) and survives a pickle. As tuples they also iterate in field order and
give `_asdict()` and `_fields`.
"""

import math
import pickle

import pytest

from geomprod import (
    BuiltinFunction,
    ComponentSeries,
    CoverageReport,
    Estimate,
    ForecastResult,
    GmpConfig,
    IndexSet,
    LogProduct,
    Normalization,
    SequencePlan,
    SweepRow,
)
from geomprod.sweeps import CSV_HEADER

_CFG = GmpConfig(r=2.0, n_max=2, base=IndexSet.of(1))
_CFG_REPR = "GmpConfig(r=2.0, n_max=2, base=IndexSet(elements=(1,)), parity='all')"
_EST = (1.0, 0.0, 1, 0.5, _CFG, 2)
_EST_REPR = (f"Estimate(value=1.0, log_value=0.0, sign=1, x=0.5, config={_CFG_REPR}, "
             "factor_count=2)")
_COVERAGE = (True, 0.25, 4.0, math.inf)
_COVERAGE_REPR = "CoverageReport(ok=True, max_required=0.25, domain_end=4.0, max_feasible_x=inf)"

# (record, its field names, field values, the repr the frozen dataclass printed;
# SequencePlan, added after them, pins its own)
RECORDS = [
    (Estimate, ("value", "log_value", "sign", "x", "config", "factor_count"), _EST, _EST_REPR),
    (LogProduct, ("log_value", "sign", "term_count", "min_point"), (0.0, 1, 2, 0.125),
     "LogProduct(log_value=0.0, sign=1, term_count=2, min_point=0.125)"),
    (SequencePlan,
     ("coeff", "r_pows", "subsets", "weights", "odd"),
     (3**0.5, (2.0, 4.0), (IndexSet.of(2), IndexSet.of(1, 2)), (1.0, 0.0), b"\x01\x00"),
     "SequencePlan(coeff=1.7320508075688772, r_pows=(2.0, 4.0), "
     "subsets=(IndexSet(elements=(2,)), IndexSet(elements=(1, 2))), "
     "weights=(1.0, 0.0), odd=b'\\x01\\x00')"),
    (Normalization, ("offset", "scale"), (0.0, 0.5), "Normalization(offset=0.0, scale=0.5)"),
    (CoverageReport, ("ok", "max_required", "domain_end", "max_feasible_x"), _COVERAGE,
     _COVERAGE_REPR),
    (ForecastResult, ("normalized", "raw_value", "coverage"),
     (Estimate(*_EST), 2.0, CoverageReport(*_COVERAGE)),
     f"ForecastResult(normalized={_EST_REPR}, raw_value=2.0, coverage={_COVERAGE_REPR})"),
    (SweepRow,
     ("x", "r", "n_max", "estimate", "reference", "abs_error", "factor_count", "status"),
     (0.5, 2.0, 2, None, 1.0, None, 3, "GeomprodError"),
     "SweepRow(x=0.5, r=2.0, n_max=2, estimate=None, reference=1.0, abs_error=None, "
     "factor_count=3, status='GeomprodError')"),
    (ComponentSeries, ("function", "coefficients"),
     (BuiltinFunction("exp_scaled", 2.0), (2.0, 0.0)),
     "ComponentSeries(function=BuiltinFunction(tag='exp_scaled', c=2.0, k=1), "
     "coefficients=(2.0, 0.0))"),
]


@pytest.mark.parametrize("cls, names, values, text", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_record_contract(cls, names, values, text):
    rec = cls(*values)
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert repr(rec) == text
    twin = cls(*values)
    assert twin == rec and hash(twin) == hash(rec)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec and repr(back) == text
    # the tuple contract
    assert cls._fields == names
    assert tuple(rec) == values == rec
    assert list(rec._asdict().items()) == list(zip(names, values))


def test_sweep_row_default_status_and_csv_header():
    assert SweepRow(0.0, 2.0, 2, 1.0, 1.0, 0.0, 3).status == "ok"
    assert ",".join(SweepRow._fields) == CSV_HEADER
