import copy
import pickle

import pytest

from geomprod.errors import (
    DomainCoverageError,
    GeomprodError,
    NonPositiveSampleError,
    ZeroSampleError,
)


@pytest.mark.parametrize(
    "error, message",
    [
        (ZeroSampleError(0.5), "function value is zero at sample abscissa 0.5"),
        (ZeroSampleError(0.5, "hinge"), "function value is zero at sample abscissa 0.5 (hinge)"),
        (NonPositiveSampleError(1.0, -2.0), "non-positive sample -2.0 at abscissa 1.0"),
        (NonPositiveSampleError(1.0, -2.0, "interpolated signal value"),
         "non-positive sample -2.0 at abscissa 1.0 (interpolated signal value)"),
        (DomainCoverageError(-0.25, 0.0, 3.0),
         "abscissa -0.25 outside sampled range [0.0, 3.0]"),
        (DomainCoverageError(-0.25, 0.0, 3.0, "forecast"),
         "abscissa -0.25 outside sampled range [0.0, 3.0] (forecast)"),
    ],
)
def test_typed_error_is_its_message(error, message):
    assert isinstance(error, GeomprodError)
    assert str(error) == message
    assert error.args == (message,)
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert type(twin) is type(error)
        assert str(twin) == message
        assert twin.args == (message,)
