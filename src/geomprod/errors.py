"""Typed error hierarchy shared across the package.

Each typed error is its message: str(e) and e.args say where and why it
failed, and nothing else is stored.
"""

import copyreg


class GeomprodError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Exception's reduce calls the class with e.args, which a subclass
        # constructor reads as the parts of a new message; a copy or an
        # unpickled error is the class's bare instance with the same args.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__ or None


def _with_context(msg: str, context: str) -> str:
    return f"{msg} ({context})" if context else msg


class ZeroSampleError(GeomprodError):
    """The function evaluated to exactly zero at a sample point.

    The log-space accumulator cannot represent a zero factor.
    """

    def __init__(self, abscissa: float, context: str = ""):
        super().__init__(_with_context(
            f"function value is zero at sample abscissa {abscissa!r}", context))


class NonPositiveSampleError(GeomprodError):
    """A source that must stay positive returned a value <= 0."""

    def __init__(self, abscissa: float, value: float, context: str = ""):
        super().__init__(_with_context(
            f"non-positive sample {value!r} at abscissa {abscissa!r}", context))


class DomainCoverageError(GeomprodError):
    """A signal-backed source was queried outside its sampled range."""

    def __init__(self, abscissa: float, lo: float, hi: float, context: str = ""):
        super().__init__(_with_context(
            f"abscissa {abscissa!r} outside sampled range [{lo!r}, {hi!r}]", context))


class SignalFormatError(GeomprodError):
    """The input series file could not be parsed or is malformed."""


class NormalizationError(GeomprodError):
    """Normalization of a raw series failed its positivity contract."""
