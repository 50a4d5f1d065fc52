"""Exception taxonomy shared by the library and the CLI exit-code map,
and the two rules every parameter check is built from."""

# 2^26 bits = 8 MiB packed, encoded with a peak of about 21 MiB in tens
# of milliseconds; beyond that, refuse
MAX_EXPONENT = 26


class EcdsError(Exception):
    """Base class for package errors."""


class ParameterError(EcdsError, ValueError):
    """Arguments are malformed or mutually inconsistent."""


class InfeasibleSizeError(EcdsError):
    """Requested parameters would need an impractically large object."""


class ConstructionError(EcdsError):
    """A randomized build exhausted its retry budget without verifying."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class VerificationError(EcdsError):
    """An encoding failed its stated per-index guarantee."""


class ProbeBudgetError(EcdsError, RuntimeError):
    """A decoder attempted to read more positions than its declared budget."""


class EnumerationLimitError(EcdsError):
    """An exact enumeration was requested over too large a randomness space."""


def integer(value, rule: str, lo: int, hi: float = float("inf"), odd: bool = False) -> int:
    """value, refused with ParameterError `need <rule>` unless an int (not
    a bool) in lo..hi, and odd if asked."""
    if type(value) is not int or not lo <= value <= hi or odd and value % 2 == 0:
        raise ParameterError("need %s, got %r" % (rule, value))
    return value


def desk_scale(what: str, count: int, exponent: int = 0) -> int:
    """count*2^exponent, the size of `what`, refused with
    InfeasibleSizeError past 2^MAX_EXPONENT (before 2^exponent is formed)."""
    if exponent > MAX_EXPONENT or count << exponent > 1 << MAX_EXPONENT:
        raise InfeasibleSizeError("%s of %d*2^%d is beyond desk scale, 2^%d" % (what, count, exponent, MAX_EXPONENT))
    return count << exponent
