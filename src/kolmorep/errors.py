"""Exception types shared across the package."""


class KolmorepError(Exception):
    """Base class for every failure this package raises on purpose."""


class InvalidDirection(KolmorepError):
    """A spin direction is not a unit vector."""


class DimMismatch(KolmorepError):
    """Operators of different dimensions were combined."""


class SchemeMismatch(KolmorepError):
    """A correlation vector or bit string does not fit the expected scheme."""


class TooLarge(KolmorepError):
    """An input exceeds a size guard: event count, verified order, sampling denominator."""


class InvalidDistribution(KolmorepError):
    """Weights are negative, or do not sum to one."""


class UnknownEvent(KolmorepError):
    """An event name is not present in the probability space."""


class IncompatibleSupport(KolmorepError):
    """A setup distribution puts positive weight on a non-commuting context."""


class IncompatibleContext(KolmorepError):
    """A context contains measurements whose projectors do not commute."""


class NumericalFailure(KolmorepError):
    """A float could not be identified with a small exact fraction."""


class SchemaError(KolmorepError):
    """An input file does not match its JSON schema."""
