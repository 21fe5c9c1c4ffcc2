"""Exception types shared across the package."""


class RangeError(ValueError):
    """Input lies outside the supported numeric range of an operation."""


class DomainError(ValueError):
    """A closed-form expression is undefined at the requested parameters."""


class NumericalError(RuntimeError):
    """An internal numerical procedure failed to converge or lost validity."""


class FormatError(ValueError):
    """Malformed field or spectrum file."""


class UndefinedMeanError(ValueError):
    """Mean value requested over a spectrum with zero norm."""


class UsageError(ValueError):
    """Bad invocation: a required argument is missing or malformed."""
