"""Exception types shared across the package, and the check every integer input passes."""

import operator


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


def check_integers(message, *values):
    """The values as Python ints; RangeError(message.format(*values)) unless each has an
    integer type, a Python or numpy integer, so a float such as 2.0 is refused."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise RangeError(message.format(*values)) from None
