"""Bessel functions of the first kind, integer order."""

import numpy as np

from ..errors import RangeError

MAX_ORDER = 200
MAX_ARGUMENT = 1.0e4


def check_bessel_range(n, x):
    """Raise RangeError unless |n| <= MAX_ORDER and every x is finite with |x| <= MAX_ARGUMENT."""
    if abs(n) > MAX_ORDER:
        raise RangeError(f"Bessel order {n} outside supported range |n| <= {MAX_ORDER}")
    if not np.all(np.isfinite(x)):
        raise RangeError("Bessel argument must be finite")
    if np.any(np.abs(x) > MAX_ARGUMENT):
        raise RangeError(
            f"Bessel argument exceeds supported range |x| <= {MAX_ARGUMENT:g}"
        )


def bessel_j(n, x):
    """Evaluate J_n(x) for integer order n.

    Supported range is |n| <= 200 and |x| <= 1e4; outside it a
    :class:`RangeError` is raised.  Negative orders follow
    J_{-n}(x) = (-1)^n J_n(x).  Accepts a scalar or an array argument
    and returns a matching float or ndarray.
    """
    n = int(n)
    arr = np.asarray(x, dtype=float)
    check_bessel_range(n, arr)
    from scipy import special  # here, not at module level: start-up stays numpy-only

    sign = 1.0
    if n < 0:
        # reduce to non-negative order; jn is best conditioned there
        n = -n
        sign = -1.0 if n % 2 else 1.0
    out = sign * special.jv(n, arr)
    if np.ndim(x) == 0:
        return float(out)
    return out
