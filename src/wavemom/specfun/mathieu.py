"""Angular and radial Mathieu functions via the trigonometric-series eigenproblem.

The angular equation y'' + (a - 2 q cos 2u) y = 0 admits 2*pi-periodic
solutions in four symmetry classes, one per combination of parity
(cosine/sine series) and order parity:

    ce_2n   = sum_j A_2j   cos 2j u        n = 0, 1, ...
    ce_2n+1 = sum_j A_2j+1 cos (2j+1) u    n = 0, 1, ...
    se_2n+1 = sum_j B_2j+1 sin (2j+1) u    n = 0, 1, ...
    se_2n+2 = sum_j B_2j+2 sin (2j+2) u    n = 0, 1, ...

Inserting a series into the equation gives a three-term recurrence for the
coefficients, i.e. a symmetric tridiagonal eigenproblem after rescaling the
constant term of the even-even class by sqrt(2).  The characteristic value
(a_n or b_n) is the eigenvalue; the expansion coefficients are the
eigenvector components.

Coefficients are normalised so that the angular functions integrate to pi
over a period:

    2 A_0^2 + sum_{j>=1} A_2j^2 = 1     (even order, even parity)
    sum_j coeff_j^2 = 1                 (other three classes)

and the sign is fixed by making the largest-magnitude coefficient positive
(ties broken at the lowest harmonic).

Radial counterparts are the same series continued to imaginary argument,
Ce_n(x) = ce_n(ix) and Se_n(x) = -i se_n(ix), which turns cos/sin into
cosh/sinh.  Those hyperbolic sums cancel violently for large argument, so
the eigenvector tail is recomputed by backward recurrence (the minimal
solution is stable in that direction) and the supported radial range is
capped where double precision still leaves ~7 digits after cancellation.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from ..errors import DomainError, NumericalError, RangeError

MAX_ORDER = 500
MAX_Q = 1.0e6

_TAIL_TOL = 1e-14          # truncation criterion on the last eigenvector entry
_RESCALE = 1e250           # backward-recurrence overflow guard
_N_CAP = 2048


@dataclass(frozen=True)
class MathieuClass:
    """One of the four symmetry classes of periodic Mathieu functions."""

    parity: str        # "even" -> cosine series, "odd" -> sine series
    order_parity: int  # order mod 2

    @classmethod
    def from_order(cls, parity, n):
        if parity not in ("even", "odd"):
            raise RangeError(f"parity must be 'even' or 'odd', got {parity!r}")
        n = int(n)
        if parity == "even" and n < 0:
            raise RangeError(f"even-parity order must be >= 0, got {n}")
        if parity == "odd" and n < 1:
            raise RangeError(f"odd-parity order must be >= 1, got {n}")
        if n > MAX_ORDER:
            raise RangeError(f"order {n} exceeds supported maximum {MAX_ORDER}")
        return cls(parity, n % 2)

    @property
    def first_harmonic(self):
        if self.parity == "even":
            return self.order_parity          # 0 or 1
        return self.order_parity if self.order_parity else 2

    def harmonics(self, count):
        return self.first_harmonic + 2 * np.arange(count)


@dataclass(frozen=True)
class MathieuEigen:
    """Characteristic value and expansion coefficients of one Mathieu function."""

    mathieu_class: MathieuClass
    n: int
    q: float
    char_value: float
    coeffs: np.ndarray = field(repr=False)
    truncation: int

    @property
    def harmonics(self):
        return self.mathieu_class.harmonics(len(self.coeffs))

    def coeff_for_harmonic(self, j):
        """Coefficient multiplying cos(j u) or sin(j u); 0 if absent."""
        first = self.mathieu_class.first_harmonic
        if j < first or (j - first) % 2:
            return 0.0
        idx = (j - first) // 2
        return float(self.coeffs[idx]) if idx < len(self.coeffs) else 0.0


def _tridiagonal(mcls, q, size):
    """Diagonal and off-diagonal of the symmetric recurrence matrix."""
    h = mcls.harmonics(size).astype(float)
    d = h * h
    e = np.full(size - 1, q, dtype=float)
    if mcls.parity == "even" and mcls.order_parity == 0:
        e[0] = math.sqrt(2.0) * q
    elif mcls.parity == "even":      # cos(2j+1) series couples to itself at j=0
        d[0] += q
    elif mcls.order_parity == 1:     # sin(2j+1) series
        d[0] -= q
    return d, e


def _refine_tail(diag, offd, a, vec):
    """Recompute the decaying eigenvector tail by backward recurrence.

    Eigensolver components carry ~1e-16 absolute noise, which the
    cosh/sinh factors of the radial series amplify catastrophically.
    Running the recurrence downward from the truncation edge is
    self-correcting toward the decaying solution, so every component below
    the start has uniform relative accuracy and, crucially, satisfies the
    recurrence essentially exactly.  The recomputed tail is rescaled to
    match the eigenvector at its peak entry, where both sides hold full
    relative accuracy.
    """
    size = len(vec)
    peak = int(np.argmax(np.abs(vec)))
    if peak >= size - 3 or np.any(offd[peak:] == 0.0):
        return vec
    t = np.zeros(size)
    t[size - 1] = 1.0
    t[size - 2] = (a - diag[size - 1]) / offd[size - 2]
    for j in range(size - 2, peak, -1):
        t[j - 1] = ((a - diag[j]) * t[j] - offd[j] * t[j + 1]) / offd[j - 1]
        if abs(t[j - 1]) > _RESCALE:
            t[j - 1:] /= _RESCALE
    if t[peak] == 0.0:
        return vec
    out = vec.copy()
    out[peak + 1:] = (vec[peak] / t[peak]) * t[peak + 1:]
    return out


def _solve(mcls, n, q, size):
    rank = n // 2 if not (mcls.parity == "odd" and mcls.order_parity == 0) else n // 2 - 1
    d, e = _tridiagonal(mcls, q, size)
    try:
        w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(rank, rank))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(
            f"tridiagonal eigensolver failed for {mcls.parity} n={n} q={q}: {exc}"
        ) from exc
    return float(w[0]), v[:, 0].copy(), d, e


@lru_cache(maxsize=512)
def _eigen_cached(mcls, n, q):
    size = max(32, 2 * n + math.ceil(2.0 * math.sqrt(q)) + 25)
    while True:
        a, vec, d, e = _solve(mcls, n, q, size)
        if abs(vec[-1]) < _TAIL_TOL * np.abs(vec).max():
            break
        if size >= _N_CAP:
            raise NumericalError(
                f"coefficient tail not converged at matrix size {_N_CAP} "
                f"for {mcls.parity} n={n} q={q}"
            )
        size = min(2 * size, _N_CAP)

    if q > 0.0:
        vec = _refine_tail(d, e, a, vec)

    # back to plain-series coefficients (undo the sqrt(2) scaling of A_0)
    if mcls.parity == "even" and mcls.order_parity == 0:
        vec[0] /= math.sqrt(2.0)
        norm = 2.0 * vec[0] ** 2 + np.sum(vec[1:] ** 2)
    else:
        norm = np.sum(vec ** 2)
    vec /= math.sqrt(norm)
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec

    # keep the refined tail down to underflow: the recurrence then holds at
    # every stored index and the truncation boundary term is negligible even
    # under the cosh amplification of the radial series
    nonzero = np.nonzero(vec)[0]
    vec = vec[: nonzero[-1] + 1]
    vec.flags.writeable = False
    return MathieuEigen(mcls, n, float(q), a, vec, size)


def mathieu_eigen(parity, n, q):
    """Characteristic value a_n(q)/b_n(q) and expansion coefficients.

    The eigenpair is selected by eigenvalue rank within the symmetry class
    of (parity, n).  Results are cached on (parity, n, q) with the exact
    float q; the cache is safe for concurrent readers.
    """
    mcls = MathieuClass.from_order(parity, n)  # validates parity and order
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise RangeError(f"separation parameter q must be finite and >= 0, got {q}")
    if q > MAX_Q:
        raise RangeError(f"q = {q:g} exceeds supported maximum {MAX_Q:g}")
    return _eigen_cached(mcls, int(n), q)


def _series(harmonics, coeffs, u, term):
    """sum_j coeffs[j] * term(h_j, h_j * u), added one harmonic at a time in index order.

    A scalar u gives a float and an array u an array of its shape; the
    working memory is a few arrays the size of u, whatever the number of
    harmonics.
    """
    u = np.asarray(u, dtype=float)
    acc = np.zeros(u.shape)
    for h, c in zip(harmonics.astype(float), coeffs):
        acc += c * term(h, h * u)
    return float(acc) if acc.ndim == 0 else acc


def mathieu_ce(n, q, eta):
    """Even (cosine-series) angular Mathieu function ce_n(eta; q)."""
    eig = mathieu_eigen("even", n, q)
    return _series(eig.harmonics, eig.coeffs, eta, lambda h, arg: np.cos(arg))


def mathieu_se(n, q, eta):
    """Odd (sine-series) angular Mathieu function se_n(eta; q)."""
    eig = mathieu_eigen("odd", n, q)
    return _series(eig.harmonics, eig.coeffs, eta, lambda h, arg: np.sin(arg))


def mathieu_angular_derivative(parity, n, q, eta):
    """First derivative of ce_n or se_n, term-by-term on the series."""
    eig = mathieu_eigen(parity, n, q)
    if parity == "even":
        return _series(eig.harmonics, eig.coeffs, eta, lambda h, arg: -h * np.sin(arg))
    return _series(eig.harmonics, eig.coeffs, eta, lambda h, arg: h * np.cos(arg))


def radial_xi_max(q):
    """Largest radial coordinate the hyperbolic series supports at this q.

    Two caps apply, the smaller of the series' convergence range and a
    cancellation bound, all capped at 6.  The measured peak-term to sum
    ratio of the series is bounded by exp(sqrt(q) (e^xi + 1)) (at xi = 0
    the ratio is ~ e^(2 sqrt(q)), growing like sqrt(q) e^xi beyond), so
    sqrt(q) (e^xi + 1) <= 16 keeps ~7 significant digits in double
    precision.  A negative return means no xi is supported at this q.
    """
    q = float(q)
    caps = [3.0 + math.log1p(1.0 / max(q, 1e-6)), 6.0]
    if q > 0.0:
        headroom = 16.0 / math.sqrt(q) - 1.0
        caps.append(math.log(headroom) if headroom > 0.0 else -math.inf)
    return min(caps)


def _radial(parity, n, q, xi):
    eig = mathieu_eigen(parity, n, q)
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0):
        raise RangeError("radial coordinate xi must be >= 0")
    limit = radial_xi_max(q)
    if limit < 0.0:
        raise RangeError(
            f"hyperbolic radial series is unusable at q = {q:g} "
            "(cancellation exceeds double precision at every xi)"
        )
    beyond = xi > limit
    if beyond.any():
        index = np.unravel_index(int(np.argmax(beyond)), xi.shape)
        where = f" at sample {tuple(map(int, index))}" if index else ""
        raise RangeError(
            f"xi = {xi[index]:g}{where} beyond supported radial range {limit:g} "
            f"at q = {q:g} (series conditioning)"
        )
    h = eig.harmonics.astype(float)
    xmax = xi.max() if xi.size else 0.0
    with np.errstate(divide="ignore"):
        bound = np.log(np.abs(eig.coeffs)) + h * xmax   # cosh z <= e^z
    top = bound.max()
    if top > 700.0:
        raise RangeError(
            f"radial series overflows double precision at xi = {xmax:g} "
            f"for order {n}"
        )
    keep = bound >= top - 46.0
    hyp = np.cosh if parity == "even" else np.sinh
    return _series(h[keep], eig.coeffs[keep], xi, lambda h, arg: hyp(arg))


def mathieu_ce_radial(n, q, xi):
    """Radial companion Ce_n(xi; q) = ce_n(i xi; q), hyperbolic-cosine series."""
    return _radial("even", n, q, xi)


def mathieu_se_radial(n, q, xi):
    """Radial companion Se_n(xi; q) = -i se_n(i xi; q), hyperbolic-sine series."""
    return _radial("odd", n, q, xi)


def mathieu_norm_constant(parity, n, q):
    """Wave normalisation constant c_n (even) or s_n (odd).

    Implements the four closed forms built from boundary values and
    derivatives of the angular functions.  The three forms containing
    1/sqrt(q) or 1/q require q > 0; the remaining (even order, even
    parity) form additionally needs a nonzero constant-term coefficient.
    Finite and nonzero within the supported range for q > 0.
    """
    eig = mathieu_eigen(parity, n, q)
    q = eig.q
    lead = float(eig.coeffs[0])  # A_0, A_1, B_1 or B_2: the lowest harmonic of the class
    if parity == "even" and n % 2 == 0:
        if lead == 0.0:
            raise DomainError(
                f"constant-term coefficient vanishes for even n={n} at q={q:g}; "
                "the closed form diverges, take the q -> 0 limit instead"
            )
        return mathieu_ce(n, q, 0.0) * mathieu_ce(n, q, math.pi / 2) / lead
    if q == 0.0:
        raise DomainError(
            f"normalisation constant for {parity} n={n} carries a 1/sqrt(q) "
            "factor; evaluate at small q > 0 for the limit"
        )
    if parity == "even":
        d_half = mathieu_angular_derivative("even", n, q, math.pi / 2)
        return -mathieu_ce(n, q, 0.0) * d_half / (math.sqrt(q) * lead)
    d_zero = mathieu_angular_derivative("odd", n, q, 0.0)
    if n % 2 == 1:
        return d_zero * mathieu_se(n, q, math.pi / 2) / (math.sqrt(q) * lead)
    d_half = mathieu_angular_derivative("odd", n, q, math.pi / 2)
    return d_zero * d_half / (q * lead)
