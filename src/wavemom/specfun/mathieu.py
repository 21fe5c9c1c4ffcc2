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
import operator
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import DomainError, NumericalError, RangeError, check_integers

MAX_ORDER = 500
MAX_Q = 1.0e6

_TAIL_TOL = 1e-14          # truncation criterion on the last eigenvector entry
_RESCALE = 1e250           # backward-recurrence overflow guard
_CHUNK = 2 ** 13           # samples per block of the angular series

# held across every cache lookup, so two threads missing the same key do not
# both solve it (lru_cache alone lets each store and return its own result)
_CACHE_LOCK = threading.Lock()


@dataclass(frozen=True)
class MathieuClass:
    """One of the four symmetry classes of periodic Mathieu functions."""

    parity: str        # "even" -> cosine series, "odd" -> sine series
    order_parity: int  # order mod 2

    @classmethod
    def from_order(cls, parity, n):
        """The class of order n; RangeError for an unknown parity, or an order that is not
        an integer or is out of range."""
        if parity not in ("even", "odd"):
            raise RangeError(f"parity must be 'even' or 'odd', got {parity!r}")
        (n,) = check_integers("Mathieu order must be an integer, got {}", n)
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

    @property
    def tag(self):
        """'ce-even', 'ce-odd', 'se-odd' or 'se-even': the series and the order parity."""
        return f"{'ce' if self.parity == 'even' else 'se'}-{'odd' if self.order_parity else 'even'}"

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

    For a tiny q (below about 1e-60) one step of the recurrence can grow
    past the overflow guard at once; the eigensolver's tail has then
    underflowed already, and it is returned unrefined.
    """
    size = len(vec)
    peak = int(np.argmax(np.abs(vec)))
    if peak >= size - 3 or np.any(offd[peak:] == 0.0):
        return vec
    t = np.zeros(size)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
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
    except FloatingPointError:
        return vec
    return out


def _solve(mcls, n, q, size):
    """Eigenpair of rank (n - first harmonic) / 2 of the size x size recurrence matrix.

    The eigenvector of a low rank decays fast beyond its peak, so a dense
    leading block of the matrix already holds it: the block starts at
    2 rank + 32 rows and doubles until the last entry of its eigenvector is
    below _TAIL_TOL of the largest (a NumericalError if the whole matrix
    fails that).  The eigenvector comes back zero-padded to size.
    """
    rank = (n - mcls.first_harmonic) // 2
    d, e = _tridiagonal(mcls, q, size)
    block = min(size, max(32, 2 * rank + 32))
    while True:
        mat = np.zeros((block, block))
        mat.flat[::block + 1] = d[:block]
        mat.flat[block::block + 1] = e[:block - 1]   # eigh reads the lower triangle
        try:
            w, v = np.linalg.eigh(mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"tridiagonal eigensolver failed for {mcls.parity} n={n} q={q}: {exc}"
            ) from exc
        head = v[:, rank]
        if abs(head[-1]) < _TAIL_TOL * np.abs(head).max():
            break
        if block == size:
            raise NumericalError(
                f"coefficient tail not converged at matrix size {size} "
                f"for {mcls.parity} n={n} q={q}"
            )
        block = min(2 * block, size)
    vec = np.zeros(size)
    vec[:block] = head
    return float(w[rank]), vec, d, e


@lru_cache(maxsize=512)
def _eigen_cached(mcls, n, q, sign):  # sign keeps -0.0 apart from 0.0, which hashes the same
    size = max(32, 2 * n + math.ceil(2.0 * math.sqrt(q)) + 25)
    a, vec, d, e = _solve(mcls, n, q, size)

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


def check_q(q, name="q"):
    """Refuse a separation parameter that is not finite, is negative or exceeds MAX_Q.

    ``name`` is how the message calls q, such as the flag it came from.
    """
    if not math.isfinite(q) or q < 0.0:
        raise RangeError(f"separation parameter {name} must be finite and >= 0, got {q}")
    if q > MAX_Q:
        raise RangeError(f"{name} = {q:g} exceeds supported maximum {MAX_Q:g}")


def mathieu_eigen(parity, n, q):
    """Characteristic value a_n(q)/b_n(q) and expansion coefficients.

    The eigenpair is selected by eigenvalue rank within the symmetry class
    of (parity, n).  Results are cached on the exact float q and its sign,
    so ``q`` reads as asked; the cache is safe for concurrent readers: each
    key is solved once and every caller gets the same object.
    """
    mcls = MathieuClass.from_order(parity, n)  # validates parity and order
    q = float(q)
    check_q(q)
    with _CACHE_LOCK:
        return _eigen_cached(mcls, operator.index(n), q, math.copysign(1.0, q))


def _fourier(first, coeffs, u, sine):
    """sum_j coeffs[j] cos(h_j u), or sin(h_j u) if sine, with h_j = first + 2 j.

    Horner's rule in z = e^{2iu}: the sum is the real (cos) or imaginary
    (sin) part of e^{i first u} P(z), where P has the coefficients c_j.  An
    even first harmonic enters P as leading zero coefficients, so the
    transcendentals per sample are cos 2u and sin 2u, plus cos u and sin u
    for odd harmonics.  The complex products are done on (real, imaginary)
    float pairs one elementwise ufunc at a time, so every sample gets the
    same operations whatever its position in u.  Samples are processed in
    blocks of _CHUNK: the working memory is the output plus five block-sized
    buffers.  A scalar u gives a float and an array u an array of its shape.
    """
    coeffs = np.concatenate((np.zeros(first // 2), coeffs))
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    flat_u = u.reshape(-1)
    flat_out = out.reshape(-1)
    buffers = np.empty((5, min(_CHUNK, flat_u.size)))
    for i0 in range(0, flat_u.size, _CHUNK):
        ub = flat_u[i0:i0 + _CHUNK]
        ob = flat_out[i0:i0 + _CHUNK]
        zr, zi, pr, pi, tmp = buffers[:, :len(ub)]
        np.multiply(2.0, ub, out=tmp)
        np.cos(tmp, out=zr)
        np.sin(tmp, out=zi)
        pr.fill(coeffs[-1])
        pi.fill(0.0)
        for c in coeffs[-2::-1]:
            # (pr, pi) <- (pr, pi) z + c, with ob as scratch
            np.multiply(pi, zi, out=tmp)
            np.multiply(pi, zr, out=pi)
            np.multiply(pr, zi, out=ob)
            np.add(pi, ob, out=pi)
            np.multiply(pr, zr, out=pr)
            np.subtract(pr, tmp, out=pr)
            np.add(pr, c, out=pr)
        if first % 2:
            # times e^{iu}; zr and zi are free again
            np.cos(ub, out=zr)
            np.sin(ub, out=zi)
            if sine:
                np.multiply(pr, zi, out=tmp)
                np.multiply(pi, zr, out=ob)
                np.add(tmp, ob, out=ob)
            else:
                np.multiply(pr, zr, out=tmp)
                np.multiply(pi, zi, out=ob)
                np.subtract(tmp, ob, out=ob)
        else:
            ob[...] = pi if sine else pr
    return float(out) if out.ndim == 0 else out


def _series(harmonics, coeffs, xi, func):
    """sum_j coeffs[j] * func(h_j * xi) for cosh or sinh, one harmonic at a time.

    The radial sums stay per harmonic: Horner's rule in e^{+-2 xi} would
    lose relative accuracy for sinh series near xi = 0, where the growing
    and decaying halves cancel.  A scalar xi gives a float and an array xi
    an array of its shape; each term is formed in place in one buffer, so
    the working memory is two arrays the size of xi.
    """
    xi = np.asarray(xi, dtype=float)
    acc = np.zeros(xi.shape)
    term = np.empty(xi.shape)
    for h, c in zip(harmonics.astype(float), coeffs):
        np.multiply(h, xi, out=term)
        func(term, out=term)
        np.multiply(c, term, out=term)
        acc += term
    return float(acc) if acc.ndim == 0 else acc


def mathieu_ce(n, q, eta):
    """Even (cosine-series) angular Mathieu function ce_n(eta; q)."""
    eig = mathieu_eigen("even", n, q)
    return _fourier(eig.mathieu_class.first_harmonic, eig.coeffs, eta, sine=False)


def mathieu_se(n, q, eta):
    """Odd (sine-series) angular Mathieu function se_n(eta; q)."""
    eig = mathieu_eigen("odd", n, q)
    return _fourier(eig.mathieu_class.first_harmonic, eig.coeffs, eta, sine=True)


def mathieu_angular_derivative(parity, n, q, eta):
    """First derivative of ce_n or se_n, term-by-term on the series."""
    eig = mathieu_eigen(parity, n, q)
    weighted = eig.harmonics * eig.coeffs
    if parity == "even":
        return _fourier(eig.mathieu_class.first_harmonic, -weighted, eta, sine=True)
    return _fourier(eig.mathieu_class.first_harmonic, weighted, eta, sine=False)


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


def check_radial_range(q, xi, row0=0):
    """Refuse xi < 0, a q at which no xi is supported, and xi beyond radial_xi_max(q).

    A sample beyond the range is named by its index in xi, the first index
    shifted by row0 for a caller that passes one block of rows of a grid.
    """
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
        where = f" at sample {(int(index[0]) + row0, *map(int, index[1:]))}" if index else ""
        raise RangeError(
            f"xi = {xi[index]:g}{where} beyond supported radial range {limit:g} "
            f"at q = {q:g} (series conditioning)"
        )


def _radial(parity, n, q, xi, reach=None):
    """Ce_n (even) or Se_n (odd) at xi >= 0 by the per-harmonic _series.

    Refuses xi as check_radial_range does, and a sum whose largest term
    bound |c_j| e^(h_j reach) exceeds e^700; terms whose bound is below
    e^-46 of the largest are dropped, since they cannot reach the sum's
    last bit.  reach defaults to the largest xi given; a caller that sums
    a grid in blocks passes the grid's, so every block sums the same terms.
    """
    eig = mathieu_eigen(parity, n, q)
    xi = np.asarray(xi, dtype=float)
    check_radial_range(q, xi)
    h = eig.harmonics.astype(float)
    xmax = (xi.max() if xi.size else 0.0) if reach is None else reach
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
    return _series(h[keep], eig.coeffs[keep], xi, hyp)


def mathieu_ce_radial(n, q, xi, reach=None):
    """Radial companion Ce_n(xi; q) = ce_n(i xi; q), hyperbolic-cosine series."""
    return _radial("even", n, q, xi, reach)


def mathieu_se_radial(n, q, xi, reach=None):
    """Radial companion Se_n(xi; q) = -i se_n(i xi; q), hyperbolic-sine series."""
    return _radial("odd", n, q, xi, reach)


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
