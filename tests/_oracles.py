"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the defining
equations (power series, three-term recurrences, quadrature, ODE marching)
so the package code is checked by a different route than it computes.
"""

import math

import numpy as np
import scipy.linalg
import scipy.special

from wavemom.errors import RangeError
from wavemom.spectral import OamSpectrum

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**n without pow() rounding


# ---------------------------------------------------------------- Bessel

def bessel_jn(n, x):
    """J_n(x) for integer n by scipy.special.jv, negative orders by J_{-n} = (-1)^n J_n.

    Returns a float for a scalar x and an ndarray for an array x.
    """
    n = int(n)
    out = (-1.0) ** n * scipy.special.jv(-n, x) if n < 0 else scipy.special.jv(n, x)
    return float(out) if np.ndim(x) == 0 else out


def bessel_field(wave, x, y, z):
    """The closed form i^n sqrt(2 pi sin theta) J_n(k_t r) e^{i (n phi + k_z z)} of a BesselWave."""
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    amp = _I_POW[wave.n % 4] * math.sqrt(2.0 * math.pi * math.sin(wave.theta))
    return amp * bessel_jn(wave.n, wave.kt * r) * np.exp(1j * (wave.n * phi + wave.kz * z))


def bessel_series(n, x, terms=120):
    """J_n(x) from the defining power series (adequate for |x| <= ~40)."""
    n = abs(int(n))
    total = 0.0
    term = (0.5 * x) ** n / math.factorial(n)
    for m in range(terms):
        total += term
        term *= -(0.25 * x * x) / ((m + 1) * (m + 1 + n))
    return total


def bisect_root(fn, lo, hi, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ------------------------------------------------------ ring extraction

def ring_direct(fieldgrid, m, window):
    """Ring samples by the full complex-exponential sum over every grid sample.

    sqrt(sin theta) dx dy e^{-i k_z z} sum_ij w_ij v_ij e^{-i (kx_m x_j + ky_m y_i)}
    at kx_m + i ky_m = k_t e^{i phi_m}, phi_m = -pi + 2 pi m / M, with w the
    rotationally symmetric Hann window about the grid centre (or 1).
    """
    meta = fieldgrid.meta
    x, y = fieldgrid.x(), fieldgrid.y()
    vals = fieldgrid.values
    if window == "hann":
        cx, cy = 0.5 * (x[0] + x[-1]), 0.5 * (y[0] + y[-1])
        radius = min(x[-1] - cx, y[-1] - cy)
        r = np.hypot(*np.meshgrid(x - cx, y - cy)) / radius
        vals = vals * np.where(r <= 1.0, 0.5 * (1.0 + np.cos(math.pi * np.minimum(r, 1.0))), 0.0)
    phi = -math.pi + 2.0 * math.pi * np.arange(m) / m
    kx = meta.kt * np.cos(phi)
    ky = meta.kt * np.sin(phi)
    ax = np.exp(-1j * np.outer(x, kx))
    by = np.exp(-1j * np.outer(y, ky))
    sums = np.einsum("jm,jm->m", by, vals @ ax)
    weight = math.sqrt(math.sin(meta.theta)) * fieldgrid.dx * fieldgrid.dy
    return weight * np.exp(-1j * meta.kz * fieldgrid.z_plane) * sums


# ------------------------------------------------ charge-basis references

def _require_same_cone(a, b):
    same = (
        a.m == b.m
        and math.isclose(a.k, b.k, rel_tol=1e-12, abs_tol=0.0)
        and math.isclose(a.theta, b.theta, rel_tol=1e-12, abs_tol=0.0)
    )
    if not same:
        raise RangeError(
            "ring profiles live on different cones "
            f"((k, theta, M) = ({a.k:g}, {a.theta:g}, {a.m}) vs "
            f"({b.k:g}, {b.theta:g}, {b.m})); on-cone overlaps require equal metadata"
        )


def plancherel_overlap(a, b):
    """Phase-space overlap (2 pi / M) sum conj(a_m) b_m of two ring profiles.

    Mixing different cones is an error rather than zero: the cone deltas
    are carried symbolically by the metadata and only cancel in ratios on
    a single cone.  Satisfies overlap(a, b) = conj(overlap(b, a)).
    """
    _require_same_cone(a, b)
    return complex(2.0 * math.pi / a.m * np.sum(a.samples.conj() * b.samples))


def bessel_coeffs_of_mathieu(eigen, k, theta):
    """Charge-basis coefficients of an elliptic wave on the (k, theta) cone.

    Returns a pair of spectra.  The one-sided form places 2^{-1/2} times
    each expansion coefficient at the non-negative charge equal to its
    harmonic, exactly as the closed-form decomposition is written.  The
    two-sided form resolves cos/sin harmonics into charge pairs:

        cos j phi -> equal coefficients at +-j (with 2^{1/2} A_0 at 0),
        sin j phi -> -+ i-weighted antisymmetric pair at +-j,

    matching what ``oam_spectrum`` of the analytic ring profile yields.
    Each spectrum's norm is the plain coefficient power in its own
    convention; both carry the smallest ring size whose band holds them.
    """
    harmonics = eigen.harmonics
    coeffs = eigen.coeffs
    n_top = int(harmonics[-1]) if len(harmonics) else 0
    m = max(256, 1 << (2 * n_top + 1).bit_length())

    half = coeffs / math.sqrt(2.0)
    one = np.zeros(n_top + 1, dtype=np.complex128)
    one[harmonics] = half
    one_sided = OamSpectrum(k, theta, m, 0, n_top, one)

    two = np.zeros(2 * n_top + 1, dtype=np.complex128)
    centre = n_top
    if eigen.mathieu_class.parity == "even":
        two[centre + harmonics] = half
        two[centre - harmonics] = half
        if eigen.mathieu_class.first_harmonic == 0:
            two[centre] = math.sqrt(2.0) * coeffs[0]
    else:
        two[centre + harmonics] = -1j * half
        two[centre - harmonics] = 1j * half
    two_sided = OamSpectrum(k, theta, m, -n_top, n_top, two)
    return one_sided, two_sided


# ------------------------------------------------- Mathieu eigenproblem

def mathieu_matrix(parity, n, q, size):
    """Recurrence matrix of the symmetry class of (parity, n), built afresh."""
    if parity == "even" and n % 2 == 0:
        d = np.array([0.0] + [(2 * j) ** 2 for j in range(1, size)], float)
        e = np.full(size - 1, q, float)
        e[0] = math.sqrt(2.0) * q
        harmonics = 2 * np.arange(size)
    elif parity == "even":
        d = np.array([(2 * j + 1) ** 2 for j in range(size)], float)
        d[0] += q
        e = np.full(size - 1, q, float)
        harmonics = 2 * np.arange(size) + 1
    elif n % 2 == 1:
        d = np.array([(2 * j + 1) ** 2 for j in range(size)], float)
        d[0] -= q
        e = np.full(size - 1, q, float)
        harmonics = 2 * np.arange(size) + 1
    else:
        d = np.array([(2 * j + 2) ** 2 for j in range(size)], float)
        e = np.full(size - 1, q, float)
        harmonics = 2 * np.arange(size) + 2
    return d, e, harmonics


def mathieu_char_value(parity, n, q, size):
    rank = n // 2 if not (parity == "odd" and n % 2 == 0) else n // 2 - 1
    d, e, _ = mathieu_matrix(parity, n, q, size)
    w = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(rank, rank),
                                      eigvals_only=True)
    return float(w[0])


def mathieu_coeffs(parity, n, q, size):
    """Normalised, sign-fixed series coefficients from a fresh eigensolve."""
    rank = n // 2 if not (parity == "odd" and n % 2 == 0) else n // 2 - 1
    d, e, harmonics = mathieu_matrix(parity, n, q, size)
    _, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(rank, rank))
    vec = v[:, 0].copy()
    if parity == "even" and n % 2 == 0:
        vec[0] /= math.sqrt(2.0)
        vec /= math.sqrt(2.0 * vec[0] ** 2 + np.sum(vec[1:] ** 2))
    else:
        vec /= math.sqrt(np.sum(vec ** 2))
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return vec, harmonics


def angular_series(parity, coeffs, harmonics, eta):
    eta = np.asarray(eta, float)
    basis = np.cos if parity == "even" else np.sin
    return basis(np.multiply.outer(eta, harmonics.astype(float))) @ coeffs


def angular_series_derivative(parity, coeffs, harmonics, eta):
    eta = np.asarray(eta, float)
    h = harmonics.astype(float)
    args = np.multiply.outer(eta, h)
    if parity == "even":
        return -(np.sin(args) * h) @ coeffs
    return (np.cos(args) * h) @ coeffs


def norm_constant_recomposed(parity, n, q, size=80):
    """The closed-form normalisation constant from oracle-side pieces only."""
    vec, harm = mathieu_coeffs(parity, n, q, size)
    if parity == "even" and n % 2 == 0:
        a0 = vec[0]
        return float(angular_series("even", vec, harm, 0.0)
                     * angular_series("even", vec, harm, math.pi / 2) / a0)
    if parity == "even":
        a1 = vec[0]
        return float(-angular_series("even", vec, harm, 0.0)
                     * angular_series_derivative("even", vec, harm, math.pi / 2)
                     / (math.sqrt(q) * a1))
    if n % 2 == 1:
        b1 = vec[0]
        return float(angular_series_derivative("odd", vec, harm, 0.0)
                     * angular_series("odd", vec, harm, math.pi / 2)
                     / (math.sqrt(q) * b1))
    b2 = vec[0]
    return float(angular_series_derivative("odd", vec, harm, 0.0)
                 * angular_series_derivative("odd", vec, harm, math.pi / 2)
                 / (q * b2))


# ------------------------------------------------------- ODE marching

def rk4_second_order(rhs, y0, dy0, x_end, steps):
    """Fixed-step RK4 for y'' = rhs(x) * y from x = 0."""
    h = x_end / steps
    x, y, dy = 0.0, y0, dy0

    def f(xv, yv):
        return rhs(xv) * yv

    for _ in range(steps):
        k1y, k1v = dy, f(x, y)
        k2y, k2v = dy + 0.5 * h * k1v, f(x + 0.5 * h, y + 0.5 * h * k1y)
        k3y, k3v = dy + 0.5 * h * k2v, f(x + 0.5 * h, y + 0.5 * h * k2y)
        k4y, k4v = dy + h * k3v, f(x + h, y + h * k3y)
        y += h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        dy += h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        x += h
    return y
