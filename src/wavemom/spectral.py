"""Ring spectra on the transverse-wavevector circle and charge decompositions.

A monochromatic field on one cone is fully described by its angular
spectrum on the circle k_t = k sin(theta); ``Cone`` checks (k, theta) and
derives k_t and k_z for every object on a cone, spectra and waves alike.
This module extracts that ring amplitude from sampled grids by direct
nonuniform evaluation of the Fourier sum (exact with respect to the
sampled data), projects ring profiles onto integer topological charges,
wraps a wave's analytic ring profile as a spectrum, and provides the
overlap and norm identities connecting the two representations.

Conventions: ring samples live at the M azimuths phi_m = -pi + 2 pi m / M
and carry the sqrt(sin theta) kernel weight of the forward transform; the
charge projection is

    c_n = (2 pi)^{-1/2} (sin theta)^{1/2} * (2 pi / M) sum_m a_m e^{-i n phi_m}

so that sum_n |c_n|^2 = sin(theta) * (2 pi / M) sum_m |a_m|^2 holds exactly
whenever the requested charge window spans M consecutive integers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, check_integers

DEFAULT_RING_SAMPLES = 1024
DEFAULT_CHARGE_WINDOW = (-40, 40)
MAX_RING_SAMPLES = 2 ** 16
MAX_CHARGE = 2 ** 53  # |n| up to which float64 charge weights are exact integers

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_BLOCK = 32        # grid rows per block of the ring sums
_TILE = 2 ** 20    # floats of x-side arrays a ring sum keeps per wavenumber tile
# the phase of (cos or sin of x) (cos or sin of y) in each quadrant of the ring, whose signs
# (s, t) are (-,-), (+,-), (+,+), (-,+): 1, -i t, -i s and -s t, with no -0.0 part
_PHASES = np.array([[1, 1, 1, 1], [1j, 1j, -1j, -1j], [1j, -1j, -1j, 1j], [-1, 1, -1, 1]]) + 0.0


def ring_azimuths(m):
    """The M ring azimuths phi_j = -pi + 2 pi j / M."""
    return -math.pi + 2.0 * math.pi * np.arange(m) / m


def check_ring_size(m):
    """A ring holds an integer power of two in [256, MAX_RING_SAMPLES] samples."""
    message = f"ring sample count must be a power of two in [256, {MAX_RING_SAMPLES}], got {{}}"
    (m,) = check_integers(message, m)
    if not 256 <= m <= MAX_RING_SAMPLES or m & (m - 1):
        raise RangeError(message.format(m))


def check_charge_window(n_min, n_max, m=None):
    """(n_min, n_max) as Python ints: a charge window must be integers, non-empty, lie within
    |n| <= MAX_CHARGE and, given M, fit in M ring samples."""
    n_min, n_max = check_integers("charge range [{}, {}] must be integers", n_min, n_max)
    if n_max < n_min:
        raise RangeError(f"empty charge range [{n_min}, {n_max}]")
    if max(-n_min, n_max) > MAX_CHARGE:
        raise RangeError(f"charge range [{n_min}, {n_max}] exceeds |n| <= 2^53")
    if m is not None and n_max - n_min + 1 > m:
        raise RangeError(f"charge range [{n_min}, {n_max}] exceeds the {m} ring samples")
    return n_min, n_max


@dataclass(frozen=True)
class Cone:
    """A propagation cone; construction checks that 0 < k < inf and 0 < theta < pi."""

    k: float
    theta: float

    def __post_init__(self):
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise RangeError(f"wavenumber k must be positive and finite, got {self.k}")
        if not (0.0 < self.theta < math.pi):
            raise RangeError(f"cone angle theta must lie in (0, pi), got {self.theta}")

    @property
    def kt(self):
        return self.k * math.sin(self.theta)

    @property
    def kz(self):
        return self.k * math.cos(self.theta)


@dataclass(frozen=True)
class RingSpectrum(Cone):
    """Angular-spectrum amplitude sampled on the ring of one cone; compared by identity."""

    samples: np.ndarray = field(repr=False)
    __eq__, __hash__ = object.__eq__, object.__hash__  # Cone's would compare (k, theta) alone

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "samples", np.ascontiguousarray(self.samples, dtype=np.complex128))
        if self.samples.ndim != 1:
            raise RangeError(f"ring samples must be a 1-D array, got shape {self.samples.shape}")
        check_ring_size(len(self.samples))
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise RangeError("ring samples must be finite")

    @property
    def m(self):
        return len(self.samples)

    def azimuths(self):
        return ring_azimuths(self.m)


@dataclass(frozen=True)
class OamSpectrum(Cone):
    """Topological-charge coefficients of a ring profile; compared by identity."""

    n_min: int
    n_max: int
    coeffs: np.ndarray = field(repr=False)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self):
        super().__post_init__()
        check_charge_window(self.n_min, self.n_max)
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.complex128))
        if self.coeffs.ndim != 1:
            raise RangeError(f"charge coefficients must be a 1-D array, got shape {self.coeffs.shape}")
        if len(self.coeffs) != self.n_max - self.n_min + 1:
            raise RangeError("coefficient count does not match the charge range")

    @property
    def norm(self):
        """Total charge power sum |c_n|^2."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def charges(self):
        return np.arange(self.n_min, self.n_max + 1)

    def coeff(self, n):
        (n,) = check_integers("charge {} must be an integer", n)
        if not self.n_min <= n <= self.n_max:
            raise RangeError(f"charge {n} outside stored range [{self.n_min}, {self.n_max}]")
        return complex(self.coeffs[n - self.n_min])


def _window_rows(fieldgrid, window):
    """The window's weights as a function of a slice of at most _BLOCK rows, written into one
    buffer that each call overwrites; None for no window."""
    if window == "none":
        return None
    if window == "hann":
        # rotationally symmetric raised cosine about the grid centre: unlike a
        # separable window it leaves the angular structure of the field
        # untouched, which is what ring extraction needs
        x, y = fieldgrid.x(), fieldgrid.y()
        cx, cy = 0.5 * (x[0] + x[-1]), 0.5 * (y[0] + y[-1])
        radius = min(x[-1] - cx, y[-1] - cy)
        x_c = x - cx
        buf = np.empty((min(len(y), _BLOCK), len(x)))

        def weights(rows):
            # 0.5 (1 + cos(pi min(r / radius, 1))), one ufunc at a time in place;
            # beyond the radius the weight is 0.5 (1 + cos pi), exactly 0.0
            out = buf[:rows.stop - rows.start]
            np.hypot(x_c, (y[rows] - cy)[:, None], out=out)
            np.divide(out, radius, out=out)
            np.minimum(out, 1.0, out=out)
            np.multiply(math.pi, out, out=out)
            np.cos(out, out=out)
            np.add(1.0, out, out=out)
            return np.multiply(0.5, out, out=out)
        return weights
    raise RangeError(f"unknown window {window!r}; use 'none' or 'hann'")


def _quarter(kt, m):
    """Quarter-table wavenumbers of the M ring azimuths and each azimuth's slot of the sums.

    With kappa_l = k_t cos(2 pi l / M) for l = 0..M/4, every ring wavevector
    is kx_m = s kappa_{l_m}, ky_m = t kappa_{M/4 - l_m}, where the signs
    (s, t) are (-,-), (+,-), (+,+), (-,+) in the quadrants 0..3 of the
    azimuths, so e^{-i (x kx_m + y ky_m)} = sum over a, b in (cos, sin) of
    a(x kappa_{l_m}) b(y kappa_{M/4 - l_m}) _PHASES[2 a + b, quadrant_m].
    No two azimuths share l_m and a quadrant: returns kappa and the slots
    4 l_m + quadrant_m (M,) of a table of sums per wavenumber and quadrant.
    """
    q = m // 4
    j = np.arange(m)
    u = j % (2 * q)
    quadrant = np.maximum(j - 1, 0) // q    # j in (k q, (k + 1) q], and j = 0 in quadrant 0
    return kt * np.cos(0.5 * math.pi * np.arange(q + 1) / q), 4 * np.minimum(u, 2 * q - u) + quadrant


def _tables(coords, kappa, buf):
    """cos and sin of coords * kappa, shape (len(coords), 2, len(kappa)), written into the
    start of the flat float buffer buf: the product goes into the cos slot, sin is taken
    from it, then cos in place, so no other array is made."""
    out = buf[:len(coords) * 2 * len(kappa)].reshape(len(coords), 2, len(kappa))
    np.multiply.outer(coords, kappa, out=out[:, 0])
    np.sin(out[:, 0], out=out[:, 1])
    np.cos(out[:, 0], out=out[:, 0])
    return out


def _blocks(x, y, kappa, width):
    """Yield (tile, _tables(x, kappa[tile]), rows, _tables(y[rows], kappa[::-1][tile])):
    tiles of _TILE // (width * max(len(x), _BLOCK)) wavenumbers, at least one, for a caller
    that keeps width floats per wavenumber and x sample or row, each cut into blocks of
    _BLOCK rows, so each entry is built once and no table spans the grid.  Every x table
    is built in one buffer and every y table in another: a table is valid until the next
    one of its axis is yielded."""
    step = min(len(kappa), max(1, _TILE // (width * max(len(x), _BLOCK))))
    x_buf = np.empty(len(x) * 2 * step)
    y_buf = np.empty(min(len(y), _BLOCK) * 2 * step)
    for l0 in range(0, len(kappa), step):
        tile = slice(l0, min(l0 + step, len(kappa)))
        tx = _tables(x, kappa[tile], x_buf)
        for i0 in range(0, len(y), _BLOCK):
            rows = slice(i0, min(i0 + _BLOCK, len(y)))
            yield tile, tx, rows, _tables(y[rows], kappa[::-1][tile], y_buf)


def _product(a, b, out=None):
    """a @ b, into out if given, in products whose bits OpenBLAS keeps at every thread count:
    b's columns past its last multiple of 8 go in a product of their own, and so do b's rows
    past their last multiple of 256 when it has more than 256, added last."""
    cut = b.shape[1] // 8 * 8
    inner = len(b) if len(b) <= 256 else len(b) // 256 * 256
    out = np.empty((len(a), b.shape[1])) if out is None else out
    np.matmul(a[:, :inner], b[:inner, :cut], out=out[:, :cut])
    np.matmul(a[:, :inner], b[:inner, cut:], out=out[:, cut:])
    if inner < len(b):
        out += _product(a[:, inner:], b[inner:])
    return out


def ring_spectrum_from_grid(fieldgrid, m=DEFAULT_RING_SAMPLES, window="none"):
    """Ring amplitude of a sampled field by direct nonuniform Fourier sums.

    The continuous transform integral is evaluated as a Riemann sum over
    the grid directly at the M ring wavevectors (cost O(nx ny M)).  The
    ring's symmetries reduce the exponentials to real cos/sin tables of
    M/4 + 1 wavenumbers per axis, summed as real matrix products over the
    tiles and row blocks of :func:`_blocks` in a fixed order, so results are
    reproducible bit for bit.  A block's window and its windowed real and
    imaginary rows are written into buffers made once per call, so the
    working set is about one tile's x table.  The slice plane's axial phase
    is removed, making spectra of different z planes identical.  The
    transverse wavenumber must stay below the grid Nyquist limit
    pi / max(dx, dy).
    """
    check_ring_size(m)
    meta = fieldgrid.meta
    nyquist = math.pi / max(fieldgrid.dx, fieldgrid.dy)
    if meta.kt >= nyquist:
        raise RangeError(f"transverse wavenumber k_t = {meta.kt:g} is at or beyond the grid "
                         f"Nyquist limit {nyquist:g}; refine the sampling")
    vals = fieldgrid.values
    window_rows = _window_rows(fieldgrid, window)
    kappa, slots = _quarter(meta.kt, m)
    acc = np.zeros((2, len(kappa), 2, 2))
    # a block's (windowed) real rows, then its imaginary rows
    pairs = np.empty(2 * min(fieldgrid.ny, _BLOCK) * fieldgrid.nx)
    for tile, tx, rows, ty in _blocks(fieldgrid.x(), fieldgrid.y(), kappa, 2):
        block = vals[rows]
        pair = pairs[:2 * block.size].reshape(2, *block.shape)
        pair[0], pair[1] = block.real, block.imag
        if window_rows is not None:
            pair *= window_rows(rows)
        parts = _product(pair.reshape(2 * len(block), -1), tx.reshape(len(tx), -1))
        acc[:, tile] += np.einsum("pial,ibl->plab", parts.reshape(2, len(ty), 2, -1), ty)
    del tx, ty, parts  # the last tile's tables, freed before the ring is recombined
    sums = np.einsum("lp,pq->lq", (acc[0] + 1j * acc[1]).reshape(-1, 4), _PHASES).reshape(-1)[slots]
    weight = math.sqrt(math.sin(meta.theta)) * fieldgrid.dx * fieldgrid.dy
    carrier = np.exp(-1j * meta.kz * fieldgrid.z_plane)
    return RingSpectrum(meta.k, meta.theta, weight * carrier * sums)


def field_from_ring(ring, x, y, z):
    """The field on the grid axes x, y at plane z whose angular spectrum is ``ring``.

    Evaluates sin(theta) (2 pi / M) sum_m a_m e^{i (kx_m x + ky_m y)} e^{i k_z z},
    the trapezoid rule for the angular-spectrum (Whittaker) integral, which
    is spectrally accurate for a smooth ring profile.  Returns shape
    (len(y), len(x)).  The adjoint of :func:`ring_spectrum_from_grid`'s kernel
    on the same quarter tables and the same tiles and row blocks of
    :func:`_blocks`, so no temporary grows with len(x) * M.
    """
    kappa, slots = _quarter(ring.kt, ring.m)
    scale = math.sin(ring.theta) * 2.0 * math.pi / ring.m * np.exp(1j * ring.kz * z)
    coef = np.zeros(4 * len(kappa), dtype=np.complex128)
    coef[slots] = scale * ring.samples
    coef = np.einsum("lq,pq->lp", coef.reshape(-1, 4), _PHASES.conj()).reshape(-1, 2, 2)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    out = np.empty((len(y), len(x)), dtype=np.complex128)
    pairs = out.view(np.float64)        # (ny, 2 nx): re, im interleaved
    for tile, tx, rows, ty in _blocks(x, y, kappa, 6):
        if rows.start == 0:
            size = 2 * tx.shape[2] * len(x)
            if tile.start == 0:         # the first tile is the widest: one buffer serves them all
                w_buf = np.empty(size, dtype=np.complex128)
            # w[b, l, j] = sum_a coef[l, a, b] a(x_j kappa_l): the x half of the kernel
            w = np.einsum("lab,jal->blj", coef[tile], tx, out=w_buf[:size].reshape(2, -1, len(x)))
            w = w.reshape(-1, len(x)).view(np.float64)
        if tile.start == 0:
            _product(ty.reshape(len(ty), -1), w, out=pairs[rows])
        else:                           # later wavenumber tiles add
            pairs[rows] += _product(ty.reshape(len(ty), -1), w)
    return out


def oam_spectrum(ring, n_min=DEFAULT_CHARGE_WINDOW[0], n_max=DEFAULT_CHARGE_WINDOW[1]):
    """Project a ring profile onto integer topological charges.

    Computes the exact M-point discrete version of the circle integral,
    including the (2 pi)^{-1/2} (sin theta)^{1/2} prefactor.
    """
    m = ring.m
    n_min, n_max = check_charge_window(n_min, n_max, m)
    transform = np.fft.fft(ring.samples)
    ns = np.arange(n_min, n_max + 1)
    # e^{-i n phi_m} with phi_m = -pi + 2 pi m / M picks up (-1)^n per charge
    signs = np.where(ns % 2 == 0, 1.0, -1.0)
    raw = signs * transform[np.mod(ns, m)]
    pref = math.sqrt(math.sin(ring.theta)) / _SQRT_2PI * (2.0 * math.pi / m)
    return OamSpectrum(ring.k, ring.theta, n_min, n_max, pref * raw)


def analytic_ring(label, m=DEFAULT_RING_SAMPLES):
    """On-cone ring spectrum of a wave label from its analytic ring profile."""
    check_ring_size(m)
    return RingSpectrum(label.k, label.theta, label.ring_profile(ring_azimuths(m)))


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


def parseval_norm(ring):
    """Squared ring norm (2 pi / M) sum |a_m|^2."""
    return float(2.0 * math.pi / ring.m * np.sum(np.abs(ring.samples) ** 2))


def parseval_residual(ring, spec):
    """Relative mismatch of the ring-vs-charge norm identity.

    With the charge prefactor convention the exact identity is
    spec.norm = sin(theta) * parseval_norm(ring), provided the charge
    window spans M consecutive integers (or the profile is band-limited
    within it).
    """
    weighted = math.sin(ring.theta) * parseval_norm(ring)
    scale = max(abs(weighted), abs(spec.norm), 1e-300)
    return abs(spec.norm - weighted) / scale


def bessel_coeffs_of_mathieu(eigen, k, theta):
    """Charge-basis coefficients of an elliptic wave on the (k, theta) cone.

    Returns a pair of spectra.  The one-sided form places 2^{-1/2} times
    each expansion coefficient at the non-negative charge equal to its
    harmonic, exactly as the closed-form decomposition is written.  The
    two-sided form resolves cos/sin harmonics into charge pairs:

        cos j phi -> equal coefficients at +-j (with 2^{1/2} A_0 at 0),
        sin j phi -> -+ i-weighted antisymmetric pair at +-j,

    matching what :func:`oam_spectrum` of the analytic ring profile yields.
    Each spectrum's norm is the plain coefficient power in its own
    convention.
    """
    harmonics = eigen.harmonics
    coeffs = eigen.coeffs
    n_top = int(harmonics[-1]) if len(harmonics) else 0

    half = coeffs / math.sqrt(2.0)
    one = np.zeros(n_top + 1, dtype=np.complex128)
    one[harmonics] = half
    one_sided = OamSpectrum(k, theta, 0, n_top, one)

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
    two_sided = OamSpectrum(k, theta, -n_top, n_top, two)
    return one_sided, two_sided
