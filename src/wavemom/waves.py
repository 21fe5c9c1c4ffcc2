"""Separable wave families of the reduced wave equation and grid sampling.

Each family is identified by the eigenvalues of its conserved operators:
wavenumber k plus the cone angle theta for all three, then the azimuth phi
(plane waves), the topological charge n (circular waves built on Bessel
functions), or the order n together with the semi-focal distance f
(elliptic waves built on Mathieu functions).  All families share the
transverse wavenumber k_t = k sin(theta) and the axial phase rate
k cos(theta).

A family is a ``spectral.Cone`` plus its labels and two methods:
``ring_profile(phi)``, its on-cone angular spectrum at the uniform ring
azimuths ``phi`` (see ``spectral.ring_azimuths``), and ``sample(x, y, z)``,
the complex field on the grid of 1-D axes x, y at plane z, of shape
(len(y), len(x)).  A single point is a one-sample grid.
"""

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import RangeError, UsageError, check_integers
from .spectral import MAX_RING_SAMPLES, Cone, analytic_ring, field_from_ring
from .specfun.mathieu import (
    MAX_Q,
    MathieuClass,
    check_radial_range,
    mathieu_ce,
    mathieu_ce_radial,
    mathieu_eigen,
    mathieu_norm_constant,
    mathieu_se,
    mathieu_se_radial,
    radial_xi_max,
)

_BELOW_PI = math.nextafter(math.pi, 0.0)
_ABOVE_ZERO = math.ulp(0.0)
MAX_SAMPLES = 2 ** 26  # nx * ny: 1 GiB of complex128 samples
_ALIASING = 1e-16  # bound on the ring-sum aliasing of a synthesised grid
_ROWS = 32  # grid rows per block of MathieuWave.sample's radial-range check
_SLAB = 2 ** 16  # floats per slab of FieldGrid's finiteness check, so no bool array spans the grid


def check_focal(cone, f):
    """RangeError unless 0 < f < inf and, on a ``cone``, q = (f k_t / 2)^2 stays within
    MAX_Q; a cone of None checks f alone, and an f of None is refused."""
    if f is None or not 0.0 < f < math.inf:
        raise RangeError(f"semi-focal distance f must be positive, got {f}")
    if cone is None:
        return
    root_q = f * cone.kt / 2.0  # compared before squaring, which could overflow
    if root_q > math.sqrt(MAX_Q):
        raise RangeError(
            f"q = (f k_t / 2)^2 exceeds the supported maximum {MAX_Q:g} (f k_t / 2 = {root_q:g})")


@dataclass(frozen=True)
class PlaneWave(Cone):
    """Plane wave labelled by (k, theta, phi)."""

    phi: float
    family = "plane"

    def __post_init__(self):
        super().__post_init__()
        if not (-math.pi <= self.phi < math.pi):
            raise RangeError(f"azimuth phi must lie in [-pi, pi), got {self.phi}")

    def sample(self, x, y, z):
        """sqrt(sin theta) e^{i (k_t (x cos phi + y sin phi) + k_z z)} on a grid, the outer
        product of a y column and an x row, so no phase summed over both axes is rounded."""
        x, y = _axis(x), _axis(y)
        kx = self.kt * math.cos(self.phi)
        ky = self.kt * math.sin(self.phi)
        column = math.sqrt(math.sin(self.theta)) * np.exp(1j * (ky * y + self.kz * z))
        return column[:, None] * np.exp(1j * kx * x)

    def ring_profile(self, phi):
        """A regularised azimuth delta.

        The delta is represented as unit mass on the ring node nearest the
        wave's azimuth, value M / (2 pi), times the (sin theta)^{-1/2}
        prefactor; the accompanying cone delta is carried by the (k, theta)
        metadata, which overlap operations require to match.
        """
        m = len(phi)
        samples = np.zeros(m, dtype=np.complex128)
        node = int(round((self.phi - phi[0]) * m / (2.0 * math.pi))) % m
        samples[node] = m / (2.0 * math.pi) / math.sqrt(math.sin(self.theta))
        return samples


@dataclass(frozen=True)
class BesselWave(Cone):
    """Circular-cylindrical wave labelled by (k, theta, n)."""

    n: int
    family = "bessel"

    def __post_init__(self):
        super().__post_init__()
        (n,) = check_integers("topological charge must be an integer, got {}", self.n)
        object.__setattr__(self, "n", n)

    def ring_profile(self, phi):
        """(2 pi sin theta)^{-1/2} e^{i n phi}."""
        return np.exp(1j * self.n * phi) / math.sqrt(2.0 * math.pi * math.sin(self.theta))

    def sample(self, x, y, z):
        """The field i^n sqrt(2 pi sin theta) J_n(k_t r) e^{i (n phi + k_z z)} on a grid, synthesised
        from the ring profile by ``spectral.field_from_ring`` on M from :func:`_ring_size`."""
        x, y = _axis(x), _axis(y)
        m = _ring_size(self, x, y, [abs(self.n)], [1.0], f"Bessel order {self.n}")
        return field_from_ring(analytic_ring(self, m), x, y, z)


@dataclass(frozen=True)
class MathieuWave(Cone):
    """Elliptic-cylindrical wave labelled by (k, theta, n) on foci at +-f."""

    n: int
    parity: str
    f: float

    def __post_init__(self):
        super().__post_init__()
        MathieuClass.from_order(self.parity, self.n)  # validates parity and order
        object.__setattr__(self, "n", operator.index(self.n))  # a numpy order as a Python int
        check_focal(self, self.f)

    @property
    def family(self):
        return f"mathieu-{self.parity}"

    @property
    def q(self):
        """Separation parameter (f k sin(theta) / 2)^2 for foci at +-f."""
        return (self.f * self.kt / 2.0) ** 2

    def sample(self, x, y, z):
        """sqrt(sin theta) c_n Ce_n(xi) ce_n(eta) e^{i k_z z}, or the s_n Se_n se_n odd form, on a grid.

        It is (-i)^(n mod 2) c_n^2 / (2 sqrt(pi)) times the ring profile's synthesis (the Whittaker
        integral of ce_n or se_n) on M from :func:`_ring_size`.  The domain is the closed form's: a
        grid whose largest xi (at its largest |x| and |y|) is beyond the radial range is checked in
        blocks of _ROWS rows, naming the first offending sample; then the norm constant and the
        radial series at that xi may refuse.
        """
        x, y = _axis(x), _axis(y)
        q = self.q
        far_x, far_y = (a[np.abs(a) == np.abs(a).max()] for a in (x, y))  # at most two values each
        reach = float(elliptic_coords(far_x, far_y[:, None], self.f)[0].max())
        if reach > radial_xi_max(q):
            for i0 in range(0, len(y), _ROWS):
                check_radial_range(q, elliptic_coords(x, y[i0:i0 + _ROWS, None], self.f)[0], i0)
        c = mathieu_norm_constant(self.parity, self.n, q)
        (mathieu_ce_radial if self.parity == "even" else mathieu_se_radial)(self.n, q, reach)
        eig = mathieu_eigen(self.parity, self.n, q)
        m = _ring_size(self, x, y, eig.harmonics.tolist(), np.abs(eig.coeffs).tolist(),
                       f"Mathieu {self.parity} order {self.n}")
        out = field_from_ring(analytic_ring(self, m), x, y, z)
        out *= c * c / (2.0 * math.sqrt(math.pi)) * (-1j if self.n % 2 else 1.0)
        return out

    def ring_profile(self, phi):
        """(pi sin theta)^{-1/2} ce_n(phi; q), or se_n for odd parity."""
        angular = mathieu_ce if self.parity == "even" else mathieu_se
        return angular(self.n, self.q, phi).astype(np.complex128) / math.sqrt(math.pi * math.sin(self.theta))


# family name -> (class, labels the name fixes)
FAMILIES = {
    "plane": (PlaneWave, {}),
    "bessel": (BesselWave, {}),
    "mathieu-even": (MathieuWave, {"parity": "even"}),
    "mathieu-odd": (MathieuWave, {"parity": "odd"}),
}


_LABEL_DEFAULTS = {"phi": 0.0, "n": 0}


def make_wave(family, k, theta, **labels):
    """The member of a named family on the (k, theta) cone.

    ``labels`` maps label names (phi, n, f) to values, None meaning not
    given.  The family takes the labels it carries (phi; n; n and f), with
    phi = 0 and n = 0 when not given.  A label given to a family that does
    not carry it is a UsageError, and so is a carried f that is not given.
    """
    cls, fixed = FAMILIES[family]
    carried = [f.name for f in fields(cls)[2:] if f.name not in fixed]
    for name, value in labels.items():
        if value is not None and name not in carried:
            raise UsageError(f"--{name} does not apply to {family} waves")
    values = {name: _LABEL_DEFAULTS.get(name) if labels.get(name) is None else labels[name]
              for name in carried}
    for name, value in values.items():
        if value is None:
            raise UsageError(f"label {name} is required for {family} waves")
    return cls(k, theta, **values, **fixed)


@dataclass(eq=False)
class FieldGrid:
    """Complex scalar field sampled on a uniform transverse grid of the plane z_plane.

    ``values`` has shape (ny, nx), row-major with the y index outermost;
    sample (i, j) sits at (x0 + j*dx, y0 + i*dy).  ``meta`` is the field's
    cone.  A grid compares by identity.  Its geometry, cone and plane are
    checked once, when it is built, so only ``values`` may be reassigned,
    with a finite complex array of the same shape.  The sizes are kept as
    Python ints, and the spacings, origin and plane as Python floats; an
    origin of None centres its axis on 0, as in ``sample_grid``.
    """

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float
    values: np.ndarray = field(repr=False)
    meta: Cone
    z_plane: float = 0.0
    description: str = ""

    @staticmethod
    def check_geometry(nx, ny, dx, dy, x0, y0, meta, z_plane):
        """Return (nx, ny, x0, y0), the sizes as ints and an origin of None centred on 0.

        Raise RangeError unless the sizes are integers, z_plane is finite, the grid holds
        16x16 to MAX_SAMPLES samples (checked before any float is made of nx and ny), its
        spacings are finite and positive, and its largest phase on meta's cone,
        k_t (max|x| + max|y|) + |k_z z_plane|, is finite."""
        nx, ny = check_integers("grid size must be integers, got {!r}x{!r}", nx, ny)
        if not math.isfinite(z_plane):
            raise RangeError(f"slice plane z must be finite, got {z_plane}")
        if nx < 16 or ny < 16:
            raise RangeError(f"grid must be at least 16x16, got {nx}x{ny}")
        if nx * ny > MAX_SAMPLES:
            raise RangeError(f"grid must hold at most {MAX_SAMPLES} samples, got {nx}x{ny}")
        if not (dx > 0.0 and dy > 0.0):
            raise RangeError("grid spacings must be positive")
        if x0 is None:
            x0 = -0.5 * (nx - 1) * dx
        if y0 is None:
            y0 = -0.5 * (ny - 1) * dy
        if not all(map(math.isfinite, (dx, dy, x0, y0))):
            raise RangeError("grid origin and spacings must be finite")
        reach = max(abs(x0), abs(x0 + (nx - 1) * dx)) + max(abs(y0), abs(y0 + (ny - 1) * dy))
        if not math.isfinite(meta.kt * reach + abs(meta.kz * z_plane)):
            raise RangeError("largest phase k_t (max|x| + max|y|) + |k_z z_plane| is not finite")
        return nx, ny, x0, y0

    def __post_init__(self):
        self.nx, self.ny, *origin = self.check_geometry(
            self.nx, self.ny, self.dx, self.dy, self.x0, self.y0, self.meta, self.z_plane)
        self.dx, self.dy, self.x0, self.y0, self.z_plane = map(
            float, (self.dx, self.dy, *origin, self.z_plane))
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (self.ny, self.nx):
            raise RangeError(
                f"values shape {vals.shape} does not match (ny, nx) = "
                f"({self.ny}, {self.nx})"
            )
        floats = vals.reshape(-1).view(np.float64)
        for i0 in range(0, len(floats), _SLAB):
            if not np.isfinite(floats[i0:i0 + _SLAB]).all():
                raise RangeError("field values must all be finite")
        self.values = vals

    def x(self):
        return self.x0 + self.dx * np.arange(self.nx)

    def y(self):
        return self.y0 + self.dy * np.arange(self.ny)


def _axis(values):
    """A grid axis given as any sequence, as a flat float array."""
    return np.asarray(values, dtype=float).ravel()


def _ring_size(cone, x, y, harmonics, weights, what):
    """The ring size M that synthesises a profile of harmonics h_j and weights |A_j| on the grid of axes x, y.

    With z the grid's largest k_t r, M ring samples alias each J_h(z) with J_{M-h}(z) and weaker terms,
    bounded by 2 (z/2)^nu / nu! for nu = M - h >= 1 and by 2 (|J| <= 1) otherwise.  M is the smallest
    power of two >= 256 whose weighted sum of these bounds is <= _ALIASING; a profile that even M =
    MAX_RING_SAMPLES does not cover is a RangeError naming ``what`` and z, before any table is built.
    """
    z = cone.kt * float(np.hypot(np.abs(x).max(), np.abs(y).max()))
    m = 256
    while m <= MAX_RING_SAMPLES:
        logs = [math.log(2.0 * w) + (m - h) * math.log(z / 2.0) - math.lgamma(m - h + 1)
                if m - h >= 1 else math.log(2.0 * w)
                for h, w in zip(harmonics, weights) if w > 0.0 and (m - h < 1 or z > 0.0)]
        if not logs or (top := max(logs)) + math.log(sum(math.exp(t - top) for t in logs)) \
                <= math.log(_ALIASING):
            return m
        m *= 2
    raise RangeError(f"{what} at k_t r = {z:.6g} needs more than {MAX_RING_SAMPLES} ring samples")


def elliptic_coords(x, y, f):
    """Map (x, y) to elliptic coordinates (xi, eta) for foci at (+-f, 0).

    f must be finite and positive (``check_focal`` without a cone).
    Inverts x = f cosh(xi) cos(eta), y = f sinh(xi) sin(eta) with xi >= 0
    and eta in [-pi, pi); the sign of eta matches the sign of y, points on
    the inter-foci segment get xi = 0 and eta >= 0 (the origin maps to
    eta = pi/2), and the ray x <= -f, y = 0 maps to eta = -pi.  Points with
    y > 0 whose eta rounds to pi get the largest double below pi instead,
    and points with y != 0 whose eta rounds to 0 get the smallest double of
    the sign of y.
    """
    check_focal(None, f)
    y = np.asarray(y, dtype=float)
    z = (np.asarray(x, dtype=float) + 1j * y) / f
    w = np.arccosh(z)
    xi = np.maximum(w.real, 0.0)
    eta = np.where(w.imag < math.pi, w.imag, np.where(y > 0.0, _BELOW_PI, -math.pi))
    # y / f or eta can underflow to zero for a tiny y, which must still give eta its sign
    eta = np.where((eta == 0.0) & (y != 0.0), np.copysign(_ABOVE_ZERO, y), eta)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(xi), float(eta)
    return xi, eta


def sample_grid(label, nx, ny, dx, dy, x0=None, y0=None, z=0.0, description=None):
    """Sample a wave family member onto a FieldGrid.

    Samples sit at x0 + j*dx, y0 + i*dy; when x0/y0 are omitted the grid is
    centred on the origin.  A family may refuse samples outside its
    supported range: elliptic waves name the first offending sample index,
    Bessel waves refuse an order and reach that MAX_RING_SAMPLES ring samples
    cannot synthesise, and both refuse a grid that keeps fewer than 7 correct
    digits of its peak (``spectral.field_from_ring``).
    """
    if description is None:
        description = f"{label.family} wave sample"
    cone, z = Cone(label.k, label.theta), float(z)
    nx, ny, x0, y0 = FieldGrid.check_geometry(nx, ny, dx, dy, x0, y0, cone, z)  # before any sample is computed
    x = x0 + dx * np.arange(nx)
    y = y0 + dy * np.arange(ny)
    vals = label.sample(x, y, z)
    return FieldGrid(nx, ny, dx, dy, x0, y0, vals, cone, z, description)
