"""Separable wave families of the reduced wave equation and grid sampling.

Each family is identified by the eigenvalues of its conserved operators:
wavenumber k plus the cone angle theta for all three, then the azimuth phi
(plane waves), the topological charge n (circular waves built on Bessel
functions), or the order n together with the semi-focal distance f
(elliptic waves built on Mathieu functions).  All families share the
transverse wavenumber k_t = k sin(theta) and the axial phase rate
k cos(theta).
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import RangeError, UsageError
from .specfun import (
    MathieuClass,
    bessel_j,
    mathieu_ce,
    mathieu_ce_radial,
    mathieu_norm_constant,
    mathieu_se,
    mathieu_se_radial,
)

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**n without pow() rounding
_BELOW_PI = math.nextafter(math.pi, 0.0)


@dataclass(frozen=True)
class Wave:
    """A separable wave on the cone (k, theta), paired with its ring amplitude.

    Each family adds its own labels and implements ``field(x, y, z)``, the
    complex field at points given as scalars or broadcastable arrays, and
    ``ring_profile(phi)``, its on-cone angular spectrum at the uniform ring
    azimuths ``phi`` (see ``spectral.ring_azimuths``).
    """

    k: float
    theta: float

    def __post_init__(self):
        self.check_cone(self.k, self.theta)

    @staticmethod
    def check_cone(k, theta):
        """Raise RangeError unless k is positive and finite and 0 < theta < pi."""
        if not (k > 0.0 and math.isfinite(k)):
            raise RangeError(f"wavenumber k must be positive and finite, got {k}")
        if not (0.0 < theta < math.pi):
            raise RangeError(f"cone angle theta must lie in (0, pi), got {theta}")

    @property
    def kt(self):
        return self.k * math.sin(self.theta)

    @property
    def kz(self):
        return self.k * math.cos(self.theta)


@dataclass(frozen=True)
class PlaneWave(Wave):
    """Plane wave labelled by (k, theta, phi)."""

    phi: float
    family = "plane"

    def __post_init__(self):
        super().__post_init__()
        if not (-math.pi <= self.phi < math.pi):
            raise RangeError(f"azimuth phi must lie in [-pi, pi), got {self.phi}")

    def field(self, x, y, z):
        """sqrt(sin theta) e^{i (k_t (x cos phi + y sin phi) + k_z z)}."""
        kx = self.kt * math.cos(self.phi)
        ky = self.kt * math.sin(self.phi)
        phase = kx * x + ky * y + self.kz * z
        return math.sqrt(math.sin(self.theta)) * np.exp(1j * phase)

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
class BesselWave(Wave):
    """Circular-cylindrical wave labelled by (k, theta, n)."""

    n: int
    family = "bessel"

    def __post_init__(self):
        super().__post_init__()
        if self.n != int(self.n):
            raise RangeError(f"topological charge must be an integer, got {self.n}")

    def field(self, x, y, z):
        """i^n sqrt(2 pi sin theta) J_n(k_t r) e^{i (n phi + k_z z)}; 0 on-axis unless n = 0."""
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        amp = _I_POW[self.n % 4] * math.sqrt(2.0 * math.pi * math.sin(self.theta))
        return amp * bessel_j(self.n, self.kt * r) * np.exp(1j * (self.n * phi + self.kz * z))

    def ring_profile(self, phi):
        """(2 pi sin theta)^{-1/2} e^{i n phi}."""
        return np.exp(1j * self.n * phi) / math.sqrt(2.0 * math.pi * math.sin(self.theta))


@dataclass(frozen=True)
class MathieuWave(Wave):
    """Elliptic-cylindrical wave labelled by (k, theta, n) on foci at +-f."""

    n: int
    parity: str
    f: float

    def __post_init__(self):
        super().__post_init__()
        MathieuClass.from_order(self.parity, self.n)  # validates parity and order
        if not (self.f > 0.0 and math.isfinite(self.f)):
            raise RangeError(f"semi-focal distance f must be positive, got {self.f}")

    @property
    def family(self):
        return f"mathieu-{self.parity}"

    @property
    def q(self):
        """Separation parameter (f k sin(theta) / 2)^2."""
        return (self.f * self.kt / 2.0) ** 2

    def field(self, x, y, z):
        """sqrt(sin theta) c_n Ce_n(xi) ce_n(eta) e^{i k_z z}, or the s_n Se_n se_n odd form.

        Points are mapped through :func:`elliptic_coords`; the result is
        continuous across the inter-foci segment because the angular and
        radial factors are jointly even (even parity) or jointly odd (odd
        parity) under the eta branch flip there.  Points beyond the
        supported radial range raise a RangeError naming the first one.
        """
        xi, eta = elliptic_coords(x, y, self.f)
        q = self.q
        radial = mathieu_ce_radial if self.parity == "even" else mathieu_se_radial
        rad = radial(self.n, q, xi)
        cn = mathieu_norm_constant(self.parity, self.n, q)
        ang = self._angular(eta)
        carrier = np.exp(1j * self.kz * np.asarray(z, dtype=float))
        return math.sqrt(math.sin(self.theta)) * cn * rad * ang * carrier

    def ring_profile(self, phi):
        """(pi sin theta)^{-1/2} ce_n(phi; q), or se_n for odd parity."""
        return self._angular(phi).astype(np.complex128) / math.sqrt(math.pi * math.sin(self.theta))

    def _angular(self, u):
        angular = mathieu_ce if self.parity == "even" else mathieu_se
        return angular(self.n, self.q, u)


# family name -> (class, labels the name fixes)
FAMILIES = {
    "plane": (PlaneWave, {}),
    "bessel": (BesselWave, {}),
    "mathieu-even": (MathieuWave, {"parity": "even"}),
    "mathieu-odd": (MathieuWave, {"parity": "odd"}),
}


def make_wave(family, k, theta, **labels):
    """The member of a named family on the (k, theta) cone.

    Takes from ``labels`` the ones the family carries (phi; n; n and f) and
    ignores the others; a carried label given as None is a UsageError.
    """
    cls, fixed = FAMILIES[family]
    carried = {f.name: labels.get(f.name) for f in fields(cls)[2:]} | fixed
    for name, value in carried.items():
        if value is None:
            raise UsageError(f"label {name} is required for {family} waves")
    return cls(k, theta, **carried)


@dataclass(frozen=True)
class GridMeta:
    """Wave metadata carried by a sampled field."""

    k: float = None
    theta: float = None
    z_plane: float = 0.0
    description: str = ""

    def __post_init__(self):
        # either cone label may be absent; one that is given must be valid
        Wave.check_cone(1.0 if self.k is None else self.k,
                        math.pi / 2 if self.theta is None else self.theta)
        if not math.isfinite(self.z_plane):
            raise RangeError(f"slice plane z must be finite, got {self.z_plane}")


@dataclass
class FieldGrid:
    """Complex scalar field sampled on a uniform transverse grid.

    ``values`` has shape (ny, nx), row-major with the y index outermost;
    sample (i, j) sits at (x0 + j*dx, y0 + i*dy).
    """

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float
    values: np.ndarray = field(repr=False)
    meta: GridMeta = field(default_factory=GridMeta)

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise RangeError(f"grid must be at least 16x16, got {self.nx}x{self.ny}")
        if not (self.dx > 0.0 and self.dy > 0.0):
            raise RangeError("grid spacings must be positive")
        if not all(map(math.isfinite, (self.dx, self.dy, self.x0, self.y0))):
            raise RangeError("grid origin and spacings must be finite")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.ny, self.nx):
            raise RangeError(
                f"values shape {vals.shape} does not match (ny, nx) = "
                f"({self.ny}, {self.nx})"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise RangeError("field values must all be finite")
        self.values = vals

    def x(self):
        return self.x0 + self.dx * np.arange(self.nx)

    def y(self):
        return self.y0 + self.dy * np.arange(self.ny)


def elliptic_coords(x, y, f):
    """Map (x, y) to elliptic coordinates (xi, eta) for foci at (+-f, 0).

    Inverts x = f cosh(xi) cos(eta), y = f sinh(xi) sin(eta) with xi >= 0
    and eta in [-pi, pi); the sign of eta matches the sign of y, points on
    the inter-foci segment get xi = 0 and eta >= 0 (the origin maps to
    eta = pi/2), and the ray x <= -f, y = 0 maps to eta = -pi.  Points with
    y > 0 whose eta rounds to pi get the largest double below pi instead.
    """
    if not (f > 0.0):
        raise RangeError(f"semi-focal distance f must be positive, got {f}")
    z = (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)) / f
    w = np.arccosh(z)
    xi = np.maximum(w.real, 0.0)
    eta = np.where(w.imag < math.pi, w.imag, np.where(np.asarray(y) > 0.0, _BELOW_PI, -math.pi))
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(xi), float(eta)
    return xi, eta


def sample_grid(label, nx, ny, dx, dy, x0=None, y0=None, z=0.0, description=None):
    """Sample a wave family member onto a FieldGrid.

    Samples sit at x0 + j*dx, y0 + i*dy; when x0/y0 are omitted the grid is
    centred on the origin.  A family may refuse samples outside its
    supported range: elliptic waves name the first offending sample index.
    """
    nx, ny = int(nx), int(ny)
    if x0 is None:
        x0 = -0.5 * (nx - 1) * dx
    if y0 is None:
        y0 = -0.5 * (ny - 1) * dy
    x = x0 + dx * np.arange(nx)
    y = y0 + dy * np.arange(ny)
    if description is None:
        description = f"{label.family} wave sample"
    meta = GridMeta(k=label.k, theta=label.theta, z_plane=float(z), description=description)
    X, Y = np.meshgrid(x, y)
    vals = label.field(X, Y, z)
    return FieldGrid(nx, ny, float(dx), float(dy), float(x0), float(y0), vals, meta)
