import dataclasses
import inspect
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from wavemom import momenta
from wavemom.errors import NumericalError, RangeError, UndefinedMeanError, UsageError
from wavemom.momenta import (
    grid_mean,
    mean_charge,
    oam_mathieu_paper,
    report,
    ring_transverse_means,
)
from wavemom.spectral import (
    OamSpectrum,
    RingSpectrum,
    analytic_ring,
    oam_spectrum,
    ring_azimuths,
    ring_spectrum_from_grid,
)
from wavemom.specfun.mathieu import mathieu_ce, mathieu_eigen
from wavemom.waves import BesselWave, MathieuWave, PlaneWave, sample_grid

from _oracles import mathieu_coeffs

K = 2.0 * math.pi

# regression anchor for the closed-form elliptic mean charge, pinned by the
# independent double-truncation oracle in test_paper_form_truncation_stability
EVEN2_Q1_MEAN = 0.9576485320360255


def charge_spectrum(pairs, k=K, theta=0.4):
    ns = [n for n, _ in pairs]
    lo, hi = min(ns), max(ns)
    coeffs = np.zeros(hi - lo + 1, complex)
    for n, c in pairs:
        coeffs[n - lo] = c
    return OamSpectrum(k, theta, lo, hi, coeffs)


# ----------------------------------------------------------- mean charge

def test_mean_charge_basics():
    assert mean_charge(charge_spectrum([(5, 1.0)])) == 5.0
    assert mean_charge(charge_spectrum([(-3, 0.7), (3, 0.7)])) == 0.0
    with pytest.raises(UndefinedMeanError):
        mean_charge(charge_spectrum([(2, 0.0)]))


def test_mean_charge_scaling_invariance():
    spec = charge_spectrum([(-1, 0.3 + 0.1j), (2, 0.8 - 0.5j), (7, 0.05j)])
    scaled = dataclasses.replace(spec, coeffs=spec.coeffs * (3.7 - 1.2j))
    assert mean_charge(scaled) == pytest.approx(mean_charge(spec), abs=1e-14)


def test_transverse_means_of_a_zero_ring_are_undefined():
    with pytest.raises(UndefinedMeanError) as exc:
        ring_transverse_means(RingSpectrum(K, 0.5, np.zeros(256)))
    assert str(exc.value) == "ring profile has zero norm; means are undefined"


def test_real_ring_profile_has_zero_mean_charge():
    phi = ring_azimuths(1024)
    for samples in (np.cos(3 * phi) + 0.2, mathieu_ce(2, 1.0, phi),
                    np.exp(-np.cos(phi) ** 2)):
        ring = RingSpectrum(K, 0.5, samples.astype(complex))
        spec = oam_spectrum(ring, -512, 511)
        assert abs(mean_charge(spec)) < 1e-10


# ------------------------------------------------------------ plane wave

def test_plane_wave_mean_charge_is_zero():
    for phi in (-2.0, 0.0, 0.77):
        label = PlaneWave(K, 0.6, phi)
        assert abs(mean_charge(oam_spectrum(analytic_ring(label), -40, 40))) < 1e-12


def test_plane_wave_grid_oracle():
    label = PlaneWave(K, 0.6, 0.77)
    d = 2.0 * math.pi / (32.0 * K)
    g = sample_grid(label, 64, 64, d, d)
    assert abs(grid_mean(g, "lz")) < 1e-6


# ----------------------------------------------------------- closed form

def test_paper_form_q_zero_limits():
    assert oam_mathieu_paper("even", 0, 0.0) == 0.0
    assert oam_mathieu_paper("odd", 1, 0.0) == 0.5
    # the single surviving term sits at harmonic n, weight n/2
    for parity, n in (("even", 2, ), ("even", 4), ("odd", 3), ("odd", 6)):
        assert oam_mathieu_paper(parity, n, 0.0) == pytest.approx(n / 2.0, abs=1e-14)


def test_paper_form_regression_anchor():
    assert oam_mathieu_paper("even", 2, 1.0) == pytest.approx(EVEN2_Q1_MEAN, abs=1e-10)


def test_paper_form_truncation_stability():
    # independent eigensolves at doubled truncation pin the anchor to 1e-8
    def one_sided_mean(size):
        vec, _ = mathieu_coeffs("even", 2, 1.0, size)
        weights = np.arange(len(vec))  # n even: weight m
        return float((weights * vec ** 2).sum() / (vec ** 2).sum())

    small, large = one_sided_mean(60), one_sided_mean(120)
    assert small == pytest.approx(large, abs=1e-8)
    assert large == pytest.approx(EVEN2_Q1_MEAN, abs=1e-10)
    assert oam_mathieu_paper("odd", 1, 1.0) == pytest.approx(
        float((np.arange(len(mathieu_coeffs("odd", 1, 1.0, 60)[0])) + 0.5)
              @ mathieu_coeffs("odd", 1, 1.0, 60)[0] ** 2), abs=1e-8)


@pytest.mark.parametrize("q", [0.1, 1.0, 9.0])
def test_paper_route_is_half_the_rings_mean_absolute_charge(q):
    # the paper's sum is <|n|>/2 = sum |n| |c_n|^2 / (2 sum |c_n|^2) of the wave's
    # analytic ring, except for ce_2n: the ring's charge power counts A_0^2 twice
    # (2 A_0^2 + sum A_j^2 = 1), the paper's sum once (0.1728 against 0.0945 at n = 0, q = 1)
    theta = math.pi / 6
    for parity, n in (("even", 3), ("even", 7), ("odd", 3), ("odd", 11), ("odd", 6), ("even", 0), ("even", 2)):
        wave = MathieuWave(K, theta, n, parity, 2.0 * math.sqrt(q) / (K * math.sin(theta)))
        spec = oam_spectrum(analytic_ring(wave, 1024), -200, 200)
        power = np.abs(spec.coeffs) ** 2
        half = float(np.abs(spec.charges()) @ power / (2.0 * power.sum()))
        paper = oam_mathieu_paper(parity, n, q)
        eig = mathieu_eigen(parity, n, q)
        if eig.harmonics[0] == 0:
            assert paper != pytest.approx(half, rel=1e-9)
            a2 = eig.coeffs ** 2
            paper = float(eig.harmonics / 2.0 @ a2 / (a2.sum() + a2[0]))
        assert half == pytest.approx(paper, rel=2e-15), (parity, n)


# ------------------------------------------------------------ grid means

def test_plane_wave_py_eigenvalue():
    label = PlaneWave(K, math.pi / 2, math.pi / 2)
    d = 2.0 * math.pi / (128.0 * K)
    g = sample_grid(label, 32, 32, d, d)
    assert grid_mean(g, "py") == pytest.approx(K, rel=1e-3)
    assert grid_mean(g, "px") == pytest.approx(0.0, abs=1e-6 * K)


def test_bessel_grid_charge():
    theta, n = 0.3, 3
    lam_t = 2.0 * math.pi / (K * math.sin(theta))
    d = lam_t / 160.0
    npix = int(4.0 * lam_t / d)
    g = sample_grid(BesselWave(K, theta, n), npix, npix, d, d)
    assert grid_mean(g, "lz") == pytest.approx(n, abs=1e-3)


def test_spectral_vs_grid_for_bessel_orders():
    theta = 0.3
    lam_t = 2.0 * math.pi / (K * math.sin(theta))
    for n in (-8, -2, 0, 5, 10):
        spw = max(48, 16 * abs(n))
        d = lam_t / spw
        npix = max(int(4.0 * lam_t / d), 192)
        g = sample_grid(BesselWave(K, theta, n), npix, npix, d, d)
        spectral = mean_charge(oam_spectrum(
            ring_spectrum_from_grid(g, 1024, "hann"), -40, 40))
        assert abs(spectral - grid_mean(g, "lz")) < 1e-2


def test_spectral_vs_grid_for_superposition():
    theta = 0.3
    lam_t = 2.0 * math.pi / (K * math.sin(theta))
    d = lam_t / 48.0
    npix = int(16.0 * lam_t / d)
    g1 = sample_grid(BesselWave(K, theta, 2), npix, npix, d, d)
    g2 = sample_grid(BesselWave(K, theta, -1), npix, npix, d, d)
    rng = np.random.default_rng(42)
    for _ in range(3):
        a = complex(*rng.normal(size=2))
        b = complex(*rng.normal(size=2))
        g = dataclasses.replace(g1, values=a * g1.values + b * g2.values)
        spectral = mean_charge(oam_spectrum(
            ring_spectrum_from_grid(g, 1024, "hann"), -40, 40))
        assert abs(spectral - grid_mean(g, "lz")) < 1e-2


def test_grid_mean_scaling_invariance():
    g = sample_grid(BesselWave(K, 0.3, 2), 48, 48, 0.2, 0.2)
    scaled = dataclasses.replace(g, values=(2.3 - 1.1j) * g.values)
    for op, f in (("lz", None), ("px", None), ("py", None), ("elliptic", 0.7)):
        base = grid_mean(g, op, f=f)
        assert grid_mean(scaled, op, f=f) == pytest.approx(base, abs=1e-12 * max(1, abs(base)))


def test_random_plane_labels_momentum_vector():
    rng = np.random.default_rng(123)
    for _ in range(16):
        theta = rng.uniform(0.1, math.pi - 0.1)
        phi = rng.uniform(-math.pi, math.pi - 1e-6)
        label = PlaneWave(K, theta, phi)
        d = 2.0 * math.pi / (96.0 * K)
        g = sample_grid(label, 32, 32, d, d)
        px = grid_mean(g, "px")
        py = grid_mean(g, "py")
        ex = K * math.sin(theta) * math.cos(phi)
        ey = K * math.sin(theta) * math.sin(phi)
        err = math.hypot(px - ex, py - ey)
        assert err <= 1e-3 * K * math.sin(theta)


def test_grid_mean_errors():
    g = sample_grid(BesselWave(K, 0.3, 1), 32, 32, 0.2, 0.2)
    with pytest.raises(RangeError):
        grid_mean(g, "vorticity")
    with pytest.raises(RangeError):
        grid_mean(g, "elliptic")  # f missing
    rng = np.random.default_rng(0)
    noisy = dataclasses.replace(
        g, values=rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    with pytest.raises(NumericalError):
        grid_mean(noisy, "lz")


@pytest.mark.parametrize("op", momenta.GRID_OPS)
def test_grid_mean_of_a_zero_interior_is_undefined(op):
    # only the outermost ring of samples is lit, so every operator's quadrature
    # region, one or two samples in from the border, holds zero norm
    g = sample_grid(BesselWave(K, 0.3, 1), 32, 32, 0.2, 0.2)
    values = g.values.copy()
    values[1:-1, 1:-1] = 0.0
    rim = dataclasses.replace(g, values=values)
    with pytest.raises(UndefinedMeanError, match="^field has zero norm on the grid quadrature "
                       f"region; mean of {op} is undefined$"):
        grid_mean(rim, op, f=0.7)


@pytest.mark.parametrize("op,f,bound", [("lz", None, 0.5), ("elliptic", 0.7, 0.8)])
def test_grid_mean_working_memory(op, f, bound):
    # the stencils run on slabs of rows, so the working set is a few slabs:
    # measured 0.33 (lz) and 0.56 (elliptic) of the field at 512^2, against
    # 3.0 and 4.0 for whole-grid gradients
    g = sample_grid(BesselWave(K, 0.3, 2), 512, 512, 0.05, 0.05)
    tracemalloc.start()
    try:
        grid_mean(g, op, f=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * g.values.nbytes


def whole_grid_mean(g, op, f):
    """grid_mean's quotient from whole-grid np.gradient stencils, in one sum."""
    v, x, y = g.values, g.x(), g.y()

    def lz(u):
        d_dy, d_dx = np.gradient(u, g.dy, g.dx)
        return -1j * (x[None, :] * d_dy - y[:, None] * d_dx)

    if op == "lz":
        applied = lz(v)
    elif op == "px":
        applied = -1j * np.gradient(v, g.dx, axis=1)
    elif op == "py":
        applied = -1j * np.gradient(v, g.dy, axis=0)
    else:
        applied = lz(lz(v)) - f * f * np.gradient(np.gradient(v, g.dx, axis=1), g.dx, axis=1)
    border = (slice(2, -2) if op == "elliptic" else slice(1, -1),) * 2
    return (np.vdot(v[border], applied[border]) / np.vdot(v[border], v[border])).real


@pytest.mark.parametrize("op", ["lz", "px", "py", "elliptic"])
def test_grid_mean_slab_edges(op):
    # heights that end a slab exactly, one row short of or past a slab with
    # its halo, and several slabs with a remainder; one grid is square, at
    # FieldGrid's 16x16 minimum, which leaves every operator at least 12
    # interior cells per direction, so grid_mean needs no size guard of its own
    halo = 2 if op == "elliptic" else 1
    slab = momenta._SLAB
    for nx, ny in ((16, 16), (21, slab + 2 * halo - 1), (21, slab + 2 * halo + 1),
                   (37, 3 * slab + 5)):
        g = sample_grid(BesselWave(K, 0.3, 2), nx, ny, 0.2, 0.15)
        ref = whole_grid_mean(g, op, 0.7)
        assert abs(grid_mean(g, op, f=0.7) - ref) <= 1e-13 * max(1.0, abs(ref)), (nx, ny)


# ------------------------------------------------------ elliptic invariant

def mathieu_grid(parity, n, q=1.0, spw=64.0, xi_span=0.97):
    # square sized so even the corners stay inside the supported radial
    # range: the largest xi on the boundary is arcsinh(r_corner / f)
    k, theta = K, math.pi / 6
    f = 2.0 * math.sqrt(q) / (k * math.sin(theta))
    label = MathieuWave(k, theta, n, parity, f)
    from wavemom.specfun.mathieu import radial_xi_max
    half = f * math.sinh(xi_span * radial_xi_max(label.q)) / math.sqrt(2.0)
    lam_t = 2.0 * math.pi / label.kt
    d = lam_t / spw
    npix = int(2.0 * half / d)
    return label, sample_grid(label, npix, npix, d, d)


def test_elliptic_invariant_position_independent():
    label, g = mathieu_grid("even", 2)
    q = label.q
    # pointwise eigenratio of the composed operator on well-lit samples,
    # stencils written out locally as an independent check
    v = g.values
    x, y = g.x(), g.y()
    dx, dy = g.dx, g.dy

    def lz(vals, xs, ys):
        vx = (vals[1:-1, 2:] - vals[1:-1, :-2]) / (2 * dx)
        vy = (vals[2:, 1:-1] - vals[:-2, 1:-1]) / (2 * dy)
        return -1j * (xs[1:-1][None, :] * vy - ys[1:-1][:, None] * vx)

    lz2 = lz(lz(v, x, y), x[1:-1], y[1:-1])
    d2x = (v[:, 4:] - 2.0 * v[:, 2:-2] + v[:, :-4]) / (4.0 * dx * dx)
    px2 = -d2x[2:-2, :]
    applied = lz2 + label.f ** 2 * px2
    core = v[2:-2, 2:-2]
    mask = np.abs(core) > 0.3 * np.abs(core).max()
    ratios = (applied[mask] / core[mask]).real
    centre = np.median(ratios)
    assert np.abs(ratios - centre).max() <= 1e-2 * abs(centre)

    eig = mathieu_eigen("even", 2, q)
    measured = grid_mean(g, "elliptic", f=label.f)
    expected = eig.char_value + 2.0 * q
    assert measured == pytest.approx(expected, rel=1e-2)
    # the measured constant singles out char + 2q among the candidates
    assert abs(measured - expected) < abs(measured - eig.char_value)
    assert abs(measured - expected) < abs(measured - (eig.char_value - 2.0 * q))


def test_elliptic_invariant_odd_wave():
    label, g = mathieu_grid("odd", 1)
    eig = mathieu_eigen("odd", 1, label.q)
    measured = grid_mean(g, "elliptic", f=label.f)
    assert measured == pytest.approx(eig.char_value + 2.0 * label.q, rel=1e-2)


# -------------------------------------------------------------- reports

# the wavemom functions each route calls, beyond those in ALLOWED_CALLS
ROUTE_CALLS = {
    "spectral": {"ring_spectrum_from_grid", "oam_spectrum", "_quarter", "_blocks", "_tables",
                 "_product", "_window_rows", "mean_charge", "ring_transverse_means"},
    "grid": {"grid_mean", "_lz", "_diff"},
    "paper": {"mathieu_eigen", "oam_mathieu_paper"},
}
# (caller, callee) pairs a route may make into another route's functions: the
# grid notes compare the invariant with the eigenvalue, they do not average it
ALLOWED_CALLS = {"grid": {("_grid_route", "_elliptic_notes"), ("_elliptic_notes", "mathieu_eigen")}}


def _route_calls(route, fieldgrid, **kwargs):
    """(caller, callee) names of the module-level wavemom functions that one route calls.

    Methods, properties and constructors belong to the objects the route holds
    (its own spectra, or the cone properties and grid axes that every route may
    read) and are not followed, nor are the ``check_*`` argument checks.
    """
    route_code = momenta.ROUTES[route].__code__
    stack = []   # the recorded name of each open frame, or None when not followed

    def followed(frame):
        code = frame.f_code
        if not frame.f_globals.get("__name__", "").startswith("wavemom"):
            return False
        bound = inspect.unwrap(frame.f_globals.get(code.co_name, None))
        return getattr(bound, "__code__", None) is code and not code.co_name.startswith("check_")

    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            inside = frame.f_code is route_code or (stack and stack[-1] is not None)
            name = frame.f_code.co_name if inside and followed(frame) else None
            if name is not None and frame.f_code is not route_code:
                calls.add((stack[-1], name))
            stack.append(name)
        elif event == "return":
            stack.pop()

    sys.setprofile(profile)
    try:
        report(fieldgrid, methods=(route,), **kwargs)
    finally:
        sys.setprofile(None)
    return calls


def test_routes_are_independent():
    """Each route of report() calls its own wavemom functions and no other route's.

    The call sets are recorded with sys.setprofile on a 64^2 Mathieu grid and
    pinned per route, so a later change that shares a helper between routes
    has to edit ROUTE_CALLS or ALLOWED_CALLS.  ``gen`` shares ``_blocks`` (with
    ``_quarter``, ``_tables`` and ``_product``) with the spectral route, and no
    other route uses them.  That shared kernel keeps its own oracles instead: Bessel
    synthesis is checked against the closed form ``_oracles.bessel_field`` and
    ring extraction against the direct sum ``_oracles.ring_direct``, so a defect
    common to both directions cannot cancel.
    """
    k, theta = K, math.pi / 6
    f = 2.0 / (k * math.sin(theta))   # q = 1
    g = sample_grid(MathieuWave(k, theta, 2, "even", f), 64, 64, 0.02, 0.02)
    request = dict(window="hann", f=f, parity="even", n=2)
    report(g, methods=tuple(momenta.ROUTES), **request)   # warms the eigenpair cache
    for route, expected in ROUTE_CALLS.items():
        calls = _route_calls(route, g, **request)
        allowed = ALLOWED_CALLS.get(route, set())
        assert allowed <= calls, route
        assert {callee for caller, callee in calls - allowed} == expected, route
    for a, b in itertools.combinations(ROUTE_CALLS.values(), 2):
        assert not a & b


def test_report_entries_and_tags():
    label, g = mathieu_grid("even", 2, spw=24.0)
    reports = report(g, methods=("spectral", "grid", "paper"),
                     window="hann", f=label.f, parity="even", n=2)
    assert [r.method for r in reports] == ["spectral", "grid-oracle", "paper-formula"]
    spectral, grid, paper = reports
    assert spectral.mean_pz == pytest.approx(math.cos(label.theta))
    assert grid.elliptic_invariant is not None
    assert "char+2q" in grid.notes
    assert paper.mean_lz == pytest.approx(oam_mathieu_paper("even", 2, label.q))
    assert paper.mean_px == 0.0 and paper.mean_py == 0.0
    for r in reports:
        d = dataclasses.asdict(r)
        assert set(d) == {"mean_lz", "mean_px", "mean_py", "mean_pz",
                          "elliptic_invariant", "method", "norm_used",
                          "window", "notes"}


def test_ring_transverse_means_analytic_profiles():
    from wavemom.spectral import analytic_ring
    label = PlaneWave(K, 0.5, 1.1)
    px, py = ring_transverse_means(analytic_ring(label))
    node = 2.0 * math.pi / 1024  # delta sits on the nearest azimuth node
    assert px == pytest.approx(math.sin(0.5) * math.cos(1.1), abs=node)
    assert py == pytest.approx(math.sin(0.5) * math.sin(1.1), abs=node)
    px, py = ring_transverse_means(analytic_ring(BesselWave(K, 0.5, 3)))
    assert abs(px) < 1e-12 and abs(py) < 1e-12


def test_report_spectral_transverse_means():
    # finite-aperture smearing skews the ring power a little; the windowed
    # grid estimate should still land within a few percent of k_t direction
    label = PlaneWave(K, 0.5, 1.1)
    d = 2.0 * math.pi / (24.0 * K)
    g = sample_grid(label, 192, 192, d, d)
    (entry,) = report(g, methods=("spectral",), window="hann")
    ex = math.sin(0.5) * math.cos(1.1)
    ey = math.sin(0.5) * math.sin(1.1)
    assert math.hypot(entry.mean_px - ex, entry.mean_py - ey) <= 0.05 * math.sin(0.5)
    assert abs(entry.mean_lz) < 1e-6


def test_report_requires_paper_inputs():
    g = sample_grid(BesselWave(K, 0.3, 1), 32, 32, 0.2, 0.2)
    with pytest.raises(UsageError):
        report(g, methods=("paper",))


@pytest.mark.parametrize("request_kwargs,message", [
    ({"methods": ()}, "--methods takes a comma list from ['grid', 'paper', 'spectral']"),
    ({"methods": ("spectral", "psychic")},
     "--methods takes a comma list from ['grid', 'paper', 'spectral']"),
    ({"methods": ("spectral",), "parity": "odd", "n": 3},
     "--parity and --n apply only with --f, --parity and --n together"),
    ({"methods": ("grid",), "f": 0.5, "n": 3},
     "--parity and --n apply only with --f, --parity and --n together"),
    ({"methods": ("grid", "spectral", "grid")}, "--methods names grid more than once"),
])
def test_report_refuses_what_the_cli_refuses(request_kwargs, message):
    g = sample_grid(BesselWave(K, 0.3, 1), 32, 32, 0.2, 0.2)
    with pytest.raises(UsageError) as exc:
        report(g, **request_kwargs)
    assert str(exc.value) == message
