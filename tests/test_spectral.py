import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from wavemom import spectral
from wavemom.errors import RangeError
from wavemom.spectral import (
    Cone,
    OamSpectrum,
    RingSpectrum,
    analytic_ring,
    oam_spectrum,
    parseval_norm,
    parseval_residual,
    ring_azimuths,
    ring_spectrum_from_grid,
)
from wavemom.specfun.mathieu import mathieu_eigen, mathieu_norm_constant
from wavemom.waves import BesselWave, FieldGrid, MathieuWave, PlaneWave, sample_grid

from _oracles import bessel_coeffs_of_mathieu, plancherel_overlap, ring_direct

K = 2.0 * math.pi
M = 1024
PHI = ring_azimuths(M)


def bare_ring(samples, k=K, theta=0.3):
    return RingSpectrum(k, theta, samples)


def mathieu_label(parity, n, q=1.0, k=K, theta=math.pi / 6):
    f = 2.0 * math.sqrt(q) / (k * math.sin(theta))
    return MathieuWave(k, theta, n, parity, f)


# ----------------------------------------------------- grid extraction

def test_zero_field_gives_zero_ring():
    w = BesselWave(K, 0.3, 0)
    g = sample_grid(w, 32, 32, 0.05, 0.05)
    g.values[:] = 0.0
    ring = ring_spectrum_from_grid(g, 256)
    assert np.all(ring.samples == 0.0)


def test_plane_wave_ring_peaks_at_nearest_azimuth():
    phi0 = math.pi / 4
    w = PlaneWave(K, 0.4, phi0)
    d = 2.0 * math.pi / (24.0 * K)
    g = sample_grid(w, 96, 96, d, d)
    ring = ring_spectrum_from_grid(g, M)
    peak = PHI[int(np.argmax(np.abs(ring.samples)))]
    assert abs(peak - phi0) <= 2.0 * math.pi / M


def test_plane_wave_ring_is_not_mirrored():
    # an x/y swap or a flipped sign would move the peak to pi/2 - phi0, -phi0,
    # pi - phi0 or phi0 - pi
    phi0, m = 0.7, 256
    w = PlaneWave(K, 0.4, phi0)
    g = sample_grid(w, 64, 48, 0.3, 0.25, x0=-3.7, y0=2.1, z=0.4)
    ring = ring_spectrum_from_grid(g, m)
    nearest = int(np.argmin(np.abs(ring_azimuths(m) - phi0)))
    assert int(np.argmax(np.abs(ring.samples))) == nearest


@pytest.mark.parametrize("m", [256, 1024, 4096])
@pytest.mark.parametrize("window", ["none", "hann"])
def test_ring_matches_direct_exponential_sum(m, window):
    # the largest phase k_t (|x| + |y|) stays below ~200 rad: beyond that the
    # direct formula's own phase rounding approaches 1e-13 of the largest sample
    rng = np.random.default_rng(m + len(window))
    for nx, ny in ((16, 16), (17, 40), (48, 33), (45, 22)):
        meta, z_plane = Cone(K, rng.uniform(0.1, 3.0)), rng.uniform(-2.0, 2.0)
        dx, dy = rng.uniform(0.2, 0.7, size=2) * math.pi / meta.kt
        x0, y0 = rng.uniform(-1.0, 0.2, size=2) * (nx * dx, ny * dy)
        values = rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx))
        g = FieldGrid(nx, ny, dx, dy, x0, y0, values, meta, z_plane)
        direct = ring_direct(g, m, window)
        ring = ring_spectrum_from_grid(g, m, window)
        assert np.abs(ring.samples - direct).max() <= 1e-13 * np.abs(direct).max()


@pytest.mark.parametrize("window", ["none", "hann"])
def test_ring_sum_over_several_tiles_matches_direct_sum(monkeypatch, window):
    # tiles of 20 wavenumbers cut the 65 of M = 256 into four, the last one short,
    # and 300 rows end in a short row block
    monkeypatch.setattr(spectral, "_TILE", 2 * 48 * 20)
    x_tables = []
    tables = spectral._tables

    def counted(coords, kappa, buf):
        if len(coords) == 48:
            x_tables.append(len(kappa))
        return tables(coords, kappa, buf)
    monkeypatch.setattr(spectral, "_tables", counted)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((300, 48)) + 1j * rng.standard_normal((300, 48))
    g = FieldGrid(48, 300, 0.5, 0.5, None, None, values, Cone(K, 0.3), 0.7)
    direct = ring_direct(g, 256, window)
    ring = ring_spectrum_from_grid(g, 256, window)
    assert x_tables == [20, 20, 20, 5]
    assert np.abs(ring.samples - direct).max() <= 1e-13 * np.abs(direct).max()


def test_ring_working_memory_is_tiled():
    # M = 8192 on a 1024 x 16 strip: a table of x for all 2049 wavenumbers would
    # alone take 33.6 MB; every tile's table of 512 is built in one 8.4 MB buffer,
    # so the peak is about that one table (10.3 MB measured; was 21.9 MB while two
    # tiles' tables coexisted at each tile change)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((16, 1024)) + 1j * rng.standard_normal((16, 1024))
    g = FieldGrid(1024, 16, 0.05, 0.05, None, None, values, Cone(K, 0.3))
    tracemalloc.start()
    try:
        ring_spectrum_from_grid(g, 8192, "hann")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 2 * 512 * 8 + 2.5 * 2 ** 20


@pytest.mark.parametrize("window", ["none", "hann"])
def test_ring_peak_is_about_one_x_table(window):
    # the benchmark's ring: 1024^2 at M = 1024 is one tile, whose x table of all 257
    # wavenumbers takes 4.2 MB; the row blocks, their window and the windowed real and
    # imaginary rows live in buffers made once, 5.5 / 5.8 MB peak in all measured
    # (none / hann; was 8.0 / 10.1 MB with a complex block and its concatenation per block)
    g = sample_grid(BesselWave(K, 0.3, 3), 1024, 1024, 0.0625, 0.0625)
    tracemalloc.start()
    try:
        ring_spectrum_from_grid(g, 1024, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 2 * 257 * 8 + 2 * 2 ** 20


def test_bessel_ring_profile_angular_structure():
    n, theta = 2, 0.3
    kt = K * math.sin(theta)
    lam_t = 2.0 * math.pi / kt
    d = lam_t / 8.0
    npix = int(round(22.0 * lam_t / d))
    g = sample_grid(BesselWave(K, theta, n), npix, npix, d, d)
    ring = ring_spectrum_from_grid(g, M, window="hann")
    mags = np.abs(ring.samples)
    assert mags.max() - mags.min() <= 0.02 * mags.mean()
    rotated = ring.samples * np.exp(-1j * n * PHI)
    ref = cmath.phase(rotated.sum())
    spread = np.angle(rotated * cmath.exp(-1j * ref))
    assert np.abs(spread).max() < 0.05


def test_nyquist_violation():
    w = PlaneWave(K, math.pi / 2, 0.0)  # k_t = K
    d = math.pi / K  # Nyquist exactly at k_t
    g = sample_grid(w, 32, 32, d, d)
    with pytest.raises(RangeError, match="Nyquist"):
        ring_spectrum_from_grid(g, 256)


def test_ring_requires_metadata_and_valid_m():
    w = PlaneWave(K, 0.4, 0.0)
    g = sample_grid(w, 32, 32, 0.05, 0.05)
    with pytest.raises(RangeError):
        ring_spectrum_from_grid(g, 100)  # not a power of two
    with pytest.raises(TypeError):  # every field carries a cone
        Cone(k=None, theta=None)
    with pytest.raises(TypeError):
        FieldGrid(16, 16, 0.1, 0.1, 0.0, 0.0, np.zeros((16, 16)), Cone(None, None))


def test_window_flag_changes_samples_default_off():
    w = BesselWave(K, 0.3, 1)
    g = sample_grid(w, 48, 48, 0.1, 0.1)
    plain = ring_spectrum_from_grid(g)
    windowed = ring_spectrum_from_grid(g, window="hann")
    assert plain.samples.tobytes() == ring_spectrum_from_grid(g, window="none").samples.tobytes()
    assert not np.allclose(plain.samples, windowed.samples)
    with pytest.raises(RangeError):
        ring_spectrum_from_grid(g, window="hamming")


def full_grid_hann(g):
    """The Hann window over the whole grid in one pass, the ring sum's operations on every row."""
    x, y = g.x(), g.y()
    cx = 0.5 * (x[0] + x[-1])
    cy = 0.5 * (y[0] + y[-1])
    radius = min(x[-1] - cx, y[-1] - cy)
    r = np.hypot(*np.meshgrid(x - cx, y - cy))
    return np.where(r <= radius, 0.5 * (1.0 + np.cos(math.pi * np.minimum(r / radius, 1.0))), 0.0)


def test_window_row_blocks_equal_the_full_grid_window():
    # 300 rows: nine full row blocks of the ring sum and a short one
    g = sample_grid(BesselWave(K, 0.3, 3), 200, 300, 0.05, 0.05)
    pre = dataclasses.replace(g, values=g.values * full_grid_hann(g))
    assert (ring_spectrum_from_grid(g, 512, "hann").samples.tobytes()
            == ring_spectrum_from_grid(pre, 512).samples.tobytes())


def test_window_working_memory():
    # the window is built one row block at a time in one buffer, so no temporary
    # spans the grid: measured 0.128x the field's nbytes here (0.34x with a window
    # and a windowed block made per block of 128 rows, 1.56x with a full-grid window)
    g = sample_grid(BesselWave(K, 0.3, 3), 1024, 1024, 0.05, 0.05)
    tracemalloc.start()
    try:
        ring_spectrum_from_grid(g, 256, "hann")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.15 * g.values.nbytes


# -------------------------------------------------- charge projection

def test_pure_charge_concentrates():
    ring = bare_ring(np.exp(1j * 3.0 * PHI))
    spec = oam_spectrum(ring, -10, 10)
    coeffs = dict(zip(spec.charges(), spec.coeffs))
    for n, c in coeffs.items():
        if n != 3:
            assert abs(c) < 1e-12
    expected = math.sqrt(math.sin(ring.theta)) * math.sqrt(2.0 * math.pi)
    assert coeffs[3] == pytest.approx(expected, rel=1e-12)


def test_cosine_profile_decomposes_into_coefficient_pairs():
    q = 1.0
    eig = mathieu_eigen("even", 2, q)
    from wavemom.specfun.mathieu import mathieu_ce
    ring = bare_ring(mathieu_ce(2, q, PHI).astype(complex))
    spec = oam_spectrum(ring, -12, 12)
    pref = math.sqrt(math.sin(ring.theta)) / math.sqrt(2.0 * math.pi)
    for j, a in zip(eig.harmonics, eig.coeffs):
        j = int(j)
        if j > 12 or abs(a) < 1e-13:
            continue
        expect = pref * math.pi * a * (2.0 if j == 0 else 1.0)
        assert spec.coeff(j) == pytest.approx(expect, rel=1e-10, abs=1e-12)
        assert spec.coeff(-j) == pytest.approx(spec.coeff(j), rel=1e-12, abs=1e-12)
    # odd charges carry nothing
    assert abs(spec.coeff(1)) < 1e-13 and abs(spec.coeff(-3)) < 1e-13


def test_spectra_are_frozen_cones():
    assert RingSpectrum.__bases__ == OamSpectrum.__bases__ == (Cone,)
    ring = bare_ring(np.ones(256))
    assert (ring.kt, ring.kz) == (K * math.sin(0.3), K * math.cos(0.3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ring.samples = np.zeros(256)


def test_spectra_and_grids_compare_by_identity():
    # a generated == would compare their arrays (an ambiguous truth value), and
    # Cone's would compare (k, theta) alone, so two different samplings would be equal
    grid = sample_grid(BesselWave(K, 0.3, 2), 16, 16, 0.2, 0.2)
    for a, b in ((bare_ring(np.ones(256)), bare_ring(np.zeros(256))),
                 (OamSpectrum(K, 0.3, 256, 0, 1, [1, 2]), OamSpectrum(K, 0.3, 256, 0, 1, [1, 3])),
                 (grid, dataclasses.replace(grid))):
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and {a, b} == {b, a}


def test_any_array_layout_is_accepted():
    # strided and Fortran-order arrays are copied to C order; numpy refused them
    # in the finiteness check's float view before
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    for values in (wide[:, ::2], np.asfortranarray(wide[:, :16])):
        grid = FieldGrid(16, 16, 0.1, 0.1, 0.0, 0.0, values, Cone(K, 0.3))
        assert grid.values.tobytes() == np.ascontiguousarray(values).tobytes()
    samples = wide.reshape(-1)[::2]
    ring = bare_ring(samples)
    assert ring.samples.flags.c_contiguous
    assert ring.samples.tobytes() == np.ascontiguousarray(samples).tobytes()


def test_ring_tables_are_freed_before_the_ring_is_recombined():
    # M = 65536 on a 512 x 16 strip: each tile's x table takes 8 MiB, and the
    # recombination holds the (M/4 + 1, 4) complex sums per quadrant, their phased
    # copy and the M gathered samples, 1 MiB each; with the last tile's tables freed
    # first the peak is 11.1 MiB (15.1 MiB with an (M, 2, 2) complex sign map)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((16, 512)) + 1j * rng.standard_normal((16, 512))
    g = FieldGrid(512, 16, 0.05, 0.05, None, None, values, Cone(K, 0.3))
    tracemalloc.start()
    try:
        ring_spectrum_from_grid(g, 65536, "hann")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 2 * 1024 * 8 + 3.5 * 2 ** 20


@pytest.mark.parametrize("m", [2 ** e for e in range(8, 17)])
def test_each_ring_azimuth_has_its_own_slot(m):
    # the slots 4 l + quadrant are one to one, so synthesis scatters and adds nothing
    kappa, slots = spectral._quarter(K, m)
    assert len(np.unique(slots)) == m
    assert 0 <= slots.min() and slots.max() < 4 * len(kappa) == 4 * (m // 4 + 1)


def test_synthesis_peak_at_the_largest_ring():
    # M = 65536 on a 512 x 16 strip: a tile of 341 wavenumbers keeps a 2.7 MiB x table
    # and a 5.3 MiB complex x half of the kernel, which every tile writes into one
    # buffer; 10.1 MiB measured (15.2 MiB when each tile's x half was a new array made
    # while the last one was still held)
    ring = analytic_ring(BesselWave(K, 0.3, 3), 65536)
    x, y = np.linspace(-30.0, 30.0, 512), np.linspace(-30.0, 30.0, 16)
    tracemalloc.start()
    try:
        spectral.field_from_ring(ring, x, y, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 2 * 341 * 8 + 2 * 341 * 512 * 16 + 2.5 * 2 ** 20


def test_ring_sizes_and_charge_windows_are_integers():
    # a float is refused even when it is whole; a numpy integer is taken as a Python int
    ring = bare_ring(np.ones(256, complex))
    size = "ring sample count must be a power of two in [256, 65536], got 1024.0"
    for refuse, message in [
        (lambda: spectral.check_ring_size(1024.0), size),
        (lambda: analytic_ring(BesselWave(K, 0.3, 1), 1024.0), size),
        (lambda: oam_spectrum(ring, -3.0, 3.0), "charge range [-3.0, 3.0] must be integers"),
        (lambda: spectral.check_charge_window(-3, 3.5, 256), "charge range [-3, 3.5] must be integers"),
        (lambda: oam_spectrum(ring, -3, 3).coeff(2.0), "charge 2.0 must be an integer"),
        (lambda: oam_spectrum(ring, -3, 3).coeff(1.5), "charge 1.5 must be an integer"),
    ]:
        with pytest.raises(RangeError) as exc:
            refuse()
        assert str(exc.value) == message
    spec = oam_spectrum(ring, np.int64(-3), np.int32(3))
    assert (type(spec.n_min), type(spec.n_max)) == (int, int)
    assert spec.coeffs.tobytes() == oam_spectrum(ring, -3, 3).coeffs.tobytes()
    label = BesselWave(K, 0.3, 1)
    assert analytic_ring(label, np.int64(256)).samples.tobytes() == analytic_ring(label, 256).samples.tobytes()


@pytest.mark.parametrize("k,theta,message", [
    (0.0, 0.3, "wavenumber k must be positive and finite, got 0.0"),
    (math.nan, 0.3, "wavenumber k must be positive and finite, got nan"),
    (math.inf, 0.3, "wavenumber k must be positive and finite, got inf"),
    (2.0, 4.0, "cone angle theta must lie in (0, pi), got 4.0"),
    (2.0, 0.0, "cone angle theta must lie in (0, pi), got 0.0"),
    (2.0, math.nan, "cone angle theta must lie in (0, pi), got nan"),
])
def test_off_cone_spectra_are_refused(k, theta, message):
    for build in (lambda: RingSpectrum(k, theta, np.ones(256)),
                  lambda: OamSpectrum(k, theta, 256, -1, 1, np.ones(3))):
        with pytest.raises(RangeError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: bare_ring(np.full(256, complex(1.0, math.nan))), "ring samples must be finite"),
    (lambda: bare_ring(np.full(256, math.inf)), "ring samples must be finite"),
    (lambda: OamSpectrum(K, 0.3, 256, -1, 1, np.ones(2)),
     "coefficient count does not match the charge range"),
    # a (256, 2) array would pass the ring-size check on its length of 256
    (lambda: bare_ring(np.ones((256, 2))), "ring samples must be a 1-D array, got shape (256, 2)"),
    (lambda: OamSpectrum(K, 0.3, 256, 0, 1, np.ones((2, 2))),
     "charge coefficients must be a 1-D array, got shape (2, 2)"),
    (lambda: OamSpectrum(K, 0.3, 256, 0, 0, 1.0), "charge coefficients must be a 1-D array, got shape ()"),
    (lambda: OamSpectrum(K, 0.3, 256, 2.5, 4.5, np.ones(3)), "charge range [2.5, 4.5] must be integers"),
    (lambda: OamSpectrum(K, 0.3, 256, 0, -1, np.ones(0)), "empty charge range [0, -1]"),
    (lambda: OamSpectrum(K, 0.3, 100, 0, 1, np.ones(2)),
     "ring sample count must be a power of two in [256, 65536], got 100"),
    (lambda: OamSpectrum(K, 0.3, 256.0, 0, 1, np.ones(2)),
     "ring sample count must be a power of two in [256, 65536], got 256.0"),
], ids=["nan", "inf", "count", "ring-2d", "oam-2d", "oam-0d", "oam-float", "oam-empty", "oam-ring",
        "oam-ring-float"])
def test_spectrum_contents_are_checked(build, message):
    with pytest.raises(RangeError) as exc:
        build()
    assert str(exc.value) == message


def test_zero_ring_zero_norm():
    spec = oam_spectrum(bare_ring(np.zeros(M, complex)), -5, 5)
    assert spec.norm == 0.0
    assert np.all(spec.coeffs == 0.0)


def test_charge_range_errors():
    ring = bare_ring(np.ones(256, complex))
    with pytest.raises(RangeError):
        oam_spectrum(ring, -200, 200)
    with pytest.raises(RangeError):
        oam_spectrum(ring, 5, 4)
    spec = oam_spectrum(ring, -3, 3)
    with pytest.raises(RangeError):
        spec.coeff(4)


@pytest.mark.parametrize("m", [256, 1024])
def test_charge_window_is_a_band_of_the_ring(m):
    # the M-point transform reads charge n and n + M as one, so a window lies in
    # -M/2 <= n < M/2, whoever builds the spectrum
    rng = np.random.default_rng(m)
    ring = bare_ring(rng.standard_normal(m) + 1j * rng.standard_normal(m))
    half = m // 2
    for lo, hi in [(-half, -half), (half - 1, half - 1), (-half, half - 1)]:
        spec = oam_spectrum(ring, lo, hi)
        assert (spec.m, spec.n_min, spec.n_max) == (m, lo, hi)
        assert OamSpectrum(K, 0.3, m, lo, hi, spec.coeffs).m == m
    # (m - 4, m + 6) would read the charges -4 to 6 again
    for lo, hi in [(-half - 1, -half - 1), (half, half), (-half - 1, 0), (0, half),
                   (m - 4, m + 6)]:
        message = f"charge range [{lo}, {hi}] leaves the band [{-half}, {half - 1}] of {m} ring samples"
        for build in (lambda: oam_spectrum(ring, lo, hi),
                      lambda: OamSpectrum(K, 0.3, m, lo, hi, np.ones(hi - lo + 1))):
            with pytest.raises(RangeError) as exc:
                build()
            assert str(exc.value) == message


# ----------------------------------------------------- analytic forms

def test_ring_extraction_is_reproducible():
    g = sample_grid(BesselWave(K, 0.3, 2), 64, 48, 0.11, 0.13, z=0.2)
    a = ring_spectrum_from_grid(g, 512, "hann")
    b = ring_spectrum_from_grid(g, 512, "hann")
    assert a.samples.tobytes() == b.samples.tobytes()


def test_plane_delta_node_wraps_at_pi():
    # azimuths just below +pi round onto the -pi node
    w = PlaneWave(K, 0.5, math.pi - 1e-9)
    ring = analytic_ring(w, M)
    assert int(np.flatnonzero(ring.samples)[0]) == 0  # phi_0 = -pi


def test_plane_profile_is_regularised_delta():
    w = PlaneWave(K, 0.5, 0.7)
    ring = analytic_ring(w, M)
    nz = np.flatnonzero(ring.samples)
    assert len(nz) == 1
    node = PHI[nz[0]]
    assert abs(node - 0.7) <= math.pi / M
    # unit mass under the (2 pi / M) measure, times the cone prefactor
    mass = 2.0 * math.pi / M * ring.samples[nz[0]]
    assert mass == pytest.approx(1.0 / math.sqrt(math.sin(0.5)), rel=1e-12)
    spec = oam_spectrum(ring, -40, 40)
    mags = np.abs(spec.coeffs)
    assert mags.std() < 1e-12 * mags.mean()  # all charges weighted equally


def test_bessel_profile_structure():
    flat = analytic_ring(BesselWave(K, 0.5, 0), M)
    assert np.allclose(flat.samples, flat.samples[0])
    one = analytic_ring(BesselWave(K, 0.5, 1), M)
    at0 = one.samples[np.argmin(np.abs(PHI))]
    atpi = one.samples[0]  # phi_0 = -pi
    assert atpi == pytest.approx(-at0, rel=1e-9)


@pytest.mark.parametrize("n", [-40, -7, 0, 3, 40])
def test_bessel_profile_round_trip(n):
    ring = analytic_ring(BesselWave(K, 0.4, n), M)
    spec = oam_spectrum(ring, -40, 40)
    mags = np.abs(spec.coeffs)
    hit = spec.coeff(n)
    assert abs(hit) == pytest.approx(1.0, rel=1e-12)  # unit amplitude at n
    others = mags[spec.charges() != n]
    assert np.all(others < 1e-12)


def test_mathieu_profile_values():
    from wavemom.specfun.mathieu import mathieu_se
    label = mathieu_label("odd", 2, q=1.0)
    ring = analytic_ring(label, M)
    expected = mathieu_se(2, label.q, PHI) / math.sqrt(math.pi * math.sin(label.theta))
    assert_allclose(ring.samples, expected, atol=1e-14)


# ------------------------------------------------- overlaps and norms

def test_overlap_identities():
    a = bare_ring(np.exp(2j * PHI))
    b = bare_ring(np.exp(3j * PHI))
    assert plancherel_overlap(a, a) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert abs(plancherel_overlap(a, b)) < 1e-12
    mixed = bare_ring(np.exp(1j * PHI) + 0.5j * np.exp(-4j * PHI))
    assert plancherel_overlap(a, mixed) == pytest.approx(
        np.conj(plancherel_overlap(mixed, a)), rel=1e-12)


def test_overlap_with_cosine_series():
    q = 1.0
    from wavemom.specfun.mathieu import mathieu_ce
    eig = mathieu_eigen("even", 2, q)
    a = bare_ring(mathieu_ce(2, q, PHI).astype(complex))
    b = bare_ring(np.exp(2j * PHI))
    a2 = eig.coeffs[1]  # harmonics 0, 2, ...
    assert plancherel_overlap(a, b) == pytest.approx(math.pi * a2, rel=1e-10)


def test_overlap_refuses_mixed_cones():
    a = bare_ring(np.ones(M, complex), theta=0.3)
    b = bare_ring(np.ones(M, complex), theta=0.4)
    with pytest.raises(RangeError, match="cone"):
        plancherel_overlap(a, b)
    c = bare_ring(np.ones(M, complex), k=2.0 * K, theta=0.3)
    with pytest.raises(RangeError, match="cone"):
        plancherel_overlap(a, c)


def test_parseval_identity_random_profiles():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        theta = rng.uniform(0.05, math.pi - 0.05)
        samples = rng.normal(size=M) + 1j * rng.normal(size=M)
        ring = bare_ring(samples, theta=theta)
        spec = oam_spectrum(ring, -M // 2, M // 2 - 1)  # full alias window
        assert parseval_residual(ring, spec) < 1e-12
        weighted = math.sin(theta) * parseval_norm(ring)
        assert spec.norm == pytest.approx(weighted, rel=1e-12)


def test_linearity_of_spectra():
    rng = np.random.default_rng(5)
    s1 = rng.normal(size=M) + 1j * rng.normal(size=M)
    s2 = rng.normal(size=M) + 1j * rng.normal(size=M)
    alpha, beta = 1.3 - 0.2j, -0.7 + 2.1j
    combo = oam_spectrum(bare_ring(alpha * s1 + beta * s2), -20, 20)
    parts = (alpha * oam_spectrum(bare_ring(s1), -20, 20).coeffs
             + beta * oam_spectrum(bare_ring(s2), -20, 20).coeffs)
    assert_allclose(combo.coeffs, parts, rtol=1e-12, atol=1e-12)


def test_linearity_at_field_level():
    import dataclasses
    theta = 0.3
    g1 = sample_grid(BesselWave(K, theta, 1), 48, 48, 0.2, 0.2)
    g2 = sample_grid(BesselWave(K, theta, -2), 48, 48, 0.2, 0.2)
    alpha, beta = 0.4 + 1.1j, -2.0 + 0.3j
    combo = dataclasses.replace(g1, values=alpha * g1.values + beta * g2.values)
    lhs = ring_spectrum_from_grid(combo, 256).samples
    rhs = (alpha * ring_spectrum_from_grid(g1, 256).samples
           + beta * ring_spectrum_from_grid(g2, 256).samples)
    scale = np.abs(rhs).max()
    assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


# ------------------------------------- elliptic-wave charge coefficients

def test_one_sided_coefficients_as_printed():
    q = 1.0
    eig = mathieu_eigen("even", 2, q)
    one, _ = bessel_coeffs_of_mathieu(eig, K, 0.3)
    assert one.n_min == 0
    for j, a in zip(eig.harmonics, eig.coeffs):
        assert one.coeff(int(j)) == pytest.approx(a / math.sqrt(2.0), rel=1e-12)
    assert one.coeff(1) == 0.0  # wrong-parity slots stay empty


def test_two_sided_symmetry_and_norm():
    q = 1.0
    even = mathieu_eigen("even", 2, q)
    _, two = bessel_coeffs_of_mathieu(even, K, 0.3)
    assert two.norm == pytest.approx(1.0, abs=1e-12)
    for j in (2, 4, 6):
        assert two.coeff(-j) == pytest.approx(two.coeff(j), rel=1e-12)
    odd = mathieu_eigen("odd", 3, q)
    _, two_o = bessel_coeffs_of_mathieu(odd, K, 0.3)
    assert two_o.norm == pytest.approx(1.0, abs=1e-12)
    for j in (1, 3, 5):
        assert two_o.coeff(-j) == pytest.approx(-two_o.coeff(j), rel=1e-12)
        assert two_o.coeff(j).real == pytest.approx(0.0, abs=1e-15)


def test_q_to_zero_single_coefficient():
    eig = mathieu_eigen("even", 0, 1e-14)
    one, two = bessel_coeffs_of_mathieu(eig, K, 0.3)
    assert abs(two.coeff(0)) == pytest.approx(1.0, abs=1e-7)
    assert one.coeff(0) == pytest.approx(1.0 / 2.0, abs=1e-7)  # 2^{-1/2} A_0


@pytest.mark.parametrize("parity,n", [("even", 0), ("even", 2), ("even", 3),
                                      ("odd", 1), ("odd", 2), ("odd", 5)])
def test_two_sided_matches_charge_projection(parity, n):
    # the numerical Plancherel check: projecting the analytic ring profile
    # onto charges reproduces the two-sided coefficient table
    label = mathieu_label(parity, n, q=1.0)
    eig = mathieu_eigen(parity, n, label.q)
    _, two = bessel_coeffs_of_mathieu(eig, label.k, label.theta)
    spec = oam_spectrum(analytic_ring(label, M), two.n_min, two.n_max)
    assert_allclose(spec.coeffs, two.coeffs, atol=1e-8, rtol=0)


@pytest.mark.parametrize("parity,n", [("even", 0), ("even", 2), ("even", 1),
                                      ("odd", 1), ("odd", 2)])
def test_wave_equals_charge_superposition(parity, n):
    # pointwise identity: the elliptic wave is the charge-basis superposition
    # with the two-sided coefficients, scaled by (-i)^(n mod 2) c_n^2 / sqrt(2)
    label = mathieu_label(parity, n, q=1.0)
    q, kt = label.q, label.kt
    eig = mathieu_eigen(parity, n, q)
    cn = mathieu_norm_constant(parity, n, q)
    _, two = bessel_coeffs_of_mathieu(eig, label.k, label.theta)
    scale = (math.sqrt(math.sin(label.theta)) * (-1j) ** (n % 2)
             * cn * cn / math.sqrt(2.0))
    rng = np.random.default_rng(11)
    for _ in range(4):
        r = rng.uniform(0.3, 2.0) * label.f
        ph = rng.uniform(-math.pi, math.pi)
        x, y = r * math.cos(ph), r * math.sin(ph)
        acc = 0.0 + 0.0j
        for charge, c in zip(two.charges(), two.coeffs):
            if abs(c) < 1e-14:
                continue
            acc += (c * (1j ** (int(charge) % 4)) * special.jv(int(charge), kt * r)
                    * cmath.exp(1j * charge * ph))
        lhs = label.sample([x], [y], 0.0)[0, 0]
        assert lhs == pytest.approx(scale * acc, rel=2e-8, abs=1e-10)


# ----------------------------------------------------- grid pipelines

def test_bessel_grid_charge_concentration():
    n, theta = 2, 0.3
    kt = K * math.sin(theta)
    lam_t = 2.0 * math.pi / kt
    d = lam_t / 8.0
    npix = int(round(22.0 * lam_t / d))
    g = sample_grid(BesselWave(K, theta, n), npix, npix, d, d)
    ring = ring_spectrum_from_grid(g, M, window="hann")
    spec = oam_spectrum(ring, -40, 40)
    power = np.abs(spec.coeffs) ** 2
    share = power[spec.charges() == n][0] / power.sum()
    assert share > 0.99
