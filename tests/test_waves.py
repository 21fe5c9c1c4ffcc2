import cmath
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavemom import spectral, waves
from wavemom.errors import DomainError, RangeError
from wavemom.fieldio import read_field, write_field
from wavemom.momenta import grid_mean, report
from wavemom.specfun.mathieu import (
    MathieuClass,
    mathieu_ce,
    mathieu_ce_radial,
    mathieu_eigen,
    mathieu_norm_constant,
    mathieu_se,
    mathieu_se_radial,
    radial_xi_max,
)
from wavemom.waves import (
    BesselWave,
    FieldGrid,
    MathieuWave,
    PlaneWave,
    elliptic_coords,
    sample_grid,
)

from _oracles import bessel_field, bessel_series

# first maximum of J_1, located by golden-section search on the series oracle
J1_FIRST_MAX = 1.8411837813406593


# -------------------------------------------------------------- plane

def _at(wave, x, y, z):
    """The field of any family at one point, from its one-sample grid."""
    return wave.sample(np.array([x]), np.array([y]), z)[0, 0]


def test_plane_wave_values():
    w = PlaneWave(1.0, math.pi / 2, 0.0)
    assert _at(w, 0.0, 0.0, 0.0) == pytest.approx(1.0 + 0.0j)
    assert _at(w, math.pi, 0.0, 0.0) == pytest.approx(-1.0 + 0.0j, abs=1e-12)


@settings(max_examples=30)
@given(st.floats(0.05, math.pi - 0.05), st.floats(-math.pi, math.pi - 1e-9),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_plane_wave_modulus(theta, phi, x, y, z):
    w = PlaneWave(2.0, theta, phi)
    val = _at(w, x, y, z)
    assert abs(val) == pytest.approx(math.sqrt(math.sin(theta)), rel=1e-12)


def test_plane_wave_py_eigenvalue_by_phase_difference():
    rng = np.random.default_rng(7)
    w = PlaneWave(1.3, 0.9, 2.0)
    dy = 1e-4
    for _ in range(10):
        x, y, z = rng.uniform(-3, 3, size=3)
        up = _at(w, x, y + dy, z)
        dn = _at(w, x, y - dy, z)
        rate = cmath.phase(up * dn.conjugate()) / (2.0 * dy)
        assert rate == pytest.approx(w.k * math.sin(w.theta) * math.sin(w.phi), abs=1e-6)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
def test_plane_wave_grid_at_large_phases():
    # phases reach 5.8e3 here; against the same phase in 64-bit-mantissa precision the
    # product of a y column and an x row measured 3.0e-13, where a phase summed over
    # both axes and rounded once measured 7.0e-13 (mpmath at 113 bits agrees)
    w = PlaneWave(2.0 * math.pi, 0.9, -2.1)
    g = sample_grid(w, 75, 50, 29.2, 29.2, z=11.0)
    ld = np.longdouble
    phase = (ld(w.kt * math.cos(w.phi)) * g.x().astype(ld)
             + (ld(w.kt * math.sin(w.phi)) * g.y().astype(ld) + ld(w.kz) * ld(11.0))[:, None])
    amp = np.sqrt(np.sin(ld(w.theta)))
    err = np.hypot(g.values.real - amp * np.cos(phase), g.values.imag - amp * np.sin(phase))
    assert err.max() <= 4e-13


def test_plane_wave_label_validation():
    with pytest.raises(RangeError):
        PlaneWave(0.0, 1.0, 0.0)
    with pytest.raises(RangeError):
        PlaneWave(1.0, 0.0, 0.0)
    with pytest.raises(RangeError):
        PlaneWave(1.0, math.pi, 0.0)
    with pytest.raises(RangeError):
        PlaneWave(1.0, 1.0, math.pi)


# ------------------------------------------------------------- bessel

def test_bessel_wave_at_origin():
    # J_n(0) = 0 for n != 0, where the synthesis sums M ring phases that cancel to rounding:
    # a grid of that one sample holds only rounding and is refused, and beside a sample
    # where the wave is not small the origin reads 0 to rounding
    w0 = BesselWave(1.0, math.pi / 2, 0)
    assert _at(w0, 0.0, 0.0, 0.0) == pytest.approx(math.sqrt(2 * math.pi))
    for n in (3, -2):
        w = BesselWave(1.0, 0.7, n)
        with pytest.raises(RangeError, match="fewer than 7 correct digits"):
            _at(w, 0.0, 0.0, 0.0)
        assert abs(w.sample(np.array([0.0, 5.0]), np.array([0.0]), 0.0)[0, 0]) < 1e-15


def test_bessel_wave_first_radial_maximum():
    # locate the first maximum of J_1 on the series oracle by golden section
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1.0, 3.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    for _ in range(80):
        if bessel_series(1, c) > bessel_series(1, d):
            b, d = d, c
            c = b - inv * (b - a)
        else:
            a, c = c, d
            d = a + inv * (b - a)
    found = 0.5 * (a + b)
    assert found == pytest.approx(J1_FIRST_MAX, abs=1e-6)

    w = BesselWave(1.0, math.pi / 2, 1)  # k_t = 1, radial argument is x itself
    offsets = np.array([-2e-2, -5e-3, -1e-3, 0.0, 1e-3, 5e-3, 2e-2])
    values = np.abs(w.sample(J1_FIRST_MAX + offsets, np.array([0.0]), 0.0)[0])
    assert values.argmax() == 3


def test_bessel_wave_charge_phase():
    w = BesselWave(2.0, 0.8, 5)
    r = 2.3
    for phi in (0.3, 1.1, -2.0):
        v1 = _at(w, r * math.cos(phi), r * math.sin(phi), 0.0)
        v0 = _at(w, r, 0.0, 0.0)
        assert cmath.phase(v1 / v0) == pytest.approx(
            math.remainder(5 * phi, 2 * math.pi), abs=1e-9)


# --------------------------------------------------- elliptic coords

def test_elliptic_coords_special_points():
    assert elliptic_coords(1.0, 0.0, 1.0) == pytest.approx((0.0, 0.0))
    xi, eta = elliptic_coords(0.0, 0.0, 1.0)
    assert (xi, eta) == pytest.approx((0.0, math.pi / 2))
    xi, eta = elliptic_coords(2.0, 0.0, 1.0)
    assert (xi, eta) == pytest.approx((math.acosh(2.0), 0.0))
    # negative x axis beyond the focus sits on the eta = -pi branch edge
    xi, eta = elliptic_coords(-2.0, 0.0, 1.0)
    assert xi == pytest.approx(math.acosh(2.0))
    assert eta == -math.pi


@settings(max_examples=200)
@given(st.floats(1e-3, 1e3), st.floats(0.0, 6.0),
       st.floats(-math.pi, math.pi - 1e-9))
@example(f=1.0, xi=1.1754943508222875e-38, eta=3.1415926525897926)
@example(f=216.0, xi=5.735270451915589e-116, eta=1.994895694844068e-211)  # y / f underflows
@example(f=216.0, xi=5.735270451915589e-116, eta=-1.994895694844068e-211)
def test_elliptic_coords_round_trip(f, xi, eta):
    x = f * math.cosh(xi) * math.cos(eta)
    y = f * math.sinh(xi) * math.sin(eta)
    xi2, eta2 = elliptic_coords(x, y, f)
    x2 = f * math.cosh(xi2) * math.cos(eta2)
    y2 = f * math.sinh(xi2) * math.sin(eta2)
    scale = f * math.cosh(xi)
    assert abs(x - x2) <= 1e-10 * scale
    assert abs(y - y2) <= 1e-10 * scale
    assert xi2 >= 0.0
    assert -math.pi <= eta2 < math.pi
    if y > 0:
        assert eta2 > 0
    elif y < 0:
        assert eta2 < 0


def test_elliptic_coords_array():
    xi, eta = elliptic_coords(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1.0)
    assert xi.shape == (2,)
    assert eta[0] == 0.0


# ------------------------------------------------------------ mathieu

def _matching_q_label(parity, n, q_target=1.0):
    k, theta = 2.0 * math.pi, math.pi / 6
    f = 2.0 * math.sqrt(q_target) / (k * math.sin(theta))
    return MathieuWave(k, theta, n, parity, f)


def test_odd_wave_vanishes_between_foci():
    # a sample on the segment is rounding: refused alone, 0 beside a sample off the segment
    w = _matching_q_label("odd", 1)
    for frac in (0.0, 0.4, 0.9, -0.4, -0.9):
        with pytest.raises(RangeError, match="fewer than 7 correct digits"):
            _at(w, frac * w.f, 0.0, 0.0)
        val = w.sample(np.array([frac * w.f]), np.array([0.0, w.f]), 0.0)[0, 0]
        assert abs(val) < 1e-12


def test_even_wave_value_at_origin():
    w = _matching_q_label("even", 0)
    q = w.q
    expected = (math.sqrt(math.sin(w.theta)) * mathieu_norm_constant("even", 0, q)
                * mathieu_ce_radial(0, q, 0.0) * mathieu_ce(0, q, math.pi / 2))
    assert _at(w, 0.0, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)


def test_even_wave_on_axis_composition():
    w = _matching_q_label("even", 2)
    q = w.q
    x = 1.2 * w.f
    xi, eta = elliptic_coords(x, 0.0, w.f)
    assert xi == pytest.approx(math.acosh(1.2), rel=1e-12)
    assert eta == 0.0
    expected = (math.sqrt(math.sin(w.theta)) * mathieu_norm_constant("even", 2, q)
                * mathieu_ce_radial(2, q, math.acosh(1.2)) * mathieu_ce(2, q, 0.0))
    assert _at(w, x, 0.0, 0.0) == pytest.approx(expected, rel=1e-10)


def test_mathieu_wave_continuous_across_segment():
    # odd 2 vanishes on the segment, so its two samples beside it are taken with one
    # off it, where the wave is not small and the grid keeps its digits
    for parity, n in (("even", 1), ("odd", 2)):
        w = _matching_q_label(parity, n)
        x = 0.55 * w.f
        above, below, _ = w.sample(np.array([x]), np.array([1e-9, -1e-9, 1.0]) * w.f, 0.0)[:, 0]
        assert above == pytest.approx(below, abs=2e-8 * (1 + abs(above)))


def test_mathieu_axial_phase():
    w = _matching_q_label("even", 2)
    v0 = _at(w, 0.8 * w.f, 0.3 * w.f, 0.0)
    v1 = _at(w, 0.8 * w.f, 0.3 * w.f, 0.25)
    assert v1 == pytest.approx(v0 * cmath.exp(1j * w.kz * 0.25), rel=1e-12)


# --------------------------------------------------------------- grids

def test_sample_grid_metadata_and_determinism():
    w = BesselWave(2.0, 0.5, 2)
    g1 = sample_grid(w, 32, 24, 0.1, 0.12, z=0.3)
    g2 = sample_grid(w, 32, 24, 0.1, 0.12, z=0.3)
    assert type(g1.meta) is spectral.Cone and g1.meta == spectral.Cone(w.k, w.theta)
    assert g1.z_plane == 0.3
    assert np.array_equal(g1.values, g2.values)
    assert g1.values.shape == (24, 32)
    # centred by default
    assert g1.x()[0] == -g1.x()[-1]
    assert g1.y()[0] == -g1.y()[-1]


def test_sample_grid_matches_pointwise_eval():
    w = PlaneWave(1.5, 0.7, 0.4)
    g = sample_grid(w, 16, 16, 0.2, 0.25, x0=-1.0, y0=-2.0, z=0.1)
    x, y = g.x(), g.y()
    for i, j in ((0, 0), (7, 3), (15, 15)):
        phase = w.kt * (x[j] * math.cos(w.phi) + y[i] * math.sin(w.phi)) + w.kz * 0.1
        assert g.values[i, j] == pytest.approx(
            math.sqrt(math.sin(w.theta)) * cmath.exp(1j * phase), rel=1e-12)


@pytest.mark.parametrize("n", range(-5, 6))
def test_bessel_grid_synthesis_matches_closed_form(n):
    # the closed form (scipy's jv at each point) is the oracle for the grid synthesised
    # from the ring profile.  The second grid's far corner sits at k_t r = 161, just
    # inside the largest k_t r (161.37 at |n| = 5) that M = 256 ring samples cover
    # with an aliasing bound <= 1e-16, so the corners test that bound at its tightest.
    w = BesselWave(2.0 * math.pi, 0.3, n)
    y_far = math.sqrt((161.0 / w.kt) ** 2 - 60.0 ** 2)  # far corner (60, y_far)
    for nx, ny, dx, dy, x0, y0, z in ((40, 33, 0.07, 0.09, -1.1, -0.8, 0.37),
                                      (64, 48, 70.0 / 63, (y_far + 5.0) / 47, -10.0, -5.0, -1.3)):
        g = sample_grid(w, nx, ny, dx, dy, x0=x0, y0=y0, z=z)
        ref = bessel_field(w, *np.meshgrid(g.x(), g.y()), z)
        assert np.abs(g.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_bessel_synthesis_ring_size(monkeypatch):
    sizes = []
    analytic_ring = waves.analytic_ring
    monkeypatch.setattr(waves, "analytic_ring", lambda label, m: sizes.append(m) or analytic_ring(label, m))
    w = BesselWave(2.0 * math.pi, 0.3, 5)
    # at |n| = 5 the bound 2 (z/2)^251 / 251! of M = 256 reaches 1e-16 at z = 161.37
    for reach in (84.0, 161.3, 161.5, 9.9e3):
        w.sample(np.array([0.0, reach / w.kt]), np.array([0.0]), 0.0)
    assert sizes == [256, 256, 512, 16384]


def test_bessel_synthesis_reaches_its_largest_ring(monkeypatch):
    sizes = []
    analytic_ring = waves.analytic_ring
    monkeypatch.setattr(waves, "analytic_ring", lambda label, m: sizes.append(m) or analytic_ring(label, m))
    # at n = 0 the bound 2 (z/2)^65536 / 65536! of M = 2^16 reaches 1e-16 at z = 48195.8
    w = BesselWave(2.0 * math.pi, 0.3, 0)
    x = np.array([0.0, 4.8e4 / w.kt])
    g = w.sample(x, np.array([0.0]), 0.0)
    assert sizes == [65536]
    ref = bessel_field(w, x, 0.0, 0.0)
    assert np.abs(g[0] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bessel_synthesis_refuses_beyond_the_aliasing_bound(monkeypatch):
    def no_tables(*args):
        raise AssertionError("ring tables built for a refused wave")

    monkeypatch.setattr(waves, "analytic_ring", no_tables)
    monkeypatch.setattr(waves, "field_from_ring", no_tables)
    k, theta = 2.0 * math.pi, 0.3
    # 4.83e4 is past the largest k_t r of M = 2^16 at n = 0; nu = M - |n| < 1 at |n| = 2^16
    for n, reach, shown in ((0, 4.83e4, "48300"), (-3, math.inf, "inf"), (65536, 1.0, "1"),
                            (-65536, 1.0, "1"), (10 ** 30, 1.0, "1")):
        w = BesselWave(k, theta, n)
        with pytest.raises(RangeError) as refused:
            w.sample(np.array([-reach / w.kt, 0.0]), np.array([0.0]), 0.0)
        assert str(refused.value) == \
            f"Bessel order {n} at k_t r = {shown} needs more than 65536 ring samples"


def test_bessel_synthesis_memory_is_tiled():
    # k_t r reaches 9.5e3 at the ends of a 1024 x 16 strip, so the ring holds
    # M = 16384 samples; whole cos/sin tables of the x axis alone would take 67 MB
    w = BesselWave(2.0 * math.pi, 0.3, 3)
    dx = 2.0 * 9.5e3 / w.kt / 1023
    tracemalloc.start()
    try:
        g = sample_grid(w, 1024, 16, dx, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    ref = bessel_field(w, *np.meshgrid(g.x(), g.y()), 0.0)
    assert np.abs(g.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bessel_synthesis_over_several_tiles(monkeypatch):
    # tiles of 16 wavenumbers cut the 65 of M = 256 into five, the last one short,
    # and 300 rows end in a short row block
    monkeypatch.setattr(spectral, "_TILE", 6 * 41 * 16)
    x_tables = []
    tables = spectral._tables

    def counted(coords, kappa, buf):
        if len(coords) == 41:
            x_tables.append(len(kappa))
        return tables(coords, kappa, buf)
    monkeypatch.setattr(spectral, "_tables", counted)
    w = BesselWave(2.0 * math.pi, 0.3, 3)
    x = np.linspace(-40.0, 30.0, 41) / w.kt
    y = np.linspace(-50.0, 45.0, 300) / w.kt
    g = w.sample(x, y, 0.4)
    assert x_tables == [16, 16, 16, 16, 1]
    ref = bessel_field(w, *np.meshgrid(x, y), 0.4)
    assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bessel_synthesis_builds_each_table_entry_once(monkeypatch):
    # at M = 2^16 a wavenumber tile holds few kappa, so the tables of both
    # axes must be built tile by tile over kappa, not again per tile of x
    entries = []
    tables = spectral._tables
    monkeypatch.setattr(spectral, "_tables",
                        lambda coords, kappa, buf: entries.append(len(coords) * len(kappa)) or tables(coords, kappa, buf))
    w = BesselWave(2.0 * math.pi, 0.3, 0)
    x = np.linspace(-4.8e4, 4.8e4, 41) / w.kt
    y = np.linspace(-2.2e3, 2.2e3, 23) / w.kt
    g = w.sample(x, y, 0.0)
    assert sum(entries) == (len(x) + len(y)) * (2 ** 16 // 4 + 1)
    ref = bessel_field(w, *np.meshgrid(x, y), 0.0)
    assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_mathieu_grid_range_error_names_sample():
    w = _matching_q_label("even", 2)
    with pytest.raises(RangeError, match=r"sample \(\d+, \d+\)"):
        sample_grid(w, 64, 64, 5.0 * w.f, 5.0 * w.f)


@pytest.mark.parametrize("n", [2, 200])
def test_mathieu_range_error_names_the_grid_index_past_the_first_block(n):
    # xi grows along y from 4 at row 0, crossing the radial range past the first
    # row block; at n = 200 a block's terms would already overflow, and the
    # refusal must still be the one for the first sample beyond the range
    w = MathieuWave(2.0 * math.pi, 0.3, n, "even", 0.05)
    y0 = w.f * math.sinh(4.0)
    d = (w.f * math.sinh(6.0) - y0) / (2 * waves._ROWS)
    ny = 3 * waves._ROWS
    xi, _ = elliptic_coords(d * np.arange(16), y0 + d * np.arange(ny)[:, None], w.f)
    i, j = np.argwhere(xi > radial_xi_max(w.q))[0]
    assert i >= waves._ROWS
    with pytest.raises(RangeError, match=rf"^xi = {xi[i, j]:g} at sample \({i}, {j}\) beyond"):
        sample_grid(w, 16, ny, d, d, x0=0.0, y0=y0)


def test_mathieu_sampling_working_memory():
    # the field is synthesised in the tiles and row blocks of spectral._blocks: measured
    # 1.20x the field at 1024^2 (1.12x for the closed form in row blocks, 3.6x before those)
    w = _matching_q_label("even", 2)
    d = 2.0 * w.f * math.sinh(0.94 * radial_xi_max(w.q)) / math.sqrt(2.0) / 1024
    tracemalloc.start()
    try:
        g = sample_grid(w, 1024, 1024, d, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * g.values.nbytes


def _closed_form(w, x, y, z):
    """sqrt(sin theta) c_n Ce_n(xi) ce_n(eta) e^{i k_z z} (or s_n Se_n se_n) from the public pieces."""
    xi, eta = elliptic_coords(*np.meshgrid(x, y, sparse=True), w.f)
    radial, angular = ((mathieu_ce_radial, mathieu_ce) if w.parity == "even"
                       else (mathieu_se_radial, mathieu_se))
    scale = math.sqrt(math.sin(w.theta)) * mathieu_norm_constant(w.parity, w.n, w.q)
    return scale * radial(w.n, w.q, xi) * angular(w.n, w.q, eta) * np.exp(1j * w.kz * z)


@pytest.mark.parametrize("q", [0.01, 1.0, 9.0, 40.0])
@pytest.mark.parametrize("parity, n", [("even", 0), ("even", 2), ("even", 7),
                                       ("odd", 1), ("odd", 2), ("odd", 6)])
def test_mathieu_synthesis_matches_closed_form(parity, n, q):
    # the grid synthesised from the ring profile against the closed form on a grid
    # reaching 0.94 of the radial range, where the radial series cancels most:
    # measured at most 2.8e-11 of the peak, mostly the closed form's error (see below)
    w = _matching_q_label(parity, n, q)
    d = 2.0 * w.f * math.sinh(0.94 * radial_xi_max(q)) / math.sqrt(2.0) / 128
    g = sample_grid(w, 128, 128, d, 0.9 * d, z=0.3)
    ref = _closed_form(w, g.x(), g.y(), 0.3)
    assert np.abs(g.values - ref).max() <= 1e-10 * np.abs(ref).max()


# the benchmark's elliptic field (1024^2, q = 1, corners at 0.94 of the radial range): its
# peak, for scale, and the samples at a far corner, two edge midpoints and an inner point
# as 40-digit mpmath evaluations of the closed form, with coefficients from a 40-digit
# eigensolve of the recurrence matrix
ELLIPTIC_REFERENCES = {
    ("even", 2): (6.394781143777208, {(0, 0): 6.59184935824642437e-01,
                                      (0, 512): 1.56121097298747658e+00,
                                      (512, 0): -1.45684061153643918e+00,
                                      (341, 5): -2.21656956858653942e+00}),
    ("odd", 1): (0.23483264696302825, {(0, 0): 3.77949673386384424e-02,
                                       (0, 512): -1.11739421709089445e-01,
                                       (512, 0): 7.51881109224838978e-05,
                                       (341, 5): -2.09979147397063026e-02}),
}


@pytest.mark.parametrize("parity, n", list(ELLIPTIC_REFERENCES))
def test_mathieu_synthesis_is_nearer_the_true_field(parity, n):
    # the gap between synthesis and closed form is the closed form's: at the far
    # corner its radial series cancels by about e^13, and it is off by 6.5e-12 (even
    # 2) and 7.0e-11 (odd 1) of the peak, while the synthesis is within 3e-16
    peak, refs = ELLIPTIC_REFERENCES[parity, n]
    w = _matching_q_label(parity, n)
    d = 2.0 * w.f * math.sinh(0.94 * radial_xi_max(w.q)) / math.sqrt(2.0) / 1024
    axis = -511.5 * d + d * np.arange(1024)
    rows, cols = sorted({i for i, _ in refs} | {1023}), sorted({j for _, j in refs} | {1023})
    synth = w.sample(axis[cols], axis[rows], 0.0)  # the whole grid's reach, so its ring size
    closed = _closed_form(w, axis[cols], axis[rows], 0.0)
    for (i, j), ref in refs.items():
        at = rows.index(i), cols.index(j)
        assert abs(synth[at] - ref) <= 1e-15 * peak
        assert abs(closed[at] - ref) <= 1e-10 * peak
    far = abs(closed[0, 0] - refs[0, 0]) / peak
    assert far > 1e-12 and abs(synth[0, 0] - refs[0, 0]) <= 1e-3 * far * peak


def test_synthesis_refuses_a_grid_of_rounding():
    # the synthesis's rounding is absolute, about eps sin(theta) (2 pi / M) sum |a_m|, so a
    # grid where the wave is far smaller than its ring's weight holds only rounding
    axis = -31.5 * 0.05 + 0.05 * np.arange(64)
    with pytest.raises(RangeError) as refused:  # J_60(4.2) is about 1e-62; the grid's peak 1e-15
        BesselWave(6.2832, 0.3, 60).sample(axis, axis, 0.0)
    assert str(refused.value).startswith("synthesised grid holds fewer than 7 correct digits: "
                                         "its rounding bound is ")
    # Mathieu even 30 at q = 40 (a bound of 0.19 of its peak): its spectral mean_lz read
    # -3.2e-4, where symmetry gives 0
    w = MathieuWave(6.283185307179586, 0.5235987755982988, 30, "even", 4.02634)
    with pytest.raises(RangeError, match="fewer than 7 correct digits"):
        sample_grid(w, 128, 128, 0.0182552, 0.0182552)
    # order 10 on the same 64^2 grid keeps its digits (a rounding bound of 1.5e-11 of its peak)
    w = BesselWave(6.2832, 0.3, 10)
    values = w.sample(axis, axis, 0.0)
    ref = bessel_field(w, *np.meshgrid(axis, axis), 0.0)
    assert np.abs(values - ref).max() <= 1e-11 * np.abs(ref).max()
    # and so do the benchmark's Mathieu waves, whose corners reach 0.94 of the radial range
    for parity, n in (("even", 2), ("odd", 1)):
        w = _matching_q_label(parity, n)
        d = 2.0 * w.f * math.sinh(0.94 * radial_xi_max(w.q)) / math.sqrt(2.0) / 128
        sample_grid(w, 128, 128, d, d)


def test_mathieu_synthesis_ring_size(monkeypatch):
    sizes = []
    analytic_ring = waves.analytic_ring
    monkeypatch.setattr(waves, "analytic_ring", lambda label, m: sizes.append(m) or analytic_ring(label, m))
    # the benchmark's geometry reaches k_t r = 12.7, where M = 256 covers both orders
    for parity, n in (("even", 2), ("odd", 1)):
        w = _matching_q_label(parity, n)
        half = w.f * math.sinh(0.94 * radial_xi_max(w.q)) / math.sqrt(2.0)
        w.sample(np.array([-half, half]), np.array([-half, half]), 0.0)
    assert sizes == [256, 256]


def test_ring_size_sums_the_bounds_of_the_harmonics():
    def size(harmonics, weights, z, what):  # on a one-sample grid at k_t r = z
        return waves._ring_size(waves.Cone(1.0, math.pi / 2), [z], [0.0], harmonics, weights, what)
    # a harmonic at or past M counts 2 |A_j|, and the harmonics' bounds add
    assert size([300], [4e-17], 0.0, "") == 256
    assert size([300], [6e-17], 0.0, "") == 512
    assert size([300, 302], [4e-17, 4e-17], 0.0, "") == 512
    assert size([300, 302], [0.0, 4e-17], 0.0, "") == 256
    with pytest.raises(RangeError) as refused:
        size([2 ** 16], [1e-16], 3.0, "a profile")
    assert str(refused.value) == "a profile at k_t r = 3 needs more than 65536 ring samples"


def test_mathieu_refusals_come_before_synthesis(monkeypatch):
    def no_tables(*args):
        raise AssertionError("ring tables built for a refused wave")

    monkeypatch.setattr(waves, "analytic_ring", no_tables)
    monkeypatch.setattr(waves, "field_from_ring", no_tables)
    # order 200 at q = 2.2e-3, reaching xi = 5 inside the radial range (5.8): the norm
    # constant's A_0 underflows, which is refused first
    w = MathieuWave(2.0 * math.pi, 0.3, 200, "even", 0.05)
    x = w.f * math.cosh(5.0) * np.array([-1.0, 0.0, 1.0])
    y = np.array([0.0, 0.1])
    reach = elliptic_coords(x[-1], y[-1], w.f)[0]
    assert reach < radial_xi_max(w.q)
    with pytest.raises(DomainError) as refused:
        w.sample(x, y, 0.0)
    assert str(refused.value) == (f"constant-term coefficient vanishes for even n=200 at q={w.q:g}; "
                                  "the closed form diverges, take the q -> 0 limit instead")
    # with a norm constant, the radial series is refused: its largest term at xi = 5 is past e^700
    monkeypatch.setattr(waves, "mathieu_norm_constant", lambda *args: 1.0)
    with pytest.raises(RangeError) as refused:
        w.sample(x, y, 0.0)
    assert str(refused.value) == f"radial series overflows double precision at xi = {reach:g} for order 200"


def test_mathieu_grid_takes_its_norm_constant_once(monkeypatch):
    calls = []
    norm = waves.mathieu_norm_constant
    monkeypatch.setattr(waves, "mathieu_norm_constant",
                        lambda *args: calls.append(args) or norm(*args))
    w = _matching_q_label("odd", 1)
    sample_grid(w, 16, 3 * waves._ROWS + 5, 0.01, 0.01)
    assert calls == [("odd", 1, w.q)]


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 1 imports numpy.ma eagerly")
def test_mathieu_grid_does_not_import_numpy_ma():
    # numpy 2 imports numpy.ma on the first np.unique call (12-19 ms and 0.6 MB per
    # command on a 2-vCPU VM); the largest |x| and |y| are taken without one
    script = ("import math, sys; from wavemom import MathieuWave, sample_grid; "
              "sample_grid(MathieuWave(2 * math.pi, math.pi / 6, 2, 'even', 0.3), 64, 48, 0.01, 0.01); "
              "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.stdout == "False\n", proc.stderr


def test_each_family_is_a_cone_with_a_ring_profile_and_a_sampler():
    for cls, _ in waves.FAMILIES.values():
        assert cls.__bases__ == (waves.Cone,)
        methods = {name for name in dir(cls) if not name.startswith("_")
                   and callable(getattr(cls, name)) and not hasattr(waves.Cone, name)}
        assert methods == {"ring_profile", "sample"}


def test_cone_is_spectral_and_the_focal_rule_is_a_function():
    assert waves.Cone is spectral.Cone and spectral.Cone.__module__ == "wavemom.spectral"
    classes = [v for mod in (waves, spectral) for v in vars(mod).values() if isinstance(v, type)]
    assert spectral.Cone in classes and waves.MathieuWave in classes
    assert [cls for cls in classes if hasattr(cls, "check_focal")] == []


@pytest.mark.parametrize("f,message", [
    (0.0, "semi-focal distance f must be positive, got 0.0"),
    (math.nan, "semi-focal distance f must be positive, got nan"),
    (math.inf, "semi-focal distance f must be positive, got inf"),
    (1e300, "q = (f k_t / 2)^2 exceeds the supported maximum 1e+06 (f k_t / 2 = 1.5708e+300)"),
], ids=["zero", "nan", "inf", "q-over-max"])
def test_check_focal_refuses_for_the_wave_and_the_report(f, message):
    cone = spectral.Cone(2.0 * math.pi, math.pi / 6)
    grid = sample_grid(PlaneWave(cone.k, cone.theta, 0.0), 16, 16, 0.05, 0.05)
    for refuse in (lambda: waves.check_focal(cone, f),
                   lambda: MathieuWave(cone.k, cone.theta, 2, "even", f),
                   lambda: report(grid, methods=("spectral",), f=f),
                   lambda: grid_mean(grid, "elliptic", f=f)):
        with pytest.raises(RangeError) as exc:
            refuse()
        assert str(exc.value) == message


@pytest.mark.parametrize("f", [0.0, -0.3, math.nan, math.inf])
def test_focal_rule_holds_without_a_cone(f):
    # elliptic_coords took f = inf and gave xi == 0 everywhere
    for refuse in (lambda: waves.check_focal(None, f),
                   lambda: elliptic_coords(1.0, 0.5, f),
                   lambda: elliptic_coords(np.ones(3), np.zeros(3), f)):
        with pytest.raises(RangeError) as exc:
            refuse()
        assert str(exc.value) == f"semi-focal distance f must be positive, got {f}"


def test_integer_labels_are_integer_types():
    # the Mathieu order was truncated (n = 2.7 sampled ce_2), and BesselWave took 2.0
    # and met NaN and inf with a bare ValueError and OverflowError
    k, theta, f = 2.0 * math.pi, math.pi / 6, 0.3
    grid = sample_grid(PlaneWave(k, theta, 0.0), 16, 16, 0.05, 0.05)
    for n in (math.nan, math.inf, 2.0, 2.5, np.float64(2.0)):
        with pytest.raises(RangeError) as exc:
            BesselWave(k, theta, n)
        assert str(exc.value) == f"topological charge must be an integer, got {n}"
    for n in (2.7, 2.0, math.nan):
        for refuse in (lambda: MathieuClass.from_order("even", n),
                       lambda: MathieuWave(k, theta, n, "even", f),
                       lambda: mathieu_eigen("even", n, 1.0),
                       lambda: report(grid, methods=("paper",), f=f, parity="even", n=n)):
            with pytest.raises(RangeError) as exc:
                refuse()
            assert str(exc.value) == f"Mathieu order must be an integer, got {n}"
    # numpy integers are taken, and kept as Python ints
    assert type(BesselWave(k, theta, np.int64(3)).n) is int
    assert type(MathieuWave(k, theta, np.int32(2), "even", f).n) is int
    assert type(mathieu_eigen("odd", np.int64(3), 1.0625).n) is int  # a q no other test solves
    assert MathieuWave(k, theta, np.int64(2), "even", f) == MathieuWave(k, theta, 2, "even", f)


@pytest.mark.parametrize("wave", [PlaneWave(6.28, 0.3, 0.4), BesselWave(6.28, 0.3, 2),
                                  MathieuWave(6.28, 0.3, 2, "even", 0.5)],
                         ids=lambda w: w.family)
def test_sample_takes_any_sequence_as_an_axis(wave):
    # a single point is a one-sample grid; an axis may be a scalar, a list or a nested list
    x, y = np.array([0.5, 0.1]), np.array([0.2])
    grid = wave.sample(x, y, 0.0)
    assert grid.shape == (1, 2)
    for ax, ay in ((x.tolist(), y.tolist()), ([x.tolist()], [y.tolist()]), (x[None, :], y[:, None])):
        assert wave.sample(ax, ay, 0.0).tobytes() == grid.tobytes()
    point = wave.sample(x[:1], y, 0.0)
    for ax, ay in ((0.5, 0.2), ([0.5], [0.2]), ([[0.5]], [[0.2]])):
        assert wave.sample(ax, ay, 0.0).tobytes() == point.tobytes()
    assert point.shape == (1, 1)


def test_field_grid_validation(tmp_path, monkeypatch):
    meta = spectral.Cone(1.0, 0.5)
    with pytest.raises(RangeError):
        FieldGrid(8, 8, 0.1, 0.1, 0.0, 0.0, np.zeros((8, 8), complex), meta)
    with pytest.raises(RangeError):
        FieldGrid(16, 16, 0.1, 0.1, 0.0, 0.0, np.zeros((4, 4), complex), meta)
    bad = np.zeros((16, 16), complex)
    bad[3, 3] = np.nan
    with pytest.raises(RangeError):
        FieldGrid(16, 16, 0.1, 0.1, 0.0, 0.0, bad, meta)
    # the slice plane sits on the grid beside its origin, and is checked with it
    for z in (math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError, match=f"^slice plane z must be finite, got {z}$"):
            FieldGrid(16, 16, 0.1, 0.1, 0.0, 0.0, np.zeros((16, 16)), meta, z)
    with pytest.raises(RangeError, match="^slice plane z must be finite, got nan$"):
        sample_grid(BesselWave(1.0, 0.5, 2), 16, 16, 0.1, 0.1, z=math.nan)
    # sizes are integers, kept as Python ints; a float size would write a file read_field refuses
    for size in (16.0, 16.5, "16"):
        with pytest.raises(RangeError, match=f"^grid size must be integers, got {size!r}x16$"):
            FieldGrid(size, 16, 0.1, 0.1, 0.0, 0.0, np.zeros((16, 16)), meta)
    # sample_grid shares the rule and refuses such a size before it samples anything
    monkeypatch.setattr(BesselWave, "sample", lambda *args: pytest.fail("sampled a refused grid"))
    for size in (16.9, 16.0, "16"):
        with pytest.raises(RangeError, match=f"^grid size must be integers, got {size!r}x16$"):
            sample_grid(BesselWave(1.0, 0.5, 2), size, 16, 0.1, 0.1)
    monkeypatch.undo()
    sampled = sample_grid(BesselWave(1.0, 0.5, 2), np.int64(16), np.int32(17), 0.1, 0.1)
    assert (type(sampled.nx), type(sampled.ny), sampled.values.shape) == (int, int, (17, 16))
    # numpy scalars are kept as Python numbers, which write_field can serialise
    typed = FieldGrid(np.int64(16), np.int32(17), np.float32(0.1), 0.1, np.float64(0.5),
                      np.float32(0.25), np.zeros((17, 16)), meta, np.float32(0.5))
    geometry = (typed.nx, typed.ny, typed.dx, typed.dy, typed.x0, typed.y0, typed.z_plane)
    assert [type(v) for v in geometry] == [int] * 2 + [float] * 5
    assert geometry == (16, 17, float(np.float32(0.1)), 0.1, 0.5, 0.25, 0.5)
    # an origin of None centres its axis, as sample_grid does
    centred = FieldGrid(32, 16, 0.1, 0.2, None, None, np.ones((16, 32)), meta)
    assert (centred.x0, centred.y0) == (-0.5 * 31 * 0.1, -0.5 * 15 * 0.2)
    assert centred.x()[0] == centred.x0
    for grid in (typed, centred):
        write_field(grid, tmp_path / "grid.hwmf")
        back = read_field(tmp_path / "grid.hwmf")
        assert (back.nx, back.ny, back.dx, back.dy, back.x0, back.y0, back.z_plane) == \
            (grid.nx, grid.ny, grid.dx, grid.dy, grid.x0, grid.y0, grid.z_plane)
        assert np.array_equal(back.values, grid.values)


# ----------------------------------------------- pointwise eigenchecks

def test_axial_phase_rate_all_families():
    k = 2.0 * math.pi
    labels = (
        PlaneWave(k, 0.3, 1.0),
        BesselWave(k, 0.3, 2),
        _matching_q_label("even", 2),
    )
    dz = 1e-3
    for label in labels:
        pt = (0.31, 0.17, 0.0)
        up = _at(label, pt[0], pt[1], dz)
        dn = _at(label, pt[0], pt[1], -dz)
        rate = cmath.phase(up * dn.conjugate()) / (2.0 * dz)
        expected = label.k * math.cos(label.theta)
        assert rate == pytest.approx(expected, rel=1e-3)


def test_charge_eigenratio_on_bessel_grid():
    # centred stencils at 32 samples per wavelength resolve the charge to 1e-3
    k, theta, n = 2.0 * math.pi, 0.3, 3
    w = BesselWave(k, theta, n)
    d = 2.0 * math.pi / (32.0 * k)
    g = sample_grid(w, 128, 128, d, d)
    v = g.values
    x, y = g.x(), g.y()
    vy = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * d)
    vx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * d)
    core = v[1:-1, 1:-1]
    lz = -1j * (x[1:-1][None, :] * vy - y[1:-1][:, None] * vx)
    mask = np.abs(core) > 0.5 * np.abs(core).max()
    ratios = (lz[mask] / core[mask]).real
    assert np.max(np.abs(ratios - n)) < 1e-3 * n


def test_py_eigenratio_on_plane_grid():
    k, theta, phi = 2.0 * math.pi, 0.3, 2.2
    w = PlaneWave(k, theta, phi)
    d = 2.0 * math.pi / (32.0 * k)
    g = sample_grid(w, 64, 64, d, d)
    v = g.values
    vy = (v[2:, :] - v[:-2, :]) / (2 * d)
    ratios = (-1j * vy / v[1:-1, :]).real
    expected = k * math.sin(theta) * math.sin(phi)
    assert np.max(np.abs(ratios - expected)) < 1e-3 * abs(expected)
