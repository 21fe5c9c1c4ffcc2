"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in well under two minutes.
"""

import math
import time

import numpy as np
import pytest

from wavemom import fieldio
from wavemom.errors import FormatError
from wavemom.momenta import grid_mean, mean_charge, oam_mathieu_paper
from wavemom.spectral import (
    analytic_ring,
    bessel_coeffs_of_mathieu,
    oam_spectrum,
    parseval_residual,
    ring_spectrum_from_grid,
    RingSpectrum,
)
from wavemom.specfun.mathieu import mathieu_ce, mathieu_eigen, mathieu_se, radial_xi_max
from wavemom.waves import BesselWave, MathieuWave, PlaneWave, sample_grid

from _oracles import mathieu_coeffs

K = 2.0 * math.pi

# anchors pinned by the truncation-doubling oracle inside criterion 6
EVEN2_Q1_MEAN = 0.9576485320360246
ODD1_Q1_MEAN = 0.5120467838997057

CASES_3 = [("even", n, q) for n in range(0, 7) for q in (0.5, 1.0, 5.0)] + \
          [("odd", n, q) for n in range(1, 7) for q in (0.5, 1.0, 5.0)]


def _line(num, passed, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if passed else 'FAIL'} — {detail}")


def _mathieu_label(parity, n, q):
    theta = math.pi / 6
    f = 2.0 * math.sqrt(q) / (K * math.sin(theta))
    return MathieuWave(K, theta, n, parity, f)


def test_criterion_1_plane_wave_null_charge():
    start = time.perf_counter()
    label = PlaneWave(K, 0.6, 0.9)
    d = 2.0 * math.pi / (24.0 * K)
    grid = sample_grid(label, 512, 512, d, d)
    ring = ring_spectrum_from_grid(grid, 1024)
    spec = oam_spectrum(ring, -40, 40)     # symmetric charge window
    spectral = mean_charge(spec)
    oracle = grid_mean(grid, "lz")
    elapsed = time.perf_counter() - start
    ok = abs(spectral) <= 1e-6 and abs(oracle) <= 1e-6 and elapsed < 5.0
    _line(1, ok, f"plane wave <l_z>: spectral {spectral:.2e}, grid {oracle:.2e}, "
                 f"{elapsed:.2f}s on 512x512")
    assert abs(spectral) <= 1e-6
    assert abs(oracle) <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_bessel_charge_reproduction():
    theta = 0.3
    lam_t = 2.0 * math.pi / (K * math.sin(theta))
    d = lam_t / 8.0
    npix = int(round(22.0 * lam_t / d))
    worst_mean, worst_share = 0.0, 1.0
    for n in range(-5, 6):
        grid = sample_grid(BesselWave(K, theta, n), npix, npix, d, d)
        spec = oam_spectrum(ring_spectrum_from_grid(grid, 1024, "hann"), -40, 40)
        power = np.abs(spec.coeffs) ** 2
        share = float(power[spec.charges() == n][0] / power.sum())
        mean = mean_charge(spec)
        worst_mean = max(worst_mean, abs(mean - n))
        worst_share = min(worst_share, share)
        assert abs(mean - n) <= 1e-3
        assert share >= 0.99
    _line(2, True, f"charges -5..5: worst |mean-n| {worst_mean:.1e}, "
                   f"worst concentration {worst_share:.6f}")


def test_criterion_3_mathieu_machinery():
    eta = np.linspace(-math.pi, math.pi, 256, endpoint=False)
    worst_resid = 0.0
    for parity, n, q in CASES_3:
        eig = mathieu_eigen(parity, n, q)
        h = eig.harmonics.astype(float)
        args = np.multiply.outer(eta, h)
        if parity == "even":
            y = mathieu_ce(n, q, eta)
            d2 = -(np.cos(args) * h * h) @ eig.coeffs
        else:
            y = mathieu_se(n, q, eta)
            d2 = -(np.sin(args) * h * h) @ eig.coeffs
        resid = d2 + (eig.char_value - 2.0 * q * np.cos(2.0 * eta)) * y
        scale = max((np.abs(d2) + np.abs(d2 - resid)).max(), 1.0)
        rel = np.abs(resid).max() / scale
        worst_resid = max(worst_resid, rel)
        assert rel <= 1e-8

    # interlacing up to solver precision (near-degenerate pairs split below
    # double resolution for n >> sqrt(q))
    for q in (0.5, 1.0, 5.0):
        seq = []
        for n in range(0, 7):
            seq.append(mathieu_eigen("even", n, q).char_value)
            if n + 1 <= 6:
                seq.append(mathieu_eigen("odd", n + 1, q).char_value)
        for a, b in zip(seq, seq[1:]):
            assert b > a - 1e-11 * max(1.0, abs(a))

    worst_limit = 0.0
    for parity, orders in (("even", range(0, 7)), ("odd", range(1, 7))):
        for n in orders:
            err = abs(mathieu_eigen(parity, n, 0.0).char_value - n * n)
            worst_limit = max(worst_limit, err)
            assert err <= 1e-10
    _line(3, True, f"worst ODE residual {worst_resid:.1e}, interlacing ok, "
                   f"worst q=0 limit error {worst_limit:.1e}")


def test_criterion_4_plancherel_verification():
    worst = 0.0
    for parity, n, q in CASES_3:
        label = _mathieu_label(parity, n, q)
        eig = mathieu_eigen(parity, n, label.q)
        _, two = bessel_coeffs_of_mathieu(eig, label.k, label.theta)
        spec = oam_spectrum(analytic_ring(label, 1024), two.n_min, two.n_max)
        dev = np.abs(spec.coeffs - two.coeffs).max()
        worst = max(worst, float(dev))
        assert dev <= 1e-8
    _line(4, True, f"{len(CASES_3)} cases, worst coefficient deviation {worst:.1e}")


def test_criterion_5_parseval_identity():
    rng = np.random.default_rng(20240817)
    m = 1024
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.05, math.pi - 0.05)
        ring = RingSpectrum(K, theta, rng.normal(size=m) + 1j * rng.normal(size=m))
        spec = oam_spectrum(ring, -m // 2, m // 2 - 1)
        resid = parseval_residual(ring, spec)
        worst = max(worst, resid)
        assert resid <= 1e-12
    _line(5, True, f"100 random profiles, worst norm-identity residual {worst:.1e}")


def test_criterion_6_closed_form_mean_charge():
    # q -> 0: a unit coefficient vector at harmonic n, so the printed sum
    # collapses to (n mod 2)/2 for n in {0, 1} and to n/2 in general
    assert oam_mathieu_paper("even", 0, 0.0) == 0.0
    assert oam_mathieu_paper("odd", 1, 0.0) == 0.5
    for parity, orders in (("even", range(0, 7)), ("odd", range(1, 7))):
        for n in orders:
            assert oam_mathieu_paper(parity, n, 0.0) == pytest.approx(n / 2.0, abs=1e-14)

    # q = 1 values stable under truncation doubling of the oracle eigensolve
    def oracle_mean(parity, n, size):
        vec, harm = mathieu_coeffs(parity, n, 1.0, size)
        return float(((harm / 2.0) * vec ** 2).sum() / (vec ** 2).sum())

    for parity, n, anchor in (("even", 2, EVEN2_Q1_MEAN), ("odd", 1, ODD1_Q1_MEAN)):
        small = oracle_mean(parity, n, 60)
        large = oracle_mean(parity, n, 120)
        assert abs(small - large) <= 1e-8
        assert oam_mathieu_paper(parity, n, 1.0) == pytest.approx(large, abs=1e-8)
        assert oam_mathieu_paper(parity, n, 1.0) == pytest.approx(anchor, abs=1e-10)
    _line(6, True, f"q->0 limits exact; q=1 anchors {EVEN2_Q1_MEAN:.9f} (even n=2), "
                   f"{ODD1_Q1_MEAN:.9f} (odd n=1) stable to 1e-8")


def test_criterion_7_elliptic_invariant():
    details = []
    for parity, n in (("even", 2), ("odd", 1)):
        label = _mathieu_label(parity, n, 1.0)
        q = label.q
        half = label.f * math.sinh(0.94 * radial_xi_max(q)) / math.sqrt(2.0)
        lam_t = 2.0 * math.pi / label.kt
        d = lam_t / 96.0
        npix = int(2.0 * half / d)
        grid = sample_grid(label, npix, npix, d, d)

        # pointwise position-independence of the composed-operator eigenratio
        v = grid.values
        x, y = grid.x(), grid.y()

        def lz(vals, xs, ys):
            vx = (vals[1:-1, 2:] - vals[1:-1, :-2]) / (2 * d)
            vy = (vals[2:, 1:-1] - vals[:-2, 1:-1]) / (2 * d)
            return -1j * (xs[1:-1][None, :] * vy - ys[1:-1][:, None] * vx)

        applied = lz(lz(v, x, y), x[1:-1], y[1:-1]) \
            - label.f ** 2 * (v[:, 4:] - 2 * v[:, 2:-2] + v[:, :-4])[2:-2, :] / (4 * d * d)
        core = v[2:-2, 2:-2]
        mask = np.abs(core) > 0.3 * np.abs(core).max()
        ratios = (applied[mask] / core[mask]).real
        centre = float(np.median(ratios))
        spread = float(np.abs(ratios - centre).max())
        assert spread <= 1e-2 * abs(centre)

        eig = mathieu_eigen(parity, n, q)
        measured = grid_mean(grid, "elliptic", f=label.f)
        cands = {"char": eig.char_value, "char+2q": eig.char_value + 2 * q,
                 "char-2q": eig.char_value - 2 * q}
        best = min(cands, key=lambda name: abs(cands[name] - measured))
        assert best == "char+2q"
        assert measured == pytest.approx(cands["char+2q"], rel=1e-2)
        details.append(f"{parity} n={n}: measured {measured:.6f} ~ {best} "
                       f"= {cands[best]:.6f}")
    _line(7, True, "; ".join(details))


def test_criterion_8_io_round_trips(tmp_path):
    grid = sample_grid(BesselWave(K, 0.4, 3), 48, 40, 0.21, 0.19, z=0.05)

    binary = tmp_path / "field.hwmf"
    fieldio.write_field(grid, binary)
    back = fieldio.read_field(binary)
    assert back.values.tobytes() == grid.values.tobytes()

    csv_path = tmp_path / "field.csv"
    fieldio.write_field_csv(grid, csv_path)
    csv_back = fieldio.read_field_csv(csv_path, k=grid.meta.k, theta=grid.meta.theta)
    rel = np.abs(csv_back.values - grid.values).max() / np.abs(grid.values).max()
    assert rel <= 1e-15

    rejected = 0
    raw = binary.read_bytes()
    for corrupt in (
        raw.replace(b"HWMF1", b"HWMF0", 1),            # bad magic
        raw[:-24],                                      # truncated payload
        raw[: raw.index(b"\n") + 1 + 16 * 5]
            + np.float64(np.inf).tobytes() + raw[raw.index(b"\n") + 9 + 16 * 5:],
    ):
        bad = tmp_path / f"bad{rejected}.hwmf"
        bad.write_bytes(corrupt)
        with pytest.raises(FormatError):
            fieldio.read_field(bad)
        rejected += 1
    gap = tmp_path / "gap.csv"
    lines = csv_path.read_text().splitlines()
    gap.write_text("\n".join(lines[:10] + lines[11:]) + "\n")
    with pytest.raises(FormatError):
        fieldio.read_field_csv(gap, grid.meta.k, grid.meta.theta)
    rejected += 1

    _line(8, True, f"binary bit-exact, CSV rel {rel:.1e}, "
                   f"{rejected} malformed inputs rejected")
