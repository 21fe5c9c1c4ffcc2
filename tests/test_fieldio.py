import json
import math

import numpy as np
import pytest

from wavemom.errors import FormatError
from wavemom.fieldio import (
    read_field,
    read_field_csv,
    write_field,
    write_field_csv,
    report_json_str,
    write_oam_csv,
    write_ring_csv,
)
from wavemom.momenta import MomentumReport
from wavemom.spectral import OamSpectrum, RingSpectrum
from wavemom.waves import BesselWave, FieldGrid, GridMeta, sample_grid


def random_grid(seed=0, nx=24, ny=18):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
    meta = GridMeta(k=2.0, theta=0.7, z_plane=0.25, description="noise sample")
    return FieldGrid(nx, ny, 0.125, 0.0625, -1.5, -0.5625, values, meta)


def test_binary_round_trip_bit_exact(tmp_path):
    g = random_grid()
    path = tmp_path / "field.hwmf"
    write_field(g, path)
    back = read_field(path)
    assert back.values.tobytes() == g.values.tobytes()
    assert (back.nx, back.ny, back.dx, back.dy) == (g.nx, g.ny, g.dx, g.dy)
    assert (back.x0, back.y0) == (g.x0, g.y0)
    assert back.meta == g.meta


def test_binary_round_trip_sampled_wave(tmp_path):
    g = sample_grid(BesselWave(2.0 * math.pi, 0.4, 2), 32, 32, 0.05, 0.05, z=0.1)
    path = tmp_path / "wave.hwmf"
    write_field(g, path)
    assert read_field(path).values.tobytes() == g.values.tobytes()


def test_header_is_single_json_line(tmp_path):
    path = tmp_path / "field.hwmf"
    write_field(random_grid(), path)
    first = path.read_bytes().split(b"\n", 1)[0]
    header = json.loads(first.decode("utf-8"))
    assert header["magic"] == "HWMF1"
    assert header["nx"] == 24 and header["ny"] == 18


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "field.hwmf"
    write_field(random_grid(), path)
    raw = path.read_bytes().replace(b"HWMF1", b"HWMF0", 1)
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="magic"):
        read_field(path)


def test_truncated_payload_names_offset(tmp_path):
    path = tmp_path / "field.hwmf"
    write_field(random_grid(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises(FormatError, match="byte offset"):
        read_field(path)


def test_count_mismatch_rejected(tmp_path):
    path = tmp_path / "field.hwmf"
    write_field(random_grid(), path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 16)
    with pytest.raises(FormatError, match="nx\\*ny"):
        read_field(path)


def test_non_finite_payload_rejected(tmp_path):
    g = random_grid()
    path = tmp_path / "field.hwmf"
    write_field(g, path)
    raw = bytearray(path.read_bytes())
    header_len = raw.index(b"\n") + 1
    bad_index = 7
    raw[header_len + 16 * bad_index: header_len + 16 * bad_index + 8] = \
        np.float64(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"index {bad_index}"):
        read_field(path)


def _set_header(path, key, value):
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[key] = value
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


@pytest.mark.parametrize("key,value,message", [
    ("k", "abc", "header"),
    ("k", -6.28, "wavenumber k"),
    ("theta", 0, "cone angle theta"),
    ("z_plane", "x", "header"),
])
def test_bad_header_values_rejected(tmp_path, key, value, message):
    path = tmp_path / "field.hwmf"
    write_field(random_grid(), path)
    _set_header(path, key, value)
    with pytest.raises(FormatError, match=message):
        read_field(path)


def test_missing_header_newline(tmp_path):
    path = tmp_path / "field.hwmf"
    path.write_bytes(b"{}" * 10)
    with pytest.raises(FormatError, match="header"):
        read_field(path)


def test_csv_round_trip(tmp_path):
    g = random_grid(seed=3)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    back = read_field_csv(path, k=g.meta.k, theta=g.meta.theta)
    # 17 significant digits round-trip doubles exactly; 1e-15 is the contract
    assert np.abs(back.values - g.values).max() <= 1e-15 * np.abs(g.values).max()
    assert back.nx == g.nx and back.ny == g.ny
    assert back.dx == pytest.approx(g.dx, rel=1e-12)
    assert back.x0 == pytest.approx(g.x0, rel=1e-12)
    assert back.meta.k == g.meta.k


def test_csv_accepts_shuffled_rows(tmp_path):
    g = random_grid(seed=4, nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(0)
    body = [lines[i + 1] for i in rng.permutation(len(lines) - 1)]
    path.write_text("\n".join(body) + "\n")  # also drop the header line
    back = read_field_csv(path)
    assert np.abs(back.values - g.values).max() <= 1e-15 * np.abs(g.values).max()


def test_csv_gap_names_first_missing_node(tmp_path):
    g = random_grid(seed=5, nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    dropped = lines[:1] + lines[2:]  # remove the first data row
    path.write_text("\n".join(dropped) + "\n")
    with pytest.raises(FormatError, match="missing node"):
        read_field_csv(path)


def test_csv_duplicate_node_rejected(tmp_path):
    g = random_grid(seed=6, nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_field_csv(path)


def test_csv_non_finite_names_line(tmp_path):
    g = random_grid(seed=7, nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    x, y, re, im = lines[5].split(",")
    lines[5] = f"{x},{y},nan,{im}"
    lines.insert(3, "")  # blank lines still count towards the line number
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"field\.csv:7: non-finite value"):
        read_field_csv(path)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("x,y,re,im\n0,0,1\n")
    with pytest.raises(FormatError, match="columns"):
        read_field_csv(path)


def test_spectrum_writers(tmp_path):
    samples = np.exp(1j * 2.0 * np.linspace(-math.pi, math.pi, 256, endpoint=False))
    ring = RingSpectrum(2.0, 0.5, samples)
    ring_path = tmp_path / "ring.csv"
    write_ring_csv(ring, ring_path)
    lines = ring_path.read_text().splitlines()
    assert lines[0] == "phi,re,im"
    assert len(lines) == 257

    spec = OamSpectrum(2.0, 0.5, -2, 2, np.array([0, 1j, 0.25, 0, 0.5 - 0.5j]))
    oam_path = tmp_path / "oam.csv"
    write_oam_csv(spec, oam_path)
    lines = oam_path.read_text().splitlines()
    assert lines[0] == "n,re,im,abs2"
    assert lines[1].startswith("-2,")
    # 17 significant digits survive parsing exactly
    n, re, im, abs2 = lines[5].split(",")
    assert n == "2" and float(abs2) == abs(0.5 - 0.5j) ** 2


def test_report_writer():
    rep = MomentumReport(mean_lz=2.0, mean_px=0.1, mean_py=-0.2, mean_pz=0.9,
                         elliptic_invariant=None, method="spectral",
                         norm_used=1.25, window="hann", notes="")
    blob = json.loads(report_json_str([rep]))
    assert isinstance(blob, list) and len(blob) == 1
    assert set(blob[0]) == {"mean_lz", "mean_px", "mean_py", "mean_pz",
                            "elliptic_invariant", "method", "norm_used",
                            "window", "notes"}
    assert blob[0]["elliptic_invariant"] is None


def test_read_field_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_field(tmp_path / "nope.hwmf")
