import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wavemom.cli import main

K = 2.0 * math.pi
THETA = 0.3


def run(argv):
    return main([str(a) for a in argv])


def gen_bessel(tmp_path, n=2, name="field.hwmf"):
    lam_t = 2.0 * math.pi / (K * math.sin(THETA))
    out = tmp_path / name
    code = run(["gen", "--family", "bessel", "--k", K, "--theta", THETA,
                "--n", n, "--grid", "176,176", "--dx", lam_t / 8.0,
                "--out", out])
    assert code == 0
    return out


def test_pipeline_bessel_mean_charge(tmp_path, capsys):
    field = gen_bessel(tmp_path, n=2)
    ring = tmp_path / "ring.csv"
    oam = tmp_path / "oam.csv"
    summary = tmp_path / "summary.json"
    code = run(["spectrum", "--in", field, "--window", "hann",
                "--out-ring", ring, "--out-oam", oam, "--out-summary", summary])
    assert code == 0
    blob = json.loads(summary.read_text())
    assert blob["parseval_residual"] < 1e-10

    table = np.genfromtxt(oam, delimiter=",", names=True)
    power = table["abs2"]
    assert table["n"][np.argmax(power)] == 2

    report_path = tmp_path / "report.json"
    code = run(["momenta", "--in", field, "--methods", "spectral,grid",
                "--window", "hann", "--out", report_path])
    assert code == 0
    entries = json.loads(report_path.read_text())
    by_method = {e["method"]: e for e in entries}
    assert by_method["spectral"]["mean_lz"] == pytest.approx(2.0, abs=1e-3)
    # 8 samples per transverse wavelength is deliberately coarse; the stencil
    # oracle is only a sanity cross-check here (accuracy is covered elsewhere)
    assert by_method["grid-oracle"]["mean_lz"] == pytest.approx(2.0, abs=0.25)
    assert by_method["spectral"]["mean_pz"] == pytest.approx(math.cos(THETA))


def test_pipeline_plane_wave_null_charge(tmp_path):
    out = tmp_path / "plane.hwmf"
    code = run(["gen", "--family", "plane", "--k", K, "--theta", 0.6,
                "--phi", 0.9, "--grid", "128,128", "--out", out])
    assert code == 0
    report_path = tmp_path / "report.json"
    code = run(["momenta", "--in", out, "--methods", "spectral,grid",
                "--out", report_path])
    assert code == 0
    for entry in json.loads(report_path.read_text()):
        assert abs(entry["mean_lz"]) <= 1e-6


def test_mathieu_table_q_zero_single_row(capsys):
    assert run(["mathieu-table", "--parity", "even", "--n", "0", "--q", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "class,n,q,char_value,j,coeff"
    assert len(lines) == 2
    cls, n, q, char, j, coeff = lines[1].split(",")
    assert cls == "ce-even" and n == "0" and j == "0"
    assert float(char) == 0.0
    assert float(coeff) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_mathieu_table_q_sweep(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["mathieu-table", "--parity", "odd", "--n", "2", "--q", "0.5",
                "--q-max", "2.5", "--q-steps", "3", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    qs = sorted({row.split(",")[2] for row in rows})
    assert len(qs) == 3
    assert all(row.split(",")[0] == "se-even" for row in rows)


def test_degrees_flag(tmp_path):
    a = tmp_path / "rad.hwmf"
    b = tmp_path / "deg.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", math.pi / 4,
                "--phi", math.pi / 8, "--grid", "16,16", "--out", a]) == 0
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 45.0,
                "--phi", 22.5, "--degrees", "--grid", "16,16", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_deterministic(tmp_path):
    a = gen_bessel(tmp_path, name="a.hwmf")
    b = gen_bessel(tmp_path, name="b.hwmf")
    assert a.read_bytes() == b.read_bytes()


def test_gen_origin_flag(tmp_path):
    from wavemom.fieldio import read_field
    out = tmp_path / "offset.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 0.5,
                "--grid", "16,16", "--dx", 0.25, "--origin", "1.5,-2.0",
                "--out", out]) == 0
    g = read_field(out)
    assert (g.x0, g.y0) == (1.5, -2.0)


def test_negative_leading_values_accepted(tmp_path):
    # "-12,12" styles must parse as values, not flags
    field = gen_bessel(tmp_path, n=1)
    oam = tmp_path / "oam.csv"
    assert run(["spectrum", "--in", field, "--n-range", "-12,12",
                "--out-oam", oam]) == 0
    first = oam.read_text().splitlines()[1]
    assert first.startswith("-12,")
    out = tmp_path / "neg_origin.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 0.5,
                "--grid", "16,16", "--dx", 0.25, "--origin", "-1.25,-0.5",
                "--out", out]) == 0


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["gen", "--k", "1.0", "--theta", "0.5", "--out", tmp_path / "x"]) == 1
    assert run(["momenta", "--in", tmp_path / "x", "--methods", "psychic"]) == 1
    assert run(["gen", "--family", "mathieu-even", "--k", 1.0, "--theta", 0.5,
                "--n", 0, "--out", tmp_path / "x"]) == 1  # --f missing
    assert run(["mathieu-table", "--parity", "even", "--n", "0", "--q", "1",
                "--q-max", "2"]) == 1  # --q-steps missing
    capsys.readouterr()


def test_range_errors_exit_2(tmp_path, capsys):
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 0.0,
                "--grid", "16,16", "--out", tmp_path / "x"]) == 2
    # Nyquist violation: theta = pi/2 with dx at the transverse period limit
    out = tmp_path / "n.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", math.pi / 2,
                "--grid", "16,16", "--dx", math.pi, "--out", out]) == 0
    assert run(["spectrum", "--in", out]) == 2
    # Bessel orders beyond bessel_j's supported |n| <= 200
    assert run(["gen", "--family", "bessel", "--k", 1.0, "--theta", 0.5, "--n", 201,
                "--grid", "16,16", "--out", tmp_path / "b"]) == 2
    capsys.readouterr()


def test_io_errors_exit_3(tmp_path, capsys):
    assert run(["momenta", "--in", tmp_path / "missing.hwmf"]) == 3
    bad = tmp_path / "bad.hwmf"
    bad.write_bytes(b'{"magic": "HWMF0"}\n')
    assert run(["spectrum", "--in", bad]) == 3
    capsys.readouterr()


def _help_text(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_flags(capsys):
    text = _help_text("gen", capsys)
    for flag in ("--family", "--k", "--theta", "--phi", "--n", "--f", "--grid",
                 "--dx", "--dy", "--origin", "--z", "--out", "--degrees"):
        assert flag in text
    shared = ("--in", "--in-format", "--k", "--theta", "--ring-samples",
              "--n-range", "--window")
    text = _help_text("spectrum", capsys)
    for flag in shared + ("--out-ring", "--out-oam", "--out-summary"):
        assert flag in text
    text = _help_text("momenta", capsys)
    for flag in shared + ("--methods", "--f", "--parity", "--n", "--q", "--out"):
        assert flag in text


@pytest.mark.parametrize("key,value", [("k", "abc"), ("k", -6.28), ("theta", 0),
                                       ("z_plane", "x"), ("z_plane", math.nan),
                                       ("dx", -1.0), ("dx", math.nan), ("x0", math.inf)])
def test_bad_header_values_exit_3(tmp_path, capsys, key, value):
    path = tmp_path / "field.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 0.5,
                "--grid", "16,16", "--out", path]) == 0
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[key] = value
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    assert run(["spectrum", "--in", path]) == 3
    assert run(["momenta", "--in", path]) == 3
    assert "header" in capsys.readouterr().err


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "wavemom.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "mathieu-table" in proc.stdout


def test_csv_ingestion_path(tmp_path):
    from wavemom.fieldio import read_field, write_field_csv
    field = gen_bessel(tmp_path, n=1)
    grid = read_field(field)
    csv_path = tmp_path / "field.csv"
    write_field_csv(grid, csv_path)
    report_path = tmp_path / "report.json"
    code = run(["momenta", "--in", csv_path, "--in-format", "csv",
                "--k", K, "--theta", THETA, "--methods", "spectral",
                "--window", "hann", "--out", report_path])
    assert code == 0
    (entry,) = json.loads(report_path.read_text())
    assert entry["mean_lz"] == pytest.approx(1.0, abs=1e-3)
    # csv input without cone metadata cannot be decomposed
    assert run(["spectrum", "--in", csv_path, "--in-format", "csv"]) == 2
    # off-cone metadata is refused as it is for gen
    for k, theta in ((-6.28, THETA), (K, 0)):
        assert run(["momenta", "--in", csv_path, "--in-format", "csv", "--k", k,
                    "--theta", theta, "--methods", "spectral"]) == 2
