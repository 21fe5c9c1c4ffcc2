import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wavemom.cli import main
from wavemom.fieldio import write_field, write_field_csv
from wavemom.spectral import Cone
from wavemom.waves import BesselWave, FieldGrid, MathieuWave, sample_grid

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


def test_negative_leading_values_accepted(tmp_path, capsys):
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
    # exponents and a bare leading point are numbers too, in every comma slot
    plane = ["gen", "--family", "plane", "--k", 1.0, "--theta", 0.5, "--grid", "16,16"]
    for name, flags in [("decimal", ["--origin", "-0.001,0", "--z", "-0.001"]),
                        ("exponent", ["--origin", "-1e-3,0", "--z", "-1e-3"])]:
        assert run([*plane, *flags, "--out", tmp_path / f"{name}.hwmf"]) == 0
    assert (tmp_path / "exponent.hwmf").read_bytes() == (tmp_path / "decimal.hwmf").read_bytes()
    assert run([*plane, "--origin", "-1.5E+2,-.5", "--out", out]) == 0
    assert run(["momenta", "--in", field, "--f", "-1e-3"]) == 2
    assert capsys.readouterr().err == "error: semi-focal distance f must be positive, got -0.001\n"


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["gen", "--k", "1.0", "--theta", "0.5", "--out", tmp_path / "x"]) == 1
    assert run(["momenta", "--in", tmp_path / "x", "--methods", "psychic"]) == 1
    assert run(["gen", "--family", "mathieu-even", "--k", 1.0, "--theta", 0.5,
                "--n", 0, "--out", tmp_path / "x"]) == 1  # --f missing
    assert run(["mathieu-table", "--parity", "even", "--n", "0", "--q", "1",
                "--q-max", "2"]) == 1  # --q-steps missing
    capsys.readouterr()


@pytest.mark.parametrize("family,flag,value", [("plane", "--f", -5), ("bessel", "--phi", 0.3),
                                               ("plane", "--n", 7), ("mathieu-even", "--phi", 0)])
def test_gen_refuses_labels_the_family_does_not_carry(tmp_path, capsys, family, flag, value):
    out = tmp_path / "a.hwmf"
    assert run(["gen", "--family", family, "--k", 1, "--theta", 0.5, "--grid", "16,16",
                flag, value, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {flag} does not apply to {family} waves\n"
    assert not out.exists()


def test_range_errors_exit_2(tmp_path, capsys):
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 0.0,
                "--grid", "16,16", "--out", tmp_path / "x"]) == 2
    # Nyquist violation: theta = pi/2 with dx at the transverse period limit
    out = tmp_path / "n.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", math.pi / 2,
                "--grid", "16,16", "--dx", math.pi, "--out", out]) == 0
    assert run(["spectrum", "--in", out]) == 2
    # Bessel waves that M = 2^16 ring samples cannot synthesise: the reach of this grid,
    # k_t r = 50851 past the 48196 of n = 0, and orders with nu = M - |n| < 1
    capsys.readouterr()
    bessel = ["gen", "--family", "bessel", "--k", 1.0, "--theta", 0.5, "--grid", "16,16"]
    for n, dx, reach in ((3, 1e4, "50850.8"), (-65536, 0.1, "0.508508"),
                         (10 ** 30, 0.1, "0.508508")):
        assert run([*bessel, "--n", n, "--dx", dx, "--out", tmp_path / "b"]) == 2
        assert capsys.readouterr().err == \
            f"error: Bessel order {n} at k_t r = {reach} needs more than 65536 ring samples\n"
    assert not (tmp_path / "b").exists()


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
    for flag in shared + ("--methods", "--f", "--parity", "--n", "--out"):
        assert flag in text
    assert "--q" not in text  # q comes from the wave that --f, --parity and --n name


@pytest.mark.parametrize("key,value", [("k", "abc"), ("k", -6.28), ("theta", 0),
                                       ("z_plane", "x"), ("z_plane", math.nan),
                                       ("dx", -1.0), ("dx", math.nan), ("x0", math.inf),
                                       ("nx", 16.9), ("dx", True), ("k", "6.283185307179586"),
                                       ("k", None)])
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


@pytest.mark.parametrize("head", [b"[1, 2]", b"5", b'"HWMF1"', b"null"])
def test_non_object_header_exit_3(tmp_path, capsys, head):
    path = tmp_path / "list.hwmf"
    path.write_bytes(head + b"\n" + bytes(16 * 256))
    assert run(["momenta", "--in", path]) == 3
    assert capsys.readouterr().err == f"error: {path}: incomplete or invalid header: not a JSON object\n"


@pytest.mark.parametrize("nx,ny,payload", [(-3, -3, 144), (-1, -16, 256), (2 ** 70, 0, 0)])
def test_header_geometry_checked_before_the_payload(tmp_path, capsys, nx, ny, payload):
    path = tmp_path / "field.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 0.5,
                "--grid", "16,16", "--out", path]) == 0
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header.update(nx=nx, ny=ny)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(payload))
    assert run(["spectrum", "--in", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: incomplete or invalid header: grid must ")
    assert err.count("\n") == 1


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "wavemom.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "mathieu-table" in proc.stdout


# a fresh interpreter in which any import of scipy fails, as on an install without it
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""

_RUN_COMMANDS = _NO_SCIPY + """
import json
from wavemom import cli
assert not [name for name in sys.modules if name.startswith("scipy")]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
# and every wave family evaluates through both of its methods
from wavemom import spectral, waves
for family in waves.FAMILIES:
    labels = {"plane": {}, "bessel": {"n": 1}}.get(family, {"n": 1, "f": 0.4})
    wave = waves.make_wave(family, 6.0, 0.5, **labels)
    wave.sample([0.1, 0.2], [0.3], 0.0)
    spectral.analytic_ring(wave, 256)
"""


def _without_scipy(code, *args):
    """Run code in a fresh interpreter with scipy blocked, and require it to succeed."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY + code, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr


def test_commands_run_with_scipy_blocked(tmp_path):
    # Bessel grids are synthesised from their ring profile and the Mathieu
    # eigensolver is numpy's dense eigh, so no command needs scipy
    cone = ["--k", K, "--theta", THETA, "--grid", "32,32"]
    plane, bessel = tmp_path / "plane.hwmf", tmp_path / "bessel.hwmf"
    even, odd = tmp_path / "even.hwmf", tmp_path / "odd.hwmf"
    camera = tmp_path / "camera.csv"
    write_field_csv(sample_grid(BesselWave(K, THETA, 3), 32, 32, 0.1, 0.1), camera)
    commands = [
        ["gen", "--family", "plane", *cone, "--phi", 0.4, "--out", plane],
        ["gen", "--family", "bessel", *cone, "--n", 2, "--out", bessel],
        ["gen", "--family", "mathieu-even", "--k", K, "--theta", ELL_THETA, "--n", 2,
         "--f", ELL_F, "--grid", "32,32", "--dx", 0.06, "--out", even],
        ["gen", "--family", "mathieu-odd", "--k", K, "--theta", ELL_THETA, "--n", 1,
         "--f", ELL_F, "--grid", "32,32", "--dx", 0.06, "--out", odd],
        ["spectrum", "--in", bessel, "--out-summary", tmp_path / "summary.json"],
        ["spectrum", "--in", camera, "--in-format", "csv", "--k", K, "--theta", THETA,
         "--out-summary", tmp_path / "camera.json"],
        ["momenta", "--in", plane, "--methods", "spectral,grid", "--out", tmp_path / "plane.json"],
        ["momenta", "--in", even, "--methods", "spectral,grid,paper", "--f", ELL_F,
         "--parity", "even", "--n", 2, "--out", tmp_path / "even.json"],
        ["mathieu-table", "--parity", "even", "--n", 2, "--q", 1, "--out", tmp_path / "table.csv"],
    ]
    _without_scipy(_RUN_COMMANDS, json.dumps([[str(a) for a in argv] for argv in commands]))


def test_readme_library_sketch_runs_without_scipy():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    _without_scipy(sketch)


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
    # csv input without a cone is a usage error
    assert run(["spectrum", "--in", csv_path, "--in-format", "csv"]) == 1
    # off-cone metadata is refused as it is for gen
    for k, theta in ((-6.28, THETA), (K, 0)):
        assert run(["momenta", "--in", csv_path, "--in-format", "csv", "--k", k,
                    "--theta", theta, "--methods", "spectral"]) == 2


def test_csv_below_16x16_exits_3(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("x,y,re,im\n0,0,1,0\n1,0,1,0\n0,1,1,0\n1,1,1,0\n")
    assert run(["momenta", "--in", path, "--in-format", "csv", "--k", K,
                "--theta", THETA]) == 3
    assert capsys.readouterr().err == f"error: {path}: grid must be at least 16x16, got 2x2\n"


_PHASE_OVERFLOW = "largest phase k_t (max|x| + max|y|) + |k_z z_plane| is not finite"


@pytest.mark.parametrize("flags,message", [
    (["--family", "mathieu-even", "--n", 2, "--f", 0.5, "--dx", "inf"],
     "grid origin and spacings must be finite"),
    (["--family", "bessel", "--n", 2, "--origin", "inf,0"],
     "grid origin and spacings must be finite"),
    (["--family", "bessel", "--n", 2, "--dx", 1e308], "grid origin and spacings must be finite"),
    (["--family", "mathieu-odd", "--n", 1, "--f", 0.5, "--dy", 0],
     "grid spacings must be positive"),
    (["--family", "bessel", "--n", 2, "--z", 1e308], _PHASE_OVERFLOW),
    (["--family", "bessel", "--n", 2, "--origin", "1e308,0"], _PHASE_OVERFLOW),
])
def test_gen_checks_geometry_before_sampling(tmp_path, capsys, flags, message):
    assert run(["gen", "--k", K, "--theta", THETA, "--grid", "16,16", *flags,
                "--out", tmp_path / "x.hwmf"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.hwmf").exists()


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A directory holding a 16x16 Bessel field as field.hwmf and field.csv."""
    from wavemom.fieldio import read_field, write_field_csv
    d = tmp_path_factory.mktemp("fuzz")
    lam_t = 2.0 * math.pi / (K * math.sin(THETA))
    field = d / "field.hwmf"
    assert run(["gen", "--family", "bessel", "--k", K, "--theta", THETA, "--n", 1,
                "--grid", "16,16", "--dx", lam_t / 4.0, "--out", field]) == 0
    write_field_csv(read_field(field), d / "field.csv")
    return d


def test_cone_comes_from_one_place(tmp_path, small_inputs, capsys):
    csv_path, hwmf = small_inputs / "field.csv", small_inputs / "field.hwmf"
    # csv needs --k and --theta, checked before the file is opened
    for flags in ([], ["--k", K], ["--theta", THETA]):
        assert run(["momenta", "--in", csv_path, "--in-format", "csv", *flags]) == 1
        assert run(["spectrum", "--in", tmp_path / "missing.csv", "--in-format", "csv", *flags]) == 1
    # an hwmf file carries its cone, so --k/--theta are refused rather than ignored
    for flags in (["--k", 99], ["--theta", 1.2], ["--k", 99, "--theta", 1.2]):
        assert run(["momenta", "--in", hwmf, *flags, "--methods", "spectral"]) == 1
    capsys.readouterr()
    # a header without k is a format error (k null is a case of test_bad_header_values_exit_3)
    head, payload = hwmf.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header["k"]
    path = tmp_path / "cone.hwmf"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    assert run(["momenta", "--in", path, "--methods", "spectral"]) == 3
    assert capsys.readouterr().err == f"error: {path}: incomplete or invalid header: 'k'\n"


@pytest.mark.parametrize("key", ["z_plane", "x0"])
def test_overflowing_phase_exits_3(tmp_path, small_inputs, capsys, key):
    head, payload = (small_inputs / "field.hwmf").read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[key] = 1e308  # k_t and k_z both exceed 1 on this cone
    path = tmp_path / "far.hwmf"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    assert run(["momenta", "--in", path, "--methods", "spectral,grid"]) == 3
    assert capsys.readouterr().err == \
        f"error: {path}: incomplete or invalid header: {_PHASE_OVERFLOW}\n"


_PEAK_GROWTH = """
import sys

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024

import wavemom.cli
base = peak()
rc = wavemom.cli.main(sys.argv[1:])
print(rc, peak() - base)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_momenta_holds_the_field_about_once(tmp_path):
    # peak resident memory of the benchmark's momenta command beyond what
    # importing wavemom.cli takes; VmHWM rather than ru_maxrss, which keeps the
    # peak of the spawning test process across exec.  Measured 1.47x the field
    # at 1024^2 (1.84x while the ring sum made a complex block and its concatenation
    # per block of 128 rows, 4.2x when reading and the grid stencils made whole-grid copies)
    path = tmp_path / "field.hwmf"
    grid = sample_grid(BesselWave(K, THETA, 3), 1024, 1024, 0.0625, 0.0625)
    write_field(grid, path)
    proc = subprocess.run([sys.executable, "-c", _PEAK_GROWTH, "momenta", "--in", str(path),
                           "--methods", "spectral,grid", "--window", "hann",
                           "--out", str(tmp_path / "report.json")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    rc, grown = proc.stdout.split()
    assert rc == "0", proc.stderr
    assert int(grown) <= 1.6 * grid.values.nbytes


def test_overflow_in_a_command_exits_2(tmp_path, capsys):
    # a sample of 1e200 is finite, but its square is past double precision
    path = tmp_path / "loud.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", 0.5, "--grid", "16,16",
                "--out", path]) == 0
    head, payload = path.read_bytes().split(b"\n", 1)
    values = np.frombuffer(payload, dtype="<c16").copy()
    values[100] = 1e200
    path.write_bytes(head + b"\n" + values.tobytes())
    for methods in ("spectral", "grid"):
        assert run(["momenta", "--in", path, "--methods", methods]) == 2
        assert capsys.readouterr().err == "error: overflow encountered in square\n"


def test_momenta_of_a_zero_field_exits_2(tmp_path, capsys):
    path = tmp_path / "zero.hwmf"
    write_field(FieldGrid(32, 32, 0.1, 0.1, None, None, np.zeros((32, 32)), Cone(K, THETA)), path)
    assert run(["momenta", "--in", path, "--methods", "grid"]) == 2
    assert capsys.readouterr().err == \
        "error: field has zero norm on the grid quadrature region; mean of lz is undefined\n"


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """``gen``, ``spectrum`` and ``momenta`` write the same bytes at 1 and 2 BLAS threads.

    The grid route sums with numpy, not BLAS.  Ring extraction and synthesis
    keep a product's columns past a multiple of 8 in a product of their own; in
    one product those columns changed with the thread count, for the ring's x
    product on this 512^2 grid and for the synthesis of a 333 x 517 one.  Past
    256 rows, they also keep the rows past a multiple of 256 in a product of their
    own; in one product every column changed with the thread count, for the x
    product of a 600-wide strip and for the first of two synthesis tiles (M =
    2048, 682 rows) on a 512 x 16 strip at dx = 2.
    """
    root = Path(__file__).resolve().parents[1]
    field = tmp_path / "field.hwmf"
    strip = tmp_path / "strip.hwmf"
    for path, grid in ((field, "512,512"), (strip, "600,16")):
        assert run(["gen", "--family", "bessel", "--k", K, "--theta", THETA, "--n", 3,
                    "--grid", grid, "--dx", 0.0625, "--out", path]) == 0
    commands = {"gen": ["gen", "--family", "bessel", "--k", K, "--theta", THETA, "--n", 3,
                        "--grid", "333,517", "--dx", 0.0625, "--out", "odd.hwmf"],
                "tiles": ["gen", "--family", "bessel", "--k", K, "--theta", THETA, "--n", 3,
                          "--grid", "512,16", "--dx", 2, "--out", "tiles.hwmf"],
                "strip": ["spectrum", "--in", strip, "--window", "hann",
                          "--out-ring", "strip-ring.csv", "--out-oam", "strip-oam.csv"],
                "grid": ["momenta", "--in", field, "--methods", "grid", "--f", "0.5"],
                "spectrum": ["spectrum", "--in", field, "--window", "hann",
                             "--out-ring", "ring.csv", "--out-oam", "oam.csv"],
                "momenta": ["momenta", "--in", field, "--methods", "spectral,grid", "--window", "hann"]}
    files = ("odd.hwmf", "tiles.hwmf", "ring.csv", "oam.csv", "strip-ring.csv", "strip-oam.csv")
    outputs = {}
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        for name, args in commands.items():
            proc = subprocess.run([sys.executable, "-m", "wavemom.cli", *map(str, args)],
                                  capture_output=True, timeout=120, cwd=work,
                                  env={**os.environ, "PYTHONPATH": str(root / "src"),
                                       "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs[threads, name] = proc.stdout
        for name in files:
            outputs[threads, name] = (work / name).read_bytes()
    for key in [*commands, *files]:
        assert outputs["1", key] == outputs["2", key], key


def test_report_q_is_the_wave_q(tmp_path, monkeypatch):
    from wavemom import momenta
    from wavemom.waves import MathieuWave
    path = tmp_path / "ellipse.hwmf"
    assert run(["gen", "--family", "mathieu-even", "--k", 3.0, "--theta", 0.5, "--n", 2,
                "--f", 0.3, "--grid", "16,16", "--dx", 0.05, "--out", path]) == 0
    seen = []
    solve = momenta.mathieu_eigen
    monkeypatch.setattr(momenta, "mathieu_eigen", lambda *a: seen.append(a[2]) or solve(*a))
    assert run(["momenta", "--in", path, "--methods", "paper", "--f", 0.3,
                "--parity", "even", "--n", 2, "--out", tmp_path / "r.json"]) == 0
    q = MathieuWave(3.0, 0.5, 2, "even", 0.3).q
    assert q == 0.046544391530850854 and set(seen) == {q}


_JUNK = ["x", "", " ", "nan", "-inf", "1e999", "1e", "#", "0x1", "1_0", "\u0661", "\ufffd",
         "1,2", "-0", "1e-320", "\udcff"]


def _mutate_csv(lines, data):
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["drop", "duplicate", "ragged", "junk", "blank"]))
        n = data.draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[n]
        elif op == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[n])
        elif op == "ragged":
            cut = lines[n].rsplit(",", 1)[0]
            lines[n] = data.draw(st.sampled_from([cut, lines[n] + ",0"]))
        elif op == "junk":
            parts = lines[n].split(",")
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(st.sampled_from(_JUNK))
            lines[n] = ",".join(parts)
        else:
            lines.insert(n, data.draw(st.sampled_from(["", "  ", "# comment"])))
    # surrogateescape turns the junk token "\udcff" into the non-UTF-8 byte 0xff
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


_HEADER_VALUES = [None, "x", -1, 0, 1, 15, 17, 10**12, -0.0, 1e-300, 1e300, 1e308,
                  float("nan"), float("inf"), [], {}, True]


def _mutate_hwmf(blob, data):
    head, payload = blob.split(b"\n", 1)
    if data.draw(st.booleans()):
        header = json.loads(head)
        key = data.draw(st.sampled_from(sorted(header) + ["extra"]))
        if data.draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = data.draw(st.sampled_from(_HEADER_VALUES))
        head = json.dumps(header).encode("utf-8")
    else:
        payload = bytearray(payload)
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(0, len(payload) - 1))
            payload[n] = data.draw(st.integers(0, 255))
        cut = data.draw(st.sampled_from([None, -1, -16, 16]))
        payload = bytes(payload) if cut is None else \
            (payload[:cut] if cut < 0 else bytes(payload) + b"\0" * cut)
    return head + b"\n" + payload


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_momenta_survives_mutated_inputs(small_inputs, tmp_path_factory, data):
    blob = (small_inputs / "field.hwmf").read_bytes()
    lines = (small_inputs / "field.csv").read_text().splitlines()
    path = tmp_path_factory.mktemp("case") / "input"
    if data.draw(st.booleans()):
        path.write_bytes(_mutate_csv(lines, data))
        fmt = ["--in-format", "csv", "--k", K, "--theta", THETA]
    else:
        path.write_bytes(_mutate_hwmf(blob, data))
        fmt = []
    assert run(["momenta", "--in", path, *fmt, "--methods", "spectral,grid"]) in (0, 2, 3)


# ------------------------------------------------------ elliptic labels

ELL_THETA = math.pi / 6
ELL_F = 2.0 / (K * math.sin(ELL_THETA))  # q = 1 on this cone


@pytest.fixture(scope="module")
def mathieu_input(tmp_path_factory):
    """A 32x32 even n = 2 Mathieu field at q = 1, as an HWMF file."""
    path = tmp_path_factory.mktemp("ellipse") / "field.hwmf"
    assert run(["gen", "--family", "mathieu-even", "--k", K, "--theta", ELL_THETA, "--n", 2,
                "--f", ELL_F, "--grid", "32,32", "--dx", 0.06, "--out", path]) == 0
    return path


_Q_CAP = "q = (f k_t / 2)^2 exceeds the supported maximum 1e+06 (f k_t / 2 = 1.5708e+300)"
_LABELS_TOGETHER = "--parity and --n apply only with --f, --parity and --n together"


@pytest.mark.parametrize("flags,code,message", [
    # q has one source, the wave that --f, --parity and --n name
    (["--f", 0.3, "--q", 7, "--parity", "even", "--n", 2], 1, "unrecognized arguments: --q 7"),
    (["--methods", "paper", "--f", 0, "--parity", "even", "--n", 2], 2,
     "semi-focal distance f must be positive, got 0.0"),
    (["--methods", "paper", "--f=-0.3", "--parity", "even", "--n", 2], 2,
     "semi-focal distance f must be positive, got -0.3"),
    (["--f=-0.3", "--parity", "even", "--n", 2], 2, "semi-focal distance f must be positive, got -0.3"),
    (["--f", 1e300, "--parity", "even", "--n", 2], 2, _Q_CAP),
    (["--methods", "paper", "--parity", "even", "--n", 2], 1,
     "--methods paper needs --f, --parity and --n"),
    # an f given without --parity/--n is checked all the same, whatever the methods
    (["--methods", "spectral", "--f", -5], 2, "semi-focal distance f must be positive, got -5.0"),
    (["--methods", "grid", "--f", 1e150], 2,
     "q = (f k_t / 2)^2 exceeds the supported maximum 1e+06 (f k_t / 2 = 1.5708e+150)"),
    # --parity and --n name a wave only together with --f, as gen refuses a label that does not apply
    (["--methods", "spectral", "--n", 5, "--parity", "odd"], 1, _LABELS_TOGETHER),
    (["--f", 0.3, "--parity", "even"], 1, _LABELS_TOGETHER),
    (["--f", 0.3, "--n", 2], 1, _LABELS_TOGETHER),
    (["--methods", "grid", "--n", 2], 1, _LABELS_TOGETHER),
])
def test_momenta_elliptic_labels_name_one_wave(mathieu_input, capsys, flags, code, message):
    assert run(["momenta", "--in", mathieu_input, *flags]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_momenta_refuses_a_repeated_method(small_inputs, capsys):
    assert run(["momenta", "--in", small_inputs / "field.hwmf", "--methods", "grid,grid,spectral"]) == 1
    assert capsys.readouterr().err == "error: --methods names grid more than once\n"


def test_gen_refuses_q_beyond_the_cap(tmp_path, capsys):
    assert run(["gen", "--family", "mathieu-even", "--k", K, "--theta", ELL_THETA, "--n", 2,
                "--f", 1e300, "--grid", "16,16", "--out", tmp_path / "x.hwmf"]) == 2
    assert capsys.readouterr().err == f"error: {_Q_CAP}\n"


def test_gen_refuses_q_where_no_radial_xi_is_usable(tmp_path, capsys):
    # q = (6 k sin 0.5 / 2)^2 = 81.7 > 64: the radial series keeps 7 digits at no xi
    assert run(["gen", "--family", "mathieu-even", "--k", K, "--theta", 0.5, "--n", 2, "--f", 6,
                "--grid", "32,32", "--dx", 0.05, "--out", tmp_path / "x.hwmf"]) == 2
    assert capsys.readouterr().err == ("error: hyperbolic radial series is unusable at q = 81.6666 "
                                       "(cancellation exceeds double precision at every xi)\n")
    assert not (tmp_path / "x.hwmf").exists()


def _valid_wave(f, parity, n):
    try:
        MathieuWave(K, ELL_THETA, n, parity, f)
    except ValueError:
        return False
    return True


_F_EDGES = [0.0, -0.0, -0.3, -1e300, math.nan, math.inf, -math.inf, 1e300, 5e-324, 2.2e-308,
            ELL_F, 1e3, 1e4]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=st.one_of(st.sampled_from(_F_EDGES), st.floats()),
       parity=st.sampled_from(["even", "odd"]), n=st.integers(-2, 520),
       methods=st.sampled_from(["paper", "grid,paper", "spectral,grid,paper"]))
@example(f=1e300, parity="even", n=2, methods="paper")
@example(f=math.inf, parity="odd", n=1, methods="paper")
@example(f=math.nan, parity="even", n=2, methods="grid,paper")
@example(f=5e-324, parity="even", n=2, methods="spectral,grid,paper")
@example(f=ELL_F, parity="even", n=2, methods="spectral,grid,paper")
def test_momenta_elliptic_labels_fuzz(mathieu_input, tmp_path_factory, f, parity, n, methods):
    out = tmp_path_factory.mktemp("labels") / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["momenta", "--in", mathieu_input, "--methods", methods,
                    f"--f={f!r}", "--parity", parity, "--n", n, "--out", out])
    assert code in (0, 1, 2)
    if code == 0:
        assert math.isfinite(f) and f > 0.0 and _valid_wave(f, parity, n)
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# ------------------------------------------------------ size caps

@pytest.mark.parametrize("digits", [300, 400])
def test_gen_refuses_a_huge_grid_before_any_array(tmp_path, capsys, digits):
    nx = 10 ** digits
    assert run(["gen", "--family", "plane", "--k", 1, "--theta", 0.5, "--grid", f"{nx},16",
                "--out", tmp_path / "x.hwmf"]) == 2
    assert capsys.readouterr().err == f"error: grid must hold at most 67108864 samples, got {nx}x16\n"


@pytest.mark.parametrize("command", ["spectrum", "momenta"])
def test_ring_samples_cap(small_inputs, capsys, command):
    assert run([command, "--in", small_inputs / "field.hwmf",
                "--ring-samples", 2 ** 62]) == 2
    assert capsys.readouterr().err == \
        f"error: ring sample count must be a power of two in [256, 65536], got {2 ** 62}\n"


_EMPTY_WINDOW = "empty charge range [5, -5]"
_RING_100 = "ring sample count must be a power of two in [256, 65536], got 100"


@pytest.mark.parametrize("flags,message", [
    (["--ring-samples", 100], _RING_100),
    (["--n-range", "5,-5"], _EMPTY_WINDOW),
    (["--n-range", "-200,200", "--ring-samples", 256],
     "charge range [-200, 200] exceeds the 256 ring samples"),
])
@pytest.mark.parametrize("methods", ["grid", "spectral,grid"])
def test_reader_options_checked_whatever_the_methods(small_inputs, capsys, flags, message, methods):
    # the grid route reads neither option, yet a request it cannot honour is refused
    assert run(["momenta", "--in", small_inputs / "field.hwmf", "--methods", methods, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["spectrum"], ["momenta", "--methods", "spectral"]])
@pytest.mark.parametrize("window", [(10 ** 23, 10 ** 23), (2 ** 63 - 1, 2 ** 63 - 1),
                                    (-2 ** 53 - 1, 0), (0, 2 ** 53 + 1)])
def test_charge_window_within_exact_float_integers(tmp_path, capsys, command, window):
    # charges are weighted in float64, which holds integers exactly up to 2^53;
    # the window is refused before the file opens
    assert run([*command, "--in", tmp_path / "missing.hwmf", "--n-range", "{},{}".format(*window)]) == 2
    assert capsys.readouterr().err == "error: charge range [{}, {}] exceeds |n| <= 2^53\n".format(*window)


@pytest.mark.parametrize("command", [["spectrum"], ["momenta", "--methods", "spectral"]])
def test_charge_window_at_2_to_the_53(small_inputs, capsys, command):
    edge = 2 ** 53
    assert run([*command, "--in", small_inputs / "field.hwmf", "--n-range", f"{-edge},{-edge}"]) == 0
    assert str(-edge) in capsys.readouterr().out


@pytest.mark.parametrize("command", [["spectrum"], ["momenta", "--methods", "grid"]])
@pytest.mark.parametrize("flags,code,message", [
    # usage errors, then option ranges, then the file
    (["--n-range", "x,y"], 1, "--n-range: invalid literal for int() with base 10: 'x'"),
    (["--n-range", "1,2,3"], 1, "--n-range expects two comma-separated values, got '1,2,3'"),
    (["--n-range", "x,y", "--k", 1], 1, "--n-range: invalid literal for int() with base 10: 'x'"),
    (["--ring-samples", 100, "--k", 1], 1,
     "--k/--theta are for csv input; an hwmf file carries its cone"),
    (["--ring-samples", 100], 2, _RING_100),
    (["--ring-samples", 100, "--n-range", "5,-5"], 2, _RING_100),
    (["--n-range", "5,-5"], 2, _EMPTY_WINDOW),
])
def test_front_end_check_order(tmp_path, capsys, command, flags, code, message):
    assert run([*command, "--in", tmp_path / "missing.hwmf", *flags]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_option_ranges_before_the_fields_cone(tmp_path, small_inputs, capsys):
    # a field past Nyquist, and an --f off the cone, are found only once the file is read
    out = tmp_path / "n.hwmf"
    assert run(["gen", "--family", "plane", "--k", 1.0, "--theta", math.pi / 2,
                "--grid", "16,16", "--dx", math.pi, "--out", out]) == 0
    assert run(["spectrum", "--in", out, "--n-range", "5,-5"]) == 2
    assert capsys.readouterr().err == f"error: {_EMPTY_WINDOW}\n"
    assert run(["momenta", "--in", small_inputs / "field.hwmf", "--f", -5,
                "--ring-samples", 100]) == 2
    assert capsys.readouterr().err == f"error: {_RING_100}\n"


def test_report_writer(small_inputs, tmp_path):
    path = tmp_path / "report.json"
    assert run(["momenta", "--in", small_inputs / "field.hwmf", "--methods", "spectral",
                "--out", path]) == 0
    blob = json.loads(path.read_text())
    assert isinstance(blob, list) and len(blob) == 1
    assert set(blob[0]) == {"mean_lz", "mean_px", "mean_py", "mean_pz",
                            "elliptic_invariant", "method", "norm_used",
                            "window", "notes"}
    assert blob[0]["elliptic_invariant"] is None


@pytest.mark.parametrize("argv,flag", [
    (["spectrum", "--window", "hann"], "--out-summary"),
    (["momenta", "--methods", "spectral,grid"], "--out"),
    (["mathieu-table", "--parity", "odd", "--n", 3, "--q", 0.5, "--q-max", 2, "--q-steps", 3],
     "--out"),
])
def test_one_text_sink(small_inputs, tmp_path, capsys, argv, flag):
    # stdout and the output file get the same bytes
    if argv[0] != "mathieu-table":
        argv = [*argv, "--in", small_inputs / "field.hwmf"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert run([*argv, flag, path]) == 0
    assert capsys.readouterr().out == ""
    assert printed and path.read_bytes() == printed.encode("utf-8")


def test_q_steps_cap(capsys):
    assert run(["mathieu-table", "--parity", "even", "--n", 2, "--q", 0, "--q-max", 1,
                "--q-steps", 10 ** 20]) == 1
    assert capsys.readouterr().err == \
        f"error: --q-steps must lie in [2, 100000], got {10 ** 20}\n"


@pytest.mark.parametrize("flags,message", [
    (["--q", 0, "--q-max", "inf"], "separation parameter --q-max must be finite and >= 0, got inf"),
    (["--q", -1e308, "--q-max", 1e308], "separation parameter --q must be finite and >= 0, got -1e+308"),
    (["--q", 0, "--q-max", 2e6], "--q-max = 2e+06 exceeds supported maximum 1e+06"),
])
def test_mathieu_table_checks_its_q_range_at_entry(capsys, flags, message):
    assert run(["mathieu-table", "--parity", "even", "--n", 2, *flags, "--q-steps", 3]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_mathieu_table_at_tiny_q(capsys):
    # ce_2 = cos 2u + q / 4 + O(q^2): A_0 = q / 4 and a_2 = 4 to double precision
    assert run(["mathieu-table", "--parity", "even", "--n", 2, "--q", 1e-100]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:5] for row in rows] == [["ce-even", "2", "1e-100", "4", "0"],
                                         ["ce-even", "2", "1e-100", "4", "2"]]
    assert [float(row[5]) for row in rows] == pytest.approx([2.5e-101, 1.0], rel=1e-12, abs=0.0)


def test_mathieu_table_prints_each_q_as_swept(capsys):
    # q = 0 and q = -0 are cached apart, so each row prints the q it was solved for
    assert run(["mathieu-table", "--parity", "odd", "--n", 3, "--q", 0, "--q-max", "-0",
                "--q-steps", 3]) == 0
    qs = [line.split(",")[2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert qs == ["0"] * (2 * len(qs) // 3) + ["-0"] * (len(qs) // 3)


def test_benchmark_tracer_binds_every_traced_name():
    # perfbench/traced.py wraps public functions by name; a rename must fail here too
    root = Path(__file__).resolve().parents[1]
    script = ("import sys; sys.path.insert(0, 'perfbench'); "
              "from traced import Tracer, install_all; install_all(Tracer())")
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
