import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from wavemom import cli, fieldio
from wavemom.errors import FormatError
from wavemom.fieldio import (
    read_field,
    read_field_csv,
    write_field,
    write_field_csv,
    write_oam_csv,
    write_ring_csv,
)
from wavemom.spectral import Cone, OamSpectrum, RingSpectrum, ring_azimuths
from wavemom.waves import BesselWave, FieldGrid, sample_grid


def random_grid(seed=0, nx=24, ny=18):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
    return FieldGrid(nx, ny, 0.125, 0.0625, -1.5, -0.5625, values, Cone(2.0, 0.7), 0.25,
                     "noise sample")


def test_binary_round_trip_bit_exact(tmp_path):
    g = random_grid()
    path = tmp_path / "field.hwmf"
    write_field(g, path)
    back = read_field(path)
    assert back.values.tobytes() == g.values.tobytes()
    assert (back.nx, back.ny, back.dx, back.dy) == (g.nx, g.ny, g.dx, g.dy)
    assert (back.x0, back.y0) == (g.x0, g.y0)
    assert back.meta == g.meta and type(back.meta) is Cone
    assert (back.z_plane, back.description) == (g.z_plane, g.description)


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
    # the real part of an early sample, and the imaginary part of one past the first
    # slab of FieldGrid's finiteness check, which read_field relies on
    for nx, ny, bad_index, part in ((24, 18, 7, 0), (300, 400, 70001, 1)):
        g = random_grid(nx=nx, ny=ny)
        path = tmp_path / "field.hwmf"
        write_field(g, path)
        raw = bytearray(path.read_bytes())
        header_len = raw.index(b"\n") + 1
        start = header_len + 16 * bad_index + 8 * part
        raw[start:start + 8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            read_field(path)
        assert str(exc.value) == (f"{path}: non-finite sample at index {bad_index} "
                                  f"(byte offset {header_len + 16 * bad_index})")


def _fifo(tmp_path, raw):
    """A named pipe in tmp_path and the thread that writes raw into it once it is opened."""
    path = tmp_path / "field.fifo"
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(raw)
        except BrokenPipeError:
            pass

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return path, thread


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need a POSIX system")
@pytest.mark.parametrize("tail", [0, -40, 16, 4 * 16 * 24 * 18],
                         ids=["whole", "truncated", "extra-sample", "four-payloads"])
def test_read_field_through_a_pipe(tmp_path, tail):
    # a pipe has no size to look up, so the payload checks must come from the bytes read
    g = random_grid()
    path = tmp_path / "field.hwmf"
    write_field(g, path)
    raw = path.read_bytes()
    raw = raw[:tail] if tail < 0 else raw + b"\x00" * tail
    path.write_bytes(raw)
    fifo, thread = _fifo(tmp_path, raw)
    if tail == 0:
        assert read_field(fifo).values.tobytes() == g.values.tobytes()
    else:
        with pytest.raises(FormatError) as from_file:
            read_field(path)
        with pytest.raises(FormatError) as from_pipe:
            read_field(fifo)
        assert str(from_pipe.value) == str(from_file.value).replace(str(path), str(fifo))
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need a POSIX system")
def test_csv_through_a_pipe_is_refused_by_name(tmp_path, capsys):
    # the CSV reader passes over its file more than once; a pipe was refused with
    # "underlying stream is not seekable", which did not say which input or why
    g = random_grid(nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    message = "CSV input must be a seekable file, as it is read more than once"

    def within_10_s(call):
        # a reader that opened the pipe a second time would wait for a writer for ever
        result = []
        reader = threading.Thread(target=lambda: result.append(call()), daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "the reader is blocked on the pipe"
        return result[0]

    fifo, thread = _fifo(tmp_path, path.read_bytes())
    error = within_10_s(lambda: pytest.raises(FormatError, read_field_csv, fifo, 2.0, 0.7))
    assert str(error.value) == f"{fifo}: {message}"
    thread.join(timeout=10)
    assert not thread.is_alive()
    fifo.unlink()
    fifo, thread = _fifo(tmp_path, path.read_bytes())
    rc = within_10_s(lambda: cli.main(["momenta", "--in", str(fifo), "--in-format", "csv",
                                       "--k", "2.0", "--theta", "0.7"]))
    assert rc == 3 and capsys.readouterr().err == f"error: {fifo}: {message}\n"
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert read_field_csv(path, 2.0, 0.7).values.tobytes() == g.values.tobytes()  # a file still reads


def test_long_tail_is_counted_in_chunks(tmp_path):
    # 64 MB after a 16^2 payload: the reader stops counting once the tail outgrows
    # the payload, so it neither holds the tail (was a 128 MB peak) nor reads all of it
    g = random_grid(nx=16, ny=16)
    path = tmp_path / "field.hwmf"
    write_field(g, path)
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size + 64 * 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as exc:
            read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == \
        f"{path}: payload holds more than 512 samples but the header declares nx*ny = 256"
    assert peak <= 2 ** 20


def test_hwmf_io_working_memory(tmp_path):
    # the payload moves straight between the file and the sample array: writing
    # makes no copy of it (was 1.0x) and reading holds it once, with one finiteness
    # check in slabs (1.017x measured; 1.13x with a grid-sized check, 2.2x with a copy)
    g = sample_grid(BesselWave(2.0 * math.pi, 0.3, 3), 512, 512, 0.05, 0.05)
    path = tmp_path / "field.hwmf"
    tracemalloc.start()
    try:
        write_field(g, path)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_field(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == g.values.tobytes()
    assert written <= 0.1 * g.values.nbytes
    assert read <= 1.05 * g.values.nbytes


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
    ("z_plane", math.nan, "header: slice plane z must be finite"),
    ("dx", -1.0, "header: grid spacings must be positive"),
    ("dx", math.nan, "header: grid spacings must be positive"),
    ("x0", math.inf, "header: grid origin and spacings must be finite"),
    ("nx", 16.9, "header: nx must be a JSON integer, got 16.9"),
    ("dx", True, "header: dx must be a JSON number, got true"),
    ("k", "6.283185307179586", 'header: k must be a JSON number, got "6.283185307179586"'),
    ("k", None, "header: k must be a JSON number, got null"),
    ("z_plane", 1.5e308, r"header: largest phase k_t \(max\|x\| \+ max\|y\|\) \+ \|k_z z_plane\|"),
    ("x0", 1.5e308, "header: largest phase"),
])
def test_bad_header_values_rejected(tmp_path, key, value, message):
    path = tmp_path / "field.hwmf"
    write_field(random_grid(), path)
    _set_header(path, key, value)
    with pytest.raises(FormatError, match=message):
        read_field(path)


@pytest.mark.parametrize("line,reason", [
    (b"not json\n", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"magic": "HWMF1\xff"}\n', "'utf-8' codec can't decode byte 0xff in position 16: "
                                  "invalid start byte"),
], ids=["not-json", "not-utf8"])
def test_unparseable_header_rejected(tmp_path, line, reason):
    path = tmp_path / "field.hwmf"
    path.write_bytes(line + bytes(16 * 256))
    with pytest.raises(FormatError) as exc:
        read_field(path)
    assert str(exc.value) == f"{path}: unparseable header: {reason}"


def test_missing_header_newline(tmp_path):
    path = tmp_path / "field.hwmf"
    path.write_bytes(b"{}" * 10)
    with pytest.raises(FormatError, match="header"):
        read_field(path)


def test_csv_round_trip(tmp_path):
    g = random_grid(seed=3)
    values = g.values.copy()
    values[0, :2] = [complex(0.0, -0.0), complex(-0.0, 5e-324)]
    g.values = values  # a grid is mutable: perfbench/make_camera.py adds noise this way
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    back = read_field_csv(path, k=g.meta.k, theta=g.meta.theta)
    # 17 significant digits round-trip doubles exactly, signed zeros included
    assert back.values.tobytes() == g.values.tobytes()
    assert back.nx == g.nx and back.ny == g.ny
    assert back.dx == pytest.approx(g.dx, rel=1e-12)
    assert back.x0 == pytest.approx(g.x0, rel=1e-12)
    assert back.meta == g.meta and type(back.meta) is Cone


def test_csv_accepts_shuffled_rows(tmp_path):
    g = random_grid(seed=4, nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(0)
    body = [lines[i + 1] for i in rng.permutation(len(lines) - 1)]
    path.write_text("\n".join(body) + "\n")  # also drop the header line
    back = read_field_csv(path, 2.0, 0.7)
    assert np.abs(back.values - g.values).max() <= 1e-15 * np.abs(g.values).max()


def test_csv_gap_names_first_missing_node(tmp_path):
    g = random_grid(seed=5, nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    dropped = lines[:1] + lines[2:]  # remove the first data row
    path.write_text("\n".join(dropped) + "\n")
    with pytest.raises(FormatError, match="missing node"):
        read_field_csv(path, 2.0, 0.7)


def test_csv_duplicate_node_rejected(tmp_path):
    g = random_grid(seed=6, nx=16, ny=16)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_field_csv(path, 2.0, 0.7)


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
        read_field_csv(path, 2.0, 0.7)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("x,y,re,im\n0,0,1\n")
    with pytest.raises(FormatError, match="columns"):
        read_field_csv(path, 2.0, 0.7)


def _csv_lines(tmp_path, seed=8, nx=16, ny=16):
    g = random_grid(seed=seed, nx=nx, ny=ny)
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    return g, path, path.read_text().splitlines()


def _read_error(path):
    with pytest.raises(FormatError) as exc:
        read_field_csv(path, 2.0, 0.7)
    return str(exc.value)


@pytest.mark.parametrize("variant", ["blank", "whitespace", "crlf", "cr", "no-header", "bom",
                                     "bom-no-header"])
def test_csv_accepted_layouts(tmp_path, variant):
    g, path, lines = _csv_lines(tmp_path)
    if variant == "blank":
        lines[3:3] = ["", ""]
        lines.append("")
    elif variant == "whitespace":
        lines[5:5] = ["   ", "\t \t"]
    elif variant.endswith("no-header"):
        lines = lines[1:]  # the first row is then data, not a header
    newline = {"crlf": "\r\n", "cr": "\r"}.get(variant, "\n")
    # spreadsheet tools start a UTF-8 CSV with a byte-order mark
    bom = b"\xef\xbb\xbf" if variant.startswith("bom") else b""
    path.write_bytes(bom + (newline.join(lines) + newline).encode("utf-8"))
    back = read_field_csv(path, 2.0, 0.7)
    assert back.values.tobytes() == g.values.tobytes()
    assert (back.nx, back.ny) == (g.nx, g.ny)


def _reference_read(path):
    """The row-at-a-time placement the bulk reader must reproduce bit for bit."""
    rows = [tuple(float(p) for p in line.split(","))
            for line in path.read_text().splitlines()[1:] if line.strip()]
    xs = np.unique([r[0] for r in rows])
    ys = np.unique([r[1] for r in rows])
    dx, dy = float(np.median(np.diff(xs))), float(np.median(np.diff(ys)))
    values = np.zeros((len(ys), len(xs)), dtype=np.complex128)
    for xv, yv, re, im in rows:
        values[int(round((yv - ys[0]) / dy)), int(round((xv - xs[0]) / dx))] = complex(re, im)
    return values, dx, dy, float(xs[0]), float(ys[0])


def test_csv_reader_matches_row_loop(tmp_path):
    g = random_grid(seed=9, nx=20, ny=17)
    g.values[0, :3] = [-0.0 - 0.0j, complex(0.0, -0.0), complex(-0.0, 5e-324)]
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    order = np.random.default_rng(1).permutation(len(lines) - 1)
    path.write_text("\n".join(lines[:1] + [lines[i + 1] for i in order]) + "\n")
    back = read_field_csv(path, 2.0, 0.7)
    values, dx, dy, x0, y0 = _reference_read(path)
    assert back.values.tobytes() == values.tobytes()
    assert (back.dx, back.dy, back.x0, back.y0) == (dx, dy, x0, y0)


def _lattice_of(rows):
    """(nx, ny) of a lattice of the given number of rows, both at least 16."""
    ny = max(d for d in range(16, math.isqrt(rows) + 1) if rows % d == 0)
    return rows // ny, ny


@pytest.mark.parametrize("chunks,extra", [(1, -1), (1, 0), (1, 1), (4, 128)],
                         ids=["R-1", "R", "R+1", "4R+128"])
def test_csv_chunks_match_row_loop(tmp_path, chunks, extra):
    # the bulk parse reads _ROWS rows at a time: a lattice just short of, at and
    # past one chunk, and one of five chunks, read as the row loop places them
    nx, ny = _lattice_of(chunks * fieldio._ROWS + extra)
    g, path, lines = _csv_lines(tmp_path, seed=11, nx=nx, ny=ny)
    order = np.random.default_rng(3).permutation(len(lines) - 1)
    path.write_text("\n".join(lines[:1] + [lines[i + 1] for i in order]) + "\n")
    back = read_field_csv(path, 2.0, 0.7)
    values, dx, dy, x0, y0 = _reference_read(path)
    assert back.values.tobytes() == values.tobytes() == g.values.tobytes()
    assert (back.dx, back.dy, back.x0, back.y0) == (dx, dy, x0, y0)


def test_csv_row_loop_reads_what_float_reads(tmp_path):
    # numpy refuses the token 1_0 and float() reads 10, so this lattice is read row by row
    _, path, lines = _csv_lines(tmp_path)
    x, y, re, im = lines[5].split(",")
    lines[5] = f"{x},{y},1_0,{im}"
    path.write_text("\n".join(lines) + "\n")
    back = read_field_csv(path, 2.0, 0.7)
    values, dx, dy, x0, y0 = _reference_read(path)
    assert back.values.tobytes() == values.tobytes()
    assert (back.dx, back.dy, back.x0, back.y0) == (dx, dy, x0, y0)
    assert back.values[0, 4] == complex(10.0, float(im))


@pytest.mark.parametrize("rows,message", [
    (["0,0,1,0", "0,1,1,0"], "x axis has fewer than two distinct values"),
    ([f"{x},{y},1,0" for y in (0, 1) for x in (0, 1, 3)], "x coordinates are not uniformly spaced"),
    ([], "no data rows"),
], ids=["one-x", "uneven-x", "header-only"])
def test_csv_lattice_refusals(tmp_path, rows, message):
    path = tmp_path / "field.csv"
    path.write_text("\n".join(["x,y,re,im", *rows]) + "\n")
    assert _read_error(path) == f"{path}: {message}"


def test_csv_header_only_on_line_one(tmp_path):
    _, path, lines = _csv_lines(tmp_path)
    path.write_text("\n" + "\n".join(lines) + "\n")
    assert _read_error(path) == \
        f"{path}:2: unparseable number: could not convert string to float: 'x'"


def test_csv_ragged_row_names_line(tmp_path):
    _, path, lines = _csv_lines(tmp_path)
    lines[3] = lines[3].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == f"{path}:4: expected 4 columns, got 3"


def test_csv_junk_token_names_line(tmp_path):
    _, path, lines = _csv_lines(tmp_path)
    x, y, re, im = lines[6].split(",")
    lines[6] = f"{x},{y},x,{im}"
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == \
        f"{path}:7: unparseable number: could not convert string to float: 'x'"


@pytest.mark.parametrize("case", ["ragged-last", "ragged-first", "ragged-alone", "junk",
                                  "non-finite", "blank", "whitespace"])
def test_csv_errors_past_the_first_chunk(tmp_path, case):
    # the row loop names the line whichever chunk of the bulk parse refused it
    r = fieldio._ROWS
    _, path, lines = _csv_lines(tmp_path, nx=64, ny=2 * r // 64)
    first = r + 1  # lines[first] is the second chunk's first row, file line first + 1
    x, y, re, im = lines[first + 5].split(",")
    if case == "ragged-last":  # the first chunk's last row
        lines[first - 1] = lines[first - 1].rsplit(",", 1)[0]
        expected = f"{first}: expected 4 columns, got 3"
    elif case == "ragged-first":
        lines[first] = lines[first].rsplit(",", 1)[0]
        expected = f"{first + 1}: expected 4 columns, got 3"
    elif case == "ragged-alone":  # a third chunk of one row, which loadtxt reads as 3 columns
        lines.append("0,0,1")
        expected = f"{len(lines)}: expected 4 columns, got 3"
    elif case == "junk":
        lines[first + 5] = f"{x},{y},x,{im}"
        expected = f"{first + 6}: unparseable number: could not convert string to float: 'x'"
    elif case == "non-finite":
        lines[first + 5] = f"{x},{y},{re},inf"
        expected = f"{first + 6}: non-finite value"
    else:  # a skipped line on the boundary moves the later line numbers
        lines[first + 5] = f"{x},{y},{re},inf"
        lines.insert(first, "" if case == "blank" else " \t ")
        expected = f"{first + 7}: non-finite value"
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == f"{path}:{expected}"


def test_csv_comment_lines_rejected(tmp_path):
    _, path, lines = _csv_lines(tmp_path)
    lines.insert(1, "# comment")
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == f"{path}:2: expected 4 columns, got 1"


def test_csv_off_lattice_message(tmp_path):
    # a column shifted by 5e-10 passes the 1e-9 uniform-spacing check on the
    # x axis but misses its node by more than 1e-6 * dx
    g = FieldGrid(16, 16, 1e-4, 1e-4, 0.0, 0.0, random_grid(seed=10, nx=16, ny=16).values,
                  Cone(2.0, 0.7))
    path = tmp_path / "field.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    for n, line in enumerate(lines[1:], 1):
        x, rest = line.split(",", 1)
        if float(x) == g.x()[5]:
            lines[n] = f"{float(x) + 5e-10!r},{rest}"
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == f"{path}: point (0.0005, 0) is off the inferred lattice"


def test_csv_first_duplicate_in_file_order(tmp_path):
    _, path, lines = _csv_lines(tmp_path)
    lines += [lines[11], lines[4]]  # node 10 repeats before node 3 does
    path.write_text("\n".join(lines) + "\n")
    x, y = (float(v) for v in lines[11].split(",")[:2])
    assert _read_error(path) == f"{path}: duplicate node at ({x:g}, {y:g})"


def test_csv_first_missing_node(tmp_path):
    g, path, lines = _csv_lines(tmp_path)
    body = [lines[i] for i in range(1, len(lines)) if i not in (40, 21)]
    path.write_text("\n".join(body[::-1]) + "\n")  # node 39 is dropped first in file order
    assert _read_error(path) == (f"{path}: incomplete lattice, first missing node at "
                                 f"({g.x()[4]:g}, {g.y()[1]:g})")


def test_csv_sparse_lattice_memory(tmp_path):
    # 2048 rows on a diagonal infer a 2048 x 2048 lattice; the gap is found
    # without an array per node (which would take tens of MB here)
    path = tmp_path / "diagonal.csv"
    path.write_text("".join(f"{n},{n},1,0\n" for n in range(2048)))
    tracemalloc.start()
    try:
        message = _read_error(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == f"{path}: incomplete lattice, first missing node at (1, 0)"
    assert peak < 8 << 20


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 1 imports numpy.ma eagerly")
def test_csv_read_does_not_import_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma on the first np.unique or np.median call (12-19 ms and
    # 0.6 MB per command on a 2-vCPU VM); the reader calls neither
    _, path, _ = _csv_lines(tmp_path)
    script = ("import sys; from wavemom import read_field_csv; "
              f"read_field_csv({str(path)!r}, 2.0, 0.7); print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("whitespace_line", [False, True])
def test_csv_read_working_memory(tmp_path, whitespace_line):
    # the rows' coordinates (1x the field) and values (1x), parsed a chunk at a
    # time, then an int32 node index (0.25x) and its sorted copy (0.25x) while
    # the lattice is checked; the coordinates go before the field (1x) is made.
    # 2.57x measured on 7 chunks (3.57x on 256^2 while numpy parsed one (n, 4)
    # array of rows); a whitespace-only line is read by the row loop, which
    # writes each row into arrays of the same size
    g, path, lines = _csv_lines(tmp_path, nx=320, ny=320)
    assert len(lines) - 1 >= 4 * fieldio._ROWS
    body = [lines[i + 1] for i in np.random.default_rng(2).permutation(len(lines) - 1)]
    if whitespace_line:
        body.insert(len(body) // 2, " \t ")
    path.write_text("\n".join(lines[:1] + body) + "\n")
    tracemalloc.start()
    try:
        back = read_field_csv(path, 2.0, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == g.values.tobytes()
    assert peak <= 2.6 * g.values.nbytes


@pytest.mark.parametrize("case", ["cr", "bad-last-token"])
def test_csv_row_loop_working_memory(tmp_path, case):
    # lone \r line ends and a token numpy refuses on the last row send the file to
    # the row loop, which fills arrays as the bulk parse does and keeps no row list
    # (17.4x and 15.4x the field on 512^2 while it kept every row as a tuple)
    g, path, lines = _csv_lines(tmp_path, nx=320, ny=320)
    body = [lines[i + 1] for i in np.random.default_rng(4).permutation(len(lines) - 1)]
    newline = "\r" if case == "cr" else "\n"
    if case == "bad-last-token":
        x, y, re, im = body[-1].split(",")
        body[-1] = f"{x},{y},{re},x"
    path.write_text(newline.join(lines[:1] + body) + newline, newline="")
    tracemalloc.start()
    try:
        if case == "cr":
            back = read_field_csv(path, 2.0, 0.7)
        else:
            message = _read_error(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if case == "cr":
        assert back.values.tobytes() == g.values.tobytes()
    else:
        assert message == (f"{path}:{len(lines)}: unparseable number: "
                           "could not convert string to float: 'x'")
    assert peak <= 2.6 * g.values.nbytes


def test_csv_non_finite_after_blank_lines(tmp_path):
    _, path, lines = _csv_lines(tmp_path)
    x, y, re, im = lines[8].split(",")
    lines[8] = f"{x},{y},{re},-inf"
    lines[2:2] = ["", "  "]
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == f"{path}:11: non-finite value"
    # a parse error anywhere in the file is reported before a non-finite value
    lines.append("1,2,3")
    path.write_text("\n".join(lines) + "\n")
    assert _read_error(path) == f"{path}:{len(lines)}: expected 4 columns, got 3"


_GOLDEN = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, -2.5, 1e-300, 123456789.0]


def _golden_column(n, offset):
    return np.array([_GOLDEN[(i + offset) % len(_GOLDEN)] for i in range(n)])


def _lines(*columns):
    return "".join(",".join(c) + "\n" for c in zip(*columns))


def _g17(values):
    return [f"{float(v):.17g}" for v in values]


def test_csv_writers_golden_bytes(tmp_path):
    values = (_golden_column(256, 0) + 1j * _golden_column(256, 3)).reshape(16, 16)
    grid = FieldGrid(16, 16, 0.1, 1.0 / 3.0, -0.7, 1e-300, values, Cone(2.0, 0.7))
    path = tmp_path / "field.csv"
    write_field_csv(grid, path)
    x, y = grid.x(), grid.y()
    expected = "x,y,re,im\n" + _lines(
        _g17(x[j] for i in range(16) for j in range(16)),
        _g17(y[i] for i in range(16) for j in range(16)),
        _g17(values.real.ravel()), _g17(values.imag.ravel()))
    assert path.read_bytes() == expected.encode("utf-8")

    samples = _golden_column(256, 1) - 1j * _golden_column(256, 5)
    ring = RingSpectrum(2.0, 0.5, samples)
    path = tmp_path / "ring.csv"
    write_ring_csv(ring, path)
    expected = "phi,re,im\n" + _lines(_g17(ring_azimuths(ring.m)), _g17(samples.real),
                                       _g17(samples.imag))
    assert path.read_bytes() == expected.encode("utf-8")

    coeffs = (_golden_column(8, 3) + 1j * _golden_column(8, 5)) * 1e-160  # |c|^2 stays finite
    spec = OamSpectrum(2.0, 0.5, 256, -3, 4, coeffs)
    path = tmp_path / "oam.csv"
    write_oam_csv(spec, path)
    expected = "n,re,im,abs2\n" + _lines([str(n) for n in range(-3, 5)], _g17(coeffs.real),
                                          _g17(coeffs.imag), _g17(abs(c) ** 2 for c in coeffs))
    assert path.read_bytes() == expected.encode("utf-8")


def test_spectrum_writers(tmp_path):
    samples = np.exp(1j * 2.0 * np.linspace(-math.pi, math.pi, 256, endpoint=False))
    ring = RingSpectrum(2.0, 0.5, samples)
    ring_path = tmp_path / "ring.csv"
    write_ring_csv(ring, ring_path)
    lines = ring_path.read_text().splitlines()
    assert lines[0] == "phi,re,im"
    assert len(lines) == 257

    spec = OamSpectrum(2.0, 0.5, 256, -2, 2, np.array([0, 1j, 0.25, 0, 0.5 - 0.5j]))
    oam_path = tmp_path / "oam.csv"
    write_oam_csv(spec, oam_path)
    lines = oam_path.read_text().splitlines()
    assert lines[0] == "n,re,im,abs2"
    assert lines[1].startswith("-2,")
    # 17 significant digits survive parsing exactly
    n, re, im, abs2 = lines[5].split(",")
    assert n == "2" and float(abs2) == abs(0.5 - 0.5j) ** 2


def test_read_field_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_field(tmp_path / "nope.hwmf")
