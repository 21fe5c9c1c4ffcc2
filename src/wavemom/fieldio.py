"""Persistence for fields and spectra.

Field files use the HWMF1 container: a single-line UTF-8 JSON header
terminated by a newline, followed by nx*ny complex samples as little-endian
IEEE-754 double pairs (re, im), row-major with the y index outermost.  The
byte order is fixed regardless of host so golden files are portable.  CSV
emissions print floats with 17 significant digits, which round-trips
doubles exactly.  Every text output, CSV or JSON, is written as UTF-8 with
"\n" line ends to its path, or to stdout when no path is given.
"""

import json
import math
import sys
import warnings
from itertools import chain

import numpy as np

from .errors import FormatError, RangeError
from .spectral import Cone, ring_azimuths
from .waves import FieldGrid

MAGIC = "HWMF1"
_HEADER_LIMIT = 1 << 16
_CHUNK = 1 << 16  # bytes per read of a payload's tail, or of a CSV file whose lines are counted
_ROWS = 1 << 14   # CSV rows per numpy parse call, and per block of their lattice indices


def write_field(fieldgrid, path):
    """Write a FieldGrid as an HWMF1 file (bit-exact round trip)."""
    header = {
        "magic": MAGIC,
        "nx": fieldgrid.nx,
        "ny": fieldgrid.ny,
        "dx": fieldgrid.dx,
        "dy": fieldgrid.dy,
        "x0": fieldgrid.x0,
        "y0": fieldgrid.y0,
        "k": fieldgrid.meta.k,
        "theta": fieldgrid.meta.theta,
        "z_plane": fieldgrid.z_plane,
        "description": fieldgrid.description,
    }
    payload = np.ascontiguousarray(fieldgrid.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def _header_number(header, key, kind=float, default=None):
    """header[key] as a JSON integer (kind int) or number (kind float); refuses bool and strings."""
    value = header[key] if default is None else header.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise TypeError(f"{key} must be a JSON {'integer' if kind is int else 'number'}, "
                        f"got {json.dumps(value)}")
    return kind(value)


def _read_payload(fh, out):
    """Fill the bytes of ``out`` from fh; return (bytes read into it, bytes left after it),
    the latter counted in _CHUNK reads only until it tops the former (a stream may be endless)."""
    view = memoryview(out).cast("B")
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            return got, 0
        got += n
    rest = 0
    while rest <= got and (chunk := len(fh.read(_CHUNK))):
        rest += chunk
    return got, rest


def read_field(path):
    """Read an HWMF1 file back into a FieldGrid.

    The payload is read straight into the sample array, so reading holds the
    field once; any stream works as ``path``, a pipe included.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise FormatError(f"{path}: missing newline-terminated header line")
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: unparseable header: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: incomplete or invalid header: not a JSON object")
        if header.get("magic") != MAGIC:
            raise FormatError(f"{path}: bad magic {header.get('magic')!r}, expected {MAGIC!r}")
        try:
            nx, ny = _header_number(header, "nx", int), _header_number(header, "ny", int)
            dx, dy = _header_number(header, "dx"), _header_number(header, "dy")
            x0, y0 = _header_number(header, "x0"), _header_number(header, "y0")
            cone = Cone(_header_number(header, "k"), _header_number(header, "theta"))
            z_plane = _header_number(header, "z_plane", default=0.0)
            description = str(header.get("description", ""))
            FieldGrid.check_geometry(nx, ny, dx, dy, x0, y0, cone, z_plane)  # before nx * ny sizes the payload
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # RangeError is a ValueError
            raise FormatError(f"{path}: incomplete or invalid header: {exc}") from exc
        values = np.empty((ny, nx), dtype="<c16")
        got, rest = _read_payload(fh, values)

    payload_start = len(line)
    expected = values.nbytes
    if got < expected:
        raise FormatError(
            f"{path}: truncated payload at byte offset {payload_start + got}: "
            f"expected {nx * ny} samples ({expected} bytes), got {got} bytes"
        )
    if rest:
        held = (expected + rest) // 16 if rest <= expected else f"more than {2 * nx * ny}"
        raise FormatError(
            f"{path}: payload holds {held} samples but the header declares nx*ny = {nx * ny}")
    try:
        return FieldGrid(nx, ny, dx, dy, x0, y0, values, cone, z_plane, description)
    except RangeError:  # geometry and shape are checked above: only a non-finite sample is left
        bad = int(np.argmin(np.isfinite(values.reshape(-1).view(np.float64)))) // 2
        raise FormatError(
            f"{path}: non-finite sample at index {bad} "
            f"(byte offset {payload_start + 16 * bad})"
        ) from None


def _fmt(values):
    """Floats as strings with 17 significant digits, which round-trips doubles."""
    return [f"{v:.17g}" for v in np.asarray(values, dtype=float).tolist()]


def _write_text(path, chunks):
    """Write each string of chunks to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def write_json(data, path):
    """Write data as indented JSON and a final newline."""
    _write_text(path, [json.dumps(data, indent=2) + "\n"])


def _write_csv(path, header, blocks):
    """Write a header line, then each block of equal-length string columns as rows.

    Each block is joined and written with one call, so callers bound memory
    by the block size.
    """
    lines = ("\n".join(chain(map(",".join, zip(*columns)), [""])) for columns in blocks)
    _write_text(path, chain([header + "\n"], lines))


def write_field_csv(fieldgrid, path):
    """Write a field as CSV rows x,y,re,im (17 significant digits), one grid row per block."""
    xs, nx = _fmt(fieldgrid.x()), fieldgrid.nx
    blocks = ((xs, [y] * nx, _fmt(row.real), _fmt(row.imag))
              for y, row in zip(_fmt(fieldgrid.y()), fieldgrid.values))
    _write_csv(path, "x,y,re,im", blocks)


def _distinct(values):
    """np.unique(values) of a 1-D float array, by the same sort.  numpy 2 imports numpy.ma
    on the first call of np.unique or np.median, which nothing else on the CSV path does
    (12-19 ms and 0.6 MB per command on a 2-vCPU VM)."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _lattice_axis(coords, path, name):
    # the distinct values of each _ROWS rows, then of those: no copy of the whole column
    axis = _distinct(np.concatenate([_distinct(coords[start:start + _ROWS])
                                     for start in range(0, len(coords), _ROWS)]))
    if len(axis) < 2:
        raise FormatError(f"{path}: {name} axis has fewer than two distinct values")
    steps = np.diff(axis)
    middle = np.sort(steps)[(len(steps) - 1) // 2:len(steps) // 2 + 1]
    step = middle.sum() / len(middle)  # np.median(steps), bit for bit
    if step <= 0 or np.any(np.abs(steps - step) > 1e-9 * max(step, 1.0)):
        raise FormatError(f"{path}: {name} coordinates are not uniformly spaced")
    return axis, float(step)


def _scan_rows(path):
    """Parse the data rows line by line; each error names its file line.

    This is the reference parser: it runs whenever the bulk parse refuses
    the file, and it accepts every input that Python's float() does (blank
    and whitespace-only lines are skipped).  It counts the lines first, so
    each row goes straight into arrays as :func:`_load_rows` returns them;
    a parse error anywhere is reported before the first non-finite value.
    """
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        size = sum(1 for _ in fh)
        fh.seek(0)
        coords, values = np.empty((2, size)), np.empty(size, dtype=np.complex128)
        n, non_finite = 0, None
        for lineno, line in enumerate(fh, 1):  # no line is empty: a blank one holds its line end
            parts = line.strip().split(",")
            if line.isspace() or lineno == 1 and parts[0].strip().lower() == "x":
                continue
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            try:
                x, y, re, im = map(float, parts)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: unparseable number: {exc}") from exc
            if non_finite is None and not all(map(math.isfinite, (x, y, re, im))):
                non_finite = lineno
            coords[:, n] = x, y
            values[n] = complex(re, im)
            n += 1
    if not n:
        raise FormatError(f"{path}: no data rows")
    if non_finite is not None:
        raise FormatError(f"{path}:{non_finite}: non-finite value")
    return coords[:, :n], values[:n]


def _count_newlines(path):
    """The number of \\n bytes in a file, counted _CHUNK bytes at a time."""
    buf = np.empty(_CHUNK, dtype=np.uint8)
    count = 0
    with open(path, "rb") as fh:
        if not fh.seekable():  # the reader's first pass: a pipe could not be passed over again
            raise FormatError(f"{path}: CSV input must be a seekable file, as it is read more than once")
        while got := fh.readinto(buf):
            count += int(np.count_nonzero(buf[:got] == ord("\n")))
    return count


def _parse(lines, coords, values):
    """numpy's bulk parse of x,y,re,im lines, _ROWS rows per call, each call resuming at the
    line after the last row read, into coords[:, i] = (x, y) and values[i] = re + i im.
    Returns the row count, or None when numpy refuses a line (a ragged row, a bad token, a
    whitespace-only line) or there is no row, or a chunk has other than 4 columns, a
    non-finite value or rows past the arrays' end."""
    n = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns when no rows are left
        try:
            while len(rows := np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                                         max_rows=_ROWS)):
                end = n + len(rows)
                if rows.shape[1] != 4 or end > len(values) or not np.isfinite(rows).all():
                    return None
                coords[:, n:end] = rows[:, :2].T
                values[n:end] = rows.view(np.complex128)[:, 1]
                n = end
                del rows  # before the next chunk is parsed
        except ValueError:
            return None
    return n or None


def _load_rows(path):
    """The data rows in file order, as a (2, n) array of x, y and an (n,) complex array of
    re + i im, parsed by numpy when possible.  The arrays are sized by the file's \\n bytes;
    a file that numpy refuses, or whose lines end in a lone \\r, is read by the row loop."""
    size = _count_newlines(path) + 1
    coords, values = np.empty((2, size)), np.empty(size, dtype=np.complex128)
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        if fh.readline().split(",")[0].strip().lower() != "x":
            fh.seek(0)
        n = _parse(fh, coords, values)
    if n is None:
        del coords, values  # before the row loop makes its own
        return _scan_rows(path)  # names the first bad line or non-finite value
    return coords[:, :n], values[:n]


def _first(mask):
    """Index of the first True entry of a boolean array, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def _node_indices(coords, xs, dx, ys, dy):
    """Each row's flat node index i * nx + j, and the first row off the lattice or None.

    _ROWS rows at a time, one buffer holds each axis's node index
    rint((c - c0) / step) and then the row's distance |c0 + index * step - c|
    from that node, y before x.  Clipping moves only rows already off the
    lattice, and lets every index cast to an integer.
    """
    nx, ny = len(xs), len(ys)
    flat = np.zeros(coords.shape[1], dtype=np.int32 if nx * ny < 2 ** 31 else np.intp)
    bad = None
    for start in range(0, len(flat), _ROWS):
        x, y = coords[:, start:start + _ROWS]
        part = flat[start:start + _ROWS]
        off = np.zeros(len(part), dtype=bool)
        buf = np.empty(len(part))
        for c, c0, step, count in ((y, ys[0], dy, ny), (x, xs[0], dx, nx)):
            np.rint(np.divide(np.subtract(c, c0, out=buf), step, out=buf), out=buf)
            off |= buf < 0
            off |= buf >= count
            np.clip(buf, 0, count - 1, out=buf)
            part *= count
            np.add(part, buf, out=part, dtype=part.dtype, casting="unsafe")
            np.abs(np.subtract(np.add(c0, np.multiply(buf, step, out=buf), out=buf), c, out=buf),
                   out=buf)
            off |= buf > 1e-6 * step
        if bad is None and off.any():
            bad = start + _first(off)
    return flat, bad


def read_field_csv(path, k, theta):
    """Read a complete rectangular x,y,re,im lattice (any row order) on the (k, theta) cone.

    Grid geometry is inferred from the coordinates; a row off the lattice
    or on a node already seen is a format error naming the first such row
    in file order, and a gap names the first missing node.  CSV carries no
    wave metadata, so the caller states the cone, which is checked (a
    RangeError) before the file is read.
    """
    cone = Cone(k, theta)
    coords, values = _load_rows(path)
    xs, dx = _lattice_axis(coords[0], path, "x")
    ys, dy = _lattice_axis(coords[1], path, "y")
    nx, ny = len(xs), len(ys)
    flat, bad = _node_indices(coords, xs, dx, ys, dy)
    x, y = coords
    end = len(flat) if bad is None else bad  # rows before the first off-lattice one
    # sorting, unlike counting per node, needs no nx*ny array for a lattice
    # that the rows cannot fill (a diagonal of n rows infers an n x n grid)
    nodes = np.sort(flat[:end])
    if np.any(nodes[1:] == nodes[:-1]):  # a repeat before the first off-lattice row comes first
        repeat = np.ones(end, dtype=bool)
        repeat[np.unique(flat[:end], return_index=True)[1]] = False
        bad = _first(repeat)
        raise FormatError(f"{path}: duplicate node at ({float(x[bad]):g}, {float(y[bad]):g})")
    if bad is not None:
        raise FormatError(
            f"{path}: point ({float(x[bad]):g}, {float(y[bad]):g}) is off the inferred lattice")
    if len(nodes) < nx * ny:  # distinct in-range nodes: the first gap is where nodes[k] != k
        gap = _first(nodes != np.arange(len(nodes)))
        i, j = divmod(len(nodes) if gap is None else gap, nx)
        raise FormatError(
            f"{path}: incomplete lattice, first missing node at "
            f"({xs[0] + j * dx:g}, {ys[0] + i * dy:g})"
        )
    del nodes, coords, x, y  # the coordinates go before the field is made
    field = np.empty((ny, nx), dtype=np.complex128)
    field.reshape(-1)[flat] = values  # each row's (re, im) pair, placed bit for bit
    try:  # the values are checked above, so only the inferred geometry can fail here
        return FieldGrid(nx, ny, dx, dy, xs[0], ys[0], field, cone)
    except RangeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_ring_csv(ring, path):
    """Ring profile as CSV rows phi,re,im."""
    s = ring.samples
    _write_csv(path, "phi,re,im", [(_fmt(ring_azimuths(ring.m)), _fmt(s.real), _fmt(s.imag))])


def write_oam_csv(spec, path):
    """Charge spectrum as CSV rows n,re,im,abs2."""
    c = spec.coeffs
    _write_csv(path, "n,re,im,abs2", [([str(n) for n in spec.charges()], _fmt(c.real),
                                       _fmt(c.imag), _fmt([abs(v) ** 2 for v in c]))])


def write_mathieu_table(eigens, path):
    """Each eigenpair as CSV rows class,n,q,char_value,j,coeff, one eigenpair per block."""
    blocks = (([",".join([e.mathieu_class.tag, str(e.n), *_fmt([e.q, e.char_value])])] * len(e.coeffs),
               map(str, e.harmonics.tolist()), _fmt(e.coeffs)) for e in eigens)
    _write_csv(path, "class,n,q,char_value,j,coeff", blocks)
