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
import sys
import warnings
from itertools import chain

import numpy as np

from .errors import FormatError, RangeError
from .spectral import Cone
from .waves import FieldGrid

MAGIC = "HWMF1"
_HEADER_LIMIT = 1 << 16
_CHUNK = 1 << 16  # bytes per read of a payload's tail


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


def _lattice_axis(coords, path, name):
    axis = np.unique(coords)
    if len(axis) < 2:
        raise FormatError(f"{path}: {name} axis has fewer than two distinct values")
    steps = np.diff(axis)
    step = np.median(steps)
    if step <= 0 or np.any(np.abs(steps - step) > 1e-9 * max(step, 1.0)):
        raise FormatError(f"{path}: {name} coordinates are not uniformly spaced")
    return axis, float(step)


def _scan_rows(path):
    """Parse the data rows line by line; each error names its file line.

    This is the reference parser: it runs whenever the bulk parse refuses
    the file or finds a non-finite value, and it accepts every input that
    Python's float() does (blank and whitespace-only lines are skipped).
    """
    rows, linenos = [], []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and parts[0].strip().lower() == "x":
                continue
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            try:
                rows.append(tuple(float(p) for p in parts))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: unparseable number: {exc}") from exc
            linenos.append(lineno)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return data


def _loadtxt(source, skiprows):
    """numpy's bulk parse of x,y,re,im rows from a path or an iterable of lines."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a file with no rows
        return np.loadtxt(source, delimiter=",", comments=None, ndmin=2,
                          skiprows=skiprows, encoding="utf-8")


def _load_rows(path):
    """All data rows as an (n, 4) float array, parsed in one numpy pass when possible."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = int(fh.readline().split(",")[0].strip().lower() == "x")
        fh.seek(0)
        try:
            data = _loadtxt(path, header)
        except ValueError:  # ragged rows, bad tokens, whitespace-only lines, invalid UTF-8
            data = None
            # loadtxt skips empty lines but refuses whitespace-only ones, which
            # the format skips too; only a file that has one is parsed again
            if any(line.isspace() and line != "\n" for line in fh):
                fh.seek(0)
                try:
                    data = _loadtxt((line for line in fh if not line.isspace()), header)
                except ValueError:
                    pass
    if data is None or data.shape[0] == 0 or data.shape[1] != 4 or not np.isfinite(data).all():
        return _scan_rows(path)  # names the first bad line or non-finite value
    return data


def _first(mask):
    """Index of the first True entry of a boolean array, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def read_field_csv(path, k, theta):
    """Read a complete rectangular x,y,re,im lattice (any row order) on the (k, theta) cone.

    Grid geometry is inferred from the coordinates; a row off the lattice
    or on a node already seen is a format error naming the first such row
    in file order, and a gap names the first missing node.  CSV carries no
    wave metadata, so the caller states the cone, which is checked (a
    RangeError) before the file is read.
    """
    cone = Cone(k, theta)
    data = _load_rows(path)
    x, y = data[:, 0], data[:, 1]
    xs, dx = _lattice_axis(x, path, "x")
    ys, dy = _lattice_axis(y, path, "y")
    nx, ny = len(xs), len(ys)

    # One buffer holds each axis's node index rint((c - c0) / step) and then
    # the row's distance |c0 + index * step - c| from that node, y before x,
    # so that flat gathers i * nx + j.  Clipping moves only rows already off
    # the lattice, and lets every index cast to an integer.
    n = len(data)
    flat = np.zeros(n, dtype=np.intp)
    off = np.zeros(n, dtype=bool)
    buf = np.empty(n)
    for c, c0, step, count in ((y, ys[0], dy, ny), (x, xs[0], dx, nx)):
        np.rint(np.divide(np.subtract(c, c0, out=buf), step, out=buf), out=buf)
        off |= buf < 0
        off |= buf >= count
        np.clip(buf, 0, count - 1, out=buf)
        flat *= count
        np.add(flat, buf, out=flat, dtype=np.intp, casting="unsafe")
        np.abs(np.subtract(np.add(c0, np.multiply(buf, step, out=buf), out=buf), c, out=buf),
               out=buf)
        off |= buf > 1e-6 * step
    del buf
    bad = _first(off)
    del off
    end = n if bad is None else bad  # rows before the first off-lattice one
    flat = flat[:end]
    # sorting, unlike counting per node, needs no nx*ny array for a lattice
    # that the rows cannot fill (a diagonal of n rows infers an n x n grid)
    nodes = np.sort(flat)
    if np.any(nodes[1:] == nodes[:-1]):  # a repeat before the first off-lattice row comes first
        repeat = np.ones(end, dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
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
    del nodes
    # each row's (re, im) pair, read in place as one complex, is placed bit for bit
    values = np.empty((ny, nx), dtype=np.complex128)
    values.reshape(-1)[flat] = data.view(np.complex128)[:, 1]
    try:  # the values are checked above, so only the inferred geometry can fail here
        return FieldGrid(nx, ny, dx, dy, xs[0], ys[0], values, cone)
    except RangeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_ring_csv(ring, path):
    """Ring profile as CSV rows phi,re,im."""
    s = ring.samples
    _write_csv(path, "phi,re,im", [(_fmt(ring.azimuths()), _fmt(s.real), _fmt(s.imag))])


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
