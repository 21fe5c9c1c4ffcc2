"""Persistence for fields, spectra and reports.

Field files use the HWMF1 container: a single-line UTF-8 JSON header
terminated by a newline, followed by nx*ny complex samples as little-endian
IEEE-754 double pairs (re, im), row-major with the y index outermost.  The
byte order is fixed regardless of host so golden files are portable.  CSV
emissions print floats with 17 significant digits, which round-trips
doubles exactly.
"""

import dataclasses
import json
import math

import numpy as np

from .errors import FormatError
from .waves import FieldGrid, GridMeta, Wave

MAGIC = "HWMF1"
_HEADER_LIMIT = 1 << 16


def _fmt(v):
    return f"{float(v):.17g}"


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
        "z_plane": fieldgrid.meta.z_plane,
        "description": fieldgrid.meta.description,
    }
    payload = np.ascontiguousarray(fieldgrid.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def read_field(path):
    """Read an HWMF1 file back into a FieldGrid."""
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise FormatError(f"{path}: missing newline-terminated header line")
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: unparseable header: {exc}") from exc
        blob = fh.read()

    if header.get("magic") != MAGIC:
        raise FormatError(f"{path}: bad magic {header.get('magic')!r}, expected {MAGIC!r}")
    try:
        nx, ny = int(header["nx"]), int(header["ny"])
        dx, dy = float(header["dx"]), float(header["dy"])
        x0, y0 = float(header["x0"]), float(header["y0"])
        k = None if header.get("k") is None else float(header["k"])
        theta = None if header.get("theta") is None else float(header["theta"])
        z_plane = float(header.get("z_plane", 0.0))
        # either cone label may be null; one that is given must be valid
        Wave.check_cone(1.0 if k is None else k, math.pi / 2 if theta is None else theta)
    except (KeyError, TypeError, ValueError) as exc:  # RangeError is a ValueError
        raise FormatError(f"{path}: incomplete or invalid header: {exc}") from exc

    payload_start = len(line)
    expected = nx * ny * 16
    if len(blob) < expected:
        raise FormatError(
            f"{path}: truncated payload at byte offset {payload_start + len(blob)}: "
            f"expected {nx * ny} samples ({expected} bytes), got {len(blob)} bytes"
        )
    if len(blob) > expected:
        raise FormatError(
            f"{path}: payload holds {len(blob) // 16} samples but the header "
            f"declares nx*ny = {nx * ny}"
        )
    values = np.frombuffer(blob, dtype="<c16").reshape(ny, nx)
    finite = np.isfinite(values.view(np.float64).reshape(ny, nx, 2)).all(axis=2)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.ravel())[0])
        raise FormatError(
            f"{path}: non-finite sample at index {bad} "
            f"(byte offset {payload_start + 16 * bad})"
        )
    meta = GridMeta(k=k, theta=theta, z_plane=z_plane,
                    description=str(header.get("description", "")))
    return FieldGrid(nx, ny, dx, dy, x0, y0, values.astype(np.complex128), meta)


def write_field_csv(fieldgrid, path):
    """Write a field as CSV rows x,y,re,im (17 significant digits)."""
    x = fieldgrid.x()
    y = fieldgrid.y()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,re,im\n")
        for i in range(fieldgrid.ny):
            for j in range(fieldgrid.nx):
                v = fieldgrid.values[i, j]
                fh.write(f"{_fmt(x[j])},{_fmt(y[i])},{_fmt(v.real)},{_fmt(v.imag)}\n")


def _lattice_axis(coords, path, name):
    axis = np.unique(coords)
    if len(axis) < 2:
        raise FormatError(f"{path}: {name} axis has fewer than two distinct values")
    steps = np.diff(axis)
    step = np.median(steps)
    if step <= 0 or np.any(np.abs(steps - step) > 1e-9 * max(step, 1.0)):
        raise FormatError(f"{path}: {name} coordinates are not uniformly spaced")
    return axis, float(step)


def read_field_csv(path, k=None, theta=None, z_plane=0.0, description=""):
    """Read a complete rectangular x,y,re,im lattice (any row order).

    Grid geometry is inferred from the coordinates; gaps or duplicate
    nodes are format errors naming the first offending node.  Wave
    metadata is not stored in CSV, so k and theta may be supplied here.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
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
    if not rows:
        raise FormatError(f"{path}: no data rows")

    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # rows are the file's non-blank lines after the header, if any
        with open(path, "r", encoding="utf-8") as fh:
            linenos = [n for n, line in enumerate(fh, 1) if line.strip()]
        lineno = linenos[len(linenos) - len(rows) + int(np.argmin(finite))]
        raise FormatError(f"{path}:{lineno}: non-finite value")
    xs, dx = _lattice_axis(data[:, 0], path, "x")
    ys, dy = _lattice_axis(data[:, 1], path, "y")
    nx, ny = len(xs), len(ys)

    values = np.full((ny, nx), np.nan, dtype=np.complex128)
    seen = np.zeros((ny, nx), dtype=bool)
    for xv, yv, re, im in rows:
        j = int(round((xv - xs[0]) / dx))
        i = int(round((yv - ys[0]) / dy))
        if not (0 <= j < nx and 0 <= i < ny) or abs(xs[0] + j * dx - xv) > 1e-6 * dx \
                or abs(ys[0] + i * dy - yv) > 1e-6 * dy:
            raise FormatError(f"{path}: point ({xv:g}, {yv:g}) is off the inferred lattice")
        if seen[i, j]:
            raise FormatError(f"{path}: duplicate node at ({xv:g}, {yv:g})")
        seen[i, j] = True
        values[i, j] = re + 1j * im
    if not seen.all():
        i, j = np.unravel_index(int(np.flatnonzero(~seen.ravel())[0]), seen.shape)
        raise FormatError(
            f"{path}: incomplete lattice, first missing node at "
            f"({xs[0] + j * dx:g}, {ys[0] + i * dy:g})"
        )
    meta = GridMeta(k=k, theta=theta, z_plane=z_plane, description=description)
    return FieldGrid(nx, ny, dx, dy, float(xs[0]), float(ys[0]), values, meta)


def write_ring_csv(ring, path):
    """Ring profile as CSV rows phi,re,im."""
    phi = ring.azimuths()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phi,re,im\n")
        for p, s in zip(phi, ring.samples):
            fh.write(f"{_fmt(p)},{_fmt(s.real)},{_fmt(s.imag)}\n")


def write_oam_csv(spec, path):
    """Charge spectrum as CSV rows n,re,im,abs2."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,re,im,abs2\n")
        for n, c in zip(spec.charges(), spec.coeffs):
            fh.write(f"{n},{_fmt(c.real)},{_fmt(c.imag)},{_fmt(abs(c) ** 2)}\n")


def report_json_str(reports):
    """Momentum reports (a list, one entry per method) as JSON text."""
    return json.dumps([dataclasses.asdict(r) for r in reports], indent=2)
