"""Run one wavemom CLI command with timing wrappers installed from outside the program.

Usage (with the package's src/ on PYTHONPATH):
    python3 perfbench/traced.py SPANS.json <wavemom cli arguments...>
    python3 perfbench/traced.py SPANS.json --script SCRIPT.py <script arguments...>

The runner imports ``wavemom.cli`` (timed as the span ``cli.import``),
replaces each traced public function by a wrapper in every wavemom module
that binds it, calls ``wavemom.cli.main(argv)`` and exits with its return
code; with --script it runs a script that uses the package instead.  Spans
are kept in memory as (name, parent, start, end, details) and written to
SPANS.json when the command ends; the program's own outputs are unchanged.
"""

import functools
import json
import os
import runpy
import sys
import time
import tracemalloc


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.errors = {}

    def span(self, name, parent, start, end, **details):
        self.spans.append({"name": name, "parent": parent, "start": start, "end": end, **details})

    def wrap(self, fn, module, name, details=None, memory=False):
        """Wrap fn in a span; ``name`` may be a callable of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"name": name(*args, **kwargs) if callable(name) else name,
                      "parent": self.stack[-1] if self.stack else None}
            index = len(self.spans)
            self.spans.append(record)
            self.stack.append(index)
            # tracemalloc only around the few numpy-heavy calls whose peak is
            # reported: left on everywhere it would slow pure-Python code
            # such as the CSV reader several-fold
            memory_here = memory and not tracemalloc.is_tracing()
            if memory_here:
                tracemalloc.start()
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] = self.errors.get(module, 0) + 1
                raise
            finally:
                record["end"] = time.perf_counter()
                if memory_here:
                    record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                self.stack.pop()
            if details is not None:
                record.update(details(result, *args, **kwargs))
            return result

        return wrapper

    def install(self, owner, attr, module, name, details=None, memory=False):
        """Replace owner.attr in every loaded wavemom module that binds it."""
        original = getattr(owner, attr)
        wrapped = self.wrap(original, module, name, details, memory)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "wavemom":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _file_bytes(key, index):
    def details(result, *args, **kwargs):
        return {key: os.path.getsize(args[index])}
    return details


def _ring_details(result, fieldgrid, *args, **kwargs):
    # computed from shapes, not measured: the (ny, nx) @ (nx, M) complex
    # product at 8 flops per multiply-add, plus the field, the two
    # exponential tables and the (ny, M) product, each moved once
    nx, ny = fieldgrid.nx, fieldgrid.ny
    m = len(result.samples)
    return {"flops": 8 * nx * ny * m, "bytes": 16 * (nx * ny + (nx + ny) * m + ny * m)}


def _eigen_details(result, *args, **kwargs):
    return {"truncation": result.truncation, "coeffs": len(result.coeffs)}


def install_all(tracer):
    from wavemom import cli, fieldio, momenta, spectral, waves
    from wavemom.specfun import mathieu

    tracer.install(cli, "main", "cli", "cli.main")
    tracer.install(waves, "sample_grid", "waves", "waves.sample_grid", memory=True)
    tracer.install(waves, "elliptic_coords", "waves", "waves.elliptic_coords")
    tracer.install(mathieu, "mathieu_eigen", "specfun", "specfun.mathieu_eigen", _eigen_details)
    for attr in ("mathieu_ce_radial", "mathieu_se_radial"):
        tracer.install(mathieu, attr, "specfun", "specfun.mathieu_radial")
    for attr in ("mathieu_ce", "mathieu_se", "mathieu_angular_derivative"):
        tracer.install(mathieu, attr, "specfun", "specfun.mathieu_angular")
    tracer.install(mathieu, "mathieu_norm_constant", "specfun", "specfun.mathieu_norm")
    tracer.install(spectral, "ring_spectrum_from_grid", "spectral", "spectral.ring", _ring_details, memory=True)
    tracer.install(spectral, "oam_spectrum", "spectral", "spectral.oam")
    tracer.install(momenta, "report", "momenta", "momenta.report")
    tracer.install(momenta, "grid_mean", "momenta", lambda grid, op, *a, **k: f"momenta.grid_mean.{op}")
    tracer.install(fieldio, "read_field", "fieldio", "fieldio.read_field", _file_bytes("bytes_read", 0))
    tracer.install(fieldio, "read_field_csv", "fieldio", "fieldio.read_field_csv", _file_bytes("bytes_read", 0))
    tracer.install(fieldio, "write_field", "fieldio", "fieldio.write_field", _file_bytes("bytes_written", 1))
    tracer.install(fieldio, "write_field_csv", "fieldio", "fieldio.write_field_csv", _file_bytes("bytes_written", 1))
    for attr in ("write_ring_csv", "write_oam_csv"):
        tracer.install(fieldio, attr, "fieldio", "fieldio.write_spectra_csv", _file_bytes("bytes_written", 1))
    return cli


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import wavemom.cli  # noqa: F401  (the import itself is the measured span)
    tracer.span("cli.import", None, start, time.perf_counter())
    cli = install_all(tracer)
    try:
        if argv[:1] == ["--script"]:
            sys.argv = argv[1:]
            runpy.run_path(argv[1], run_name="__main__")
            rc = 0
        else:
            rc = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "errors": tracer.errors}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
