"""Command-line pipeline: generate fields, decompose them, report momenta.

Exit codes: 0 success, 1 usage error, 2 numeric range/domain error,
3 I/O or file-format error.  All outputs are deterministic data files;
angles are radians unless --degrees is given.
"""

import argparse
import dataclasses
import math
import re
import sys

import numpy as np

from . import fieldio, momenta, spectral, waves
from .errors import (
    DomainError,
    FormatError,
    NumericalError,
    RangeError,
    UndefinedMeanError,
    UsageError,
)
from .specfun.mathieu import check_q, mathieu_eigen

EXIT_USAGE = 1
EXIT_RANGE = 2
EXIT_IO = 3
MAX_Q_STEPS = 100_000
_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"  # an unsigned decimal, as float() reads it


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-12,12", "-1.25,-0.5" or "-1e-3,0" (charge ranges,
        # origins) pass as argument values rather than being mistaken for flags
        self._negative_number_matcher = re.compile(rf"^-{_NUMBER}(,-?{_NUMBER})*$")

    def error(self, message):
        raise UsageError(message)


def _pair(text, kind, flag):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects two comma-separated values, got {text!r}")
    try:
        return kind(parts[0]), kind(parts[1])
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def build_parser():
    parser = _Parser(prog="wavemom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a wave family member onto a field file")
    gen.add_argument("--family", required=True, choices=list(waves.FAMILIES))
    gen.add_argument("--k", type=float, required=True, help="wavenumber (rad/length)")
    gen.add_argument("--theta", type=float, required=True, help="cone angle in (0, pi)")
    gen.add_argument("--phi", type=float, default=None, help="plane-wave azimuth (default 0)")
    gen.add_argument("--n", type=int, default=None,
                     help="Bessel charge / Mathieu order (default 0)")
    gen.add_argument("--f", type=float, default=None, help="Mathieu semi-focal distance")
    gen.add_argument("--grid", default="128,128", metavar="NX,NY")
    gen.add_argument("--dx", type=float, default=None)
    gen.add_argument("--dy", type=float, default=None)
    gen.add_argument("--origin", default=None, metavar="X0,Y0",
                     help="lower-left sample (default: grid centred on 0)")
    gen.add_argument("--z", type=float, default=0.0, help="slice plane")
    gen.add_argument("--degrees", action="store_true",
                     help="interpret --theta/--phi in degrees")
    gen.add_argument("--out", required=True)

    # options of every command that reads a field file
    reader = _Parser(add_help=False)
    reader.add_argument("--in", dest="infile", required=True)
    reader.add_argument("--in-format", choices=["hwmf", "csv"], default="hwmf",
                        help="csv ingests x,y,re,im lattices (supply --k/--theta)")
    reader.add_argument("--k", type=float, default=None,
                        help="wavenumber for csv input (required there, refused for hwmf)")
    reader.add_argument("--theta", type=float, default=None,
                        help="cone angle for csv input (required there, refused for hwmf)")
    reader.add_argument("--ring-samples", type=int, default=spectral.DEFAULT_RING_SAMPLES)
    reader.add_argument("--n-range", default="{},{}".format(*spectral.DEFAULT_CHARGE_WINDOW),
                        metavar="NMIN,NMAX")
    reader.add_argument("--window", default="none", choices=["none", "hann"])

    spec = sub.add_parser("spectrum", parents=[reader],
                          help="ring and charge spectra of a field file")
    spec.add_argument("--out-ring", default=None)
    spec.add_argument("--out-oam", default=None)
    spec.add_argument("--out-summary", default=None,
                      help="JSON summary (default: stdout)")

    mom = sub.add_parser("momenta", parents=[reader],
                         help="momentum report for a field file")
    mom.add_argument("--methods", default="spectral,grid",
                     help="comma list from " + ",".join(momenta.ROUTES))
    mom.add_argument("--f", type=float, default=None,
                     help="semi-focal distance; with --parity and --n it names the elliptic wave")
    mom.add_argument("--parity", choices=["even", "odd"], default=None)
    mom.add_argument("--n", type=int, default=None, help="elliptic order")
    mom.add_argument("--out", default=None, help="report JSON (default: stdout)")

    tab = sub.add_parser("mathieu-table",
                         help="characteristic values and coefficients as CSV")
    tab.add_argument("--parity", required=True, choices=["even", "odd"])
    tab.add_argument("--n", type=int, required=True)
    tab.add_argument("--q", type=float, required=True)
    tab.add_argument("--q-max", type=float, default=None)
    tab.add_argument("--q-steps", type=int, default=None,
                     help=f"q values from --q to --q-max, 2 to {MAX_Q_STEPS}")
    tab.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def _cmd_gen(args):
    theta = math.radians(args.theta) if args.degrees else args.theta
    phi = math.radians(args.phi) if args.degrees and args.phi is not None else args.phi
    label = waves.make_wave(args.family, args.k, theta, phi=phi, n=args.n, f=args.f)

    nx, ny = _pair(args.grid, int, "--grid")
    dx = args.dx if args.dx is not None else 2.0 * math.pi / (32.0 * args.k)
    dy = args.dy if args.dy is not None else dx
    x0 = y0 = None
    if args.origin is not None:
        x0, y0 = _pair(args.origin, float, "--origin")
    grid = waves.sample_grid(label, nx, ny, dx, dy, x0=x0, y0=y0, z=args.z,
                             description=f"{args.family} k={args.k:g} theta={theta:g}")
    fieldio.write_field(grid, args.out)
    return 0


def _read_input(args):
    """The --in field and the --n-range window; every option rule is checked before the file opens."""
    n_min, n_max = _pair(args.n_range, int, "--n-range")
    csv = args.in_format == "csv"
    if csv and None in (args.k, args.theta):
        raise UsageError("csv input carries no cone; give --k and --theta")
    if not csv and (args.k, args.theta) != (None, None):
        raise UsageError("--k/--theta are for csv input; an hwmf file carries its cone")
    spectral.check_charge_window(n_min, n_max, args.ring_samples)   # the ring size first
    if csv:
        return fieldio.read_field_csv(args.infile, args.k, args.theta), (n_min, n_max)
    return fieldio.read_field(args.infile), (n_min, n_max)


def _cmd_spectrum(args):
    grid, (n_min, n_max) = _read_input(args)
    ring = spectral.ring_spectrum_from_grid(grid, args.ring_samples, args.window)
    spec = spectral.oam_spectrum(ring, n_min, n_max)
    if args.out_ring:
        fieldio.write_ring_csv(ring, args.out_ring)
    if args.out_oam:
        fieldio.write_oam_csv(spec, args.out_oam)
    summary = {
        "k": ring.k,
        "theta": ring.theta,
        "ring_samples": ring.m,
        "window": args.window,
        "n_min": n_min,
        "n_max": n_max,
        "ring_norm": spectral.parseval_norm(ring),
        "oam_norm": spec.norm,
        "weighted_ring_norm": math.sin(ring.theta) * spectral.parseval_norm(ring),
        "parseval_residual": spectral.parseval_residual(ring, spec),
    }
    fieldio.write_json(summary, args.out_summary)
    return 0


def _cmd_momenta(args):
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    momenta.check_request(methods, args.f, args.parity, args.n)
    grid, (n_min, n_max) = _read_input(args)
    reports = momenta.report(
        grid, methods=methods, m=args.ring_samples, n_min=n_min, n_max=n_max,
        window=args.window, f=args.f, parity=args.parity, n=args.n,
    )
    fieldio.write_json([dataclasses.asdict(r) for r in reports], args.out)
    return 0


def _cmd_mathieu_table(args):
    if (args.q_max is None) != (args.q_steps is None):
        raise UsageError("--q-max and --q-steps must be given together")
    if args.q_max is None:
        qs = [args.q]
    else:
        if not 2 <= args.q_steps <= MAX_Q_STEPS:
            raise UsageError(f"--q-steps must lie in [2, {MAX_Q_STEPS}], got {args.q_steps}")
        check_q(args.q, "--q")
        check_q(args.q_max, "--q-max")
        qs = list(np.linspace(args.q, args.q_max, args.q_steps))
    eigens = [mathieu_eigen(args.parity, args.n, q) for q in qs]  # all solved before the file opens
    fieldio.write_mathieu_table(eigens, args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "spectrum": _cmd_spectrum,
    "momenta": _cmd_momenta,
    "mathieu-table": _cmd_mathieu_table,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # arithmetic that overflows double precision on the input is exit 2, not a numpy warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RangeError, DomainError, NumericalError, UndefinedMeanError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
