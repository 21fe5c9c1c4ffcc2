"""Mean conserved momenta: spectral means, closed forms, and a grid oracle.

All means are ratios (normalised spectra or Rayleigh quotients), so the
divergent normalisation of ideal non-square-integrable waves cancels and
every result is invariant under scaling the field by a nonzero constant.
The routes are mutually independent and reported side by side, never
averaged: means over charge spectra, the closed-form coefficient sum for
elliptic waves, and direct finite-difference Rayleigh quotients on grids.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RangeError, UndefinedMeanError, UsageError
from .spectral import (DEFAULT_CHARGE_WINDOW, DEFAULT_RING_SAMPLES, oam_spectrum, parseval_norm,
                       parseval_residual, ring_azimuths, ring_spectrum_from_grid)
from .specfun.mathieu import mathieu_eigen
from .waves import MathieuWave, check_focal

GRID_OPS = ("lz", "px", "py", "elliptic")
MAX_PARSEVAL_RESIDUAL = 1e-3  # the share of the ring's power a spectral mean may miss
_SLAB = 32  # quadrature rows per slab of grid_mean


@dataclass
class MomentumReport:
    """Mean momenta of one field by one method.

    Linear momenta are reported in units of k; mean_pz always comes from
    the cone metadata (k cos theta over k) because a single transverse
    slice carries no axial derivative.
    """

    mean_lz: float
    mean_px: float
    mean_py: float
    mean_pz: float
    elliptic_invariant: float  # None unless computed on an elliptic-wave grid
    method: str
    norm_used: float
    window: str
    notes: str = ""


def mean_charge(spec):
    """Mean topological charge sum n |c_n|^2 / sum |c_n|^2."""
    power = np.abs(spec.coeffs) ** 2
    total = power.sum()
    if not total > 0.0:
        raise UndefinedMeanError("charge spectrum has zero norm; mean is undefined")
    return float((spec.charges() * power).sum() / total)


def oam_mathieu_paper(parity, n, q):
    """Closed-form mean charge of an elliptic wave from its coefficients.

    Implements the one-sided sum  sum_m [m + (n mod 2)/2] |coeff_{2m + n mod 2}|^2
    normalised by the total coefficient power (the squared delta
    normalisations cancel in the ratio).  The weight of the coefficient at
    harmonic j is j/2 in every symmetry class, so the q -> 0 limit (a unit
    coefficient vector at harmonic n) is n/2.  Note the two-sided spectral
    mean of the same (real) profile is 0 by conjugation symmetry — both
    numbers are physical outputs of different conventions and are reported
    separately, not reconciled.
    """
    eig = mathieu_eigen(parity, n, q)
    weights = eig.harmonics / 2.0
    power = eig.coeffs ** 2
    return float((weights * power).sum() / power.sum())


def _diff(v, axis, h):
    """Centred difference (v[i+1] - v[i-1]) / 2h along axis, on the samples that have both neighbours.

    Multiplies by 1 / 2h: numpy divides a complex array by a real number as by a complex
    one, at the same reciprocal times each part, so the bits are those of the division."""
    lead = (slice(None),) * axis
    return (v[lead + (slice(2, None),)] - v[lead + (slice(None, -2),)]) * (1.0 / (2.0 * h))


def _lz(v, x, y, dx, dy):
    """-i (x d/dy - y d/dx) on the samples of v that have all four neighbours; x, y are v's axes."""
    return -1j * (x[1:-1] * _diff(v[:, 1:-1], 0, dy) - y[1:-1, None] * _diff(v[1:-1], 1, dx))


def grid_mean(fieldgrid, op, f=None):
    """Rayleigh quotient of a momentum operator on a sampled field.

    Derivatives are centred second-order differences (``_diff``), taken
    only where both neighbours are sampled; the composed operator
    lz^2 + f^2 px^2 applies the first-order stencils twice, so its
    quadrature region loses two border cells instead of one.  Both sums
    of the quotient are numpy sums (no BLAS, so no dependence on its
    thread count) over slabs of _SLAB rows, each read with a halo of as
    many rows as the border, so the working set is a few slabs.  The
    elliptic operator's f must pass ``waves.check_focal`` on the grid's
    cone.  A zero
    norm on the region raises UndefinedMeanError, and an imaginary part
    above 1e-6 relative a NumericalError; the real part is returned
    (raw operator units: lz dimensionless, px/py in rad/length).
    """
    if op not in GRID_OPS:
        raise RangeError(f"unknown grid operator {op!r}; choose from {GRID_OPS}")
    border = 2 if op == "elliptic" else 1
    ny = fieldgrid.ny
    if op == "elliptic":
        check_focal(fieldgrid.meta, f)
    x = fieldgrid.x()
    y = fieldgrid.y()
    dx, dy = fieldgrid.dx, fieldgrid.dy
    num, den = 0j, 0.0
    for i0 in range(border, ny - border, _SLAB):
        rows = slice(i0 - border, min(i0 + _SLAB, ny - border) + border)
        v, ys = fieldgrid.values[rows], y[rows]
        if op == "lz":
            applied = _lz(v, x, ys, dx, dy)
        elif op == "px":
            applied = -1j * _diff(v[1:-1], 1, dx)
        elif op == "py":
            applied = -1j * _diff(v[:, 1:-1], 0, dy)
        else:   # lz^2 + (f f) (-d^2/dx^2)
            applied = (_lz(_lz(v, x, ys, dx, dy), x[1:-1], ys[1:-1], dx, dy)
                       + f * f * -_diff(_diff(v[2:-2], 1, dx), 1, dx))
        core = v[border:-border, border:-border]
        den += np.sum(core.real ** 2 + core.imag ** 2)
        num += np.sum(core.conj() * applied)
    if not den > 0.0:
        raise UndefinedMeanError("field has zero norm on the grid quadrature region; "
                                 f"mean of {op} is undefined")
    quot = num / den
    scale = max(1.0, abs(quot))
    if abs(quot.imag) > 1e-6 * scale:
        raise NumericalError(
            f"grid mean of {op} has imaginary residue {quot.imag:.3e} "
            f"(relative to {scale:.3e}); field sampling is inconsistent"
        )
    return float(quot.real)


def ring_transverse_means(ring):
    """(mean px, mean py) in units of k from a ring profile's power."""
    power = np.abs(ring.samples) ** 2
    total = power.sum()
    if not total > 0.0:
        raise UndefinedMeanError("ring profile has zero norm; means are undefined")
    phi = ring_azimuths(ring.m)
    s = math.sin(ring.theta)
    return (
        float(s * (power * np.cos(phi)).sum() / total),
        float(s * (power * np.sin(phi)).sum() / total),
    )


def _elliptic_notes(measured, wave):
    eig = mathieu_eigen(wave.parity, wave.n, wave.q)
    cands = {
        "char": eig.char_value,
        "char+2q": eig.char_value + 2.0 * wave.q,
        "char-2q": eig.char_value - 2.0 * wave.q,
    }
    best = min(cands, key=lambda name: abs(cands[name] - measured))
    listing = ", ".join(f"{name}={val:.9g}" for name, val in cands.items())
    return (
        f"elliptic invariant {measured:.9g} vs candidates {listing}; "
        f"closest: {best}"
    )


def _spectral_route(fieldgrid, *, m, n_min, n_max, window, **_):
    ring = ring_spectrum_from_grid(fieldgrid, m, window)
    spec = oam_spectrum(ring, n_min, n_max)
    residual = parseval_residual(ring, spec)
    if residual > MAX_PARSEVAL_RESIDUAL:
        share = spec.norm / (math.sin(ring.theta) * parseval_norm(ring))
        raise RangeError(f"charge window [{n_min}, {n_max}] holds {share:.3g} of the ring's power "
                         f"(Parseval residual {residual:.3g} > {MAX_PARSEVAL_RESIDUAL:g}); widen the window")
    px, py = ring_transverse_means(ring)
    return MomentumReport(
        mean_lz=mean_charge(spec),
        mean_px=px, mean_py=py, mean_pz=math.cos(fieldgrid.meta.theta),
        elliptic_invariant=None,
        method="spectral", norm_used=spec.norm, window=window,
        notes=f"charge window [{n_min}, {n_max}]; pz from cone metadata",
    )


def _grid_route(fieldgrid, *, f, wave, **_):
    k = fieldgrid.meta.k
    lz = grid_mean(fieldgrid, "lz")
    px = grid_mean(fieldgrid, "px") / k
    py = grid_mean(fieldgrid, "py") / k
    inv = None if f is None else grid_mean(fieldgrid, "elliptic", f=f)
    notes = "pz from cone metadata"
    if wave is not None:  # built from f, so inv is set
        notes = _elliptic_notes(inv, wave) + "; " + notes
    norm = np.float64(0.0)   # a numpy scalar, so an overflowing sum raises under np.errstate
    for i0 in range(0, fieldgrid.ny, _SLAB):
        norm += np.sum(np.abs(fieldgrid.values[i0:i0 + _SLAB]) ** 2)
    norm = float(norm * fieldgrid.dx * fieldgrid.dy)
    return MomentumReport(
        mean_lz=lz, mean_px=px, mean_py=py, mean_pz=math.cos(fieldgrid.meta.theta),
        elliptic_invariant=inv,
        method="grid-oracle", norm_used=norm, window="none",
        notes=notes,
    )


def _paper_route(fieldgrid, *, wave, **_):
    eig = mathieu_eigen(wave.parity, wave.n, wave.q)
    return MomentumReport(
        mean_lz=oam_mathieu_paper(wave.parity, wave.n, wave.q),
        mean_px=0.0, mean_py=0.0, mean_pz=math.cos(fieldgrid.meta.theta),
        elliptic_invariant=None,
        method="paper-formula",
        norm_used=float(np.sum(eig.coeffs ** 2)),
        window="none",
        notes=(
            "one-sided coefficient sum; the two-sided spectral mean of the "
            "same real profile is 0 by conjugation symmetry"
        ),
    )


# method name -> route; the CLI's --methods takes its choices from here
ROUTES = {"spectral": _spectral_route, "grid": _grid_route, "paper": _paper_route}


def check_request(methods, f=None, parity=None, n=None):
    """UsageError for no, unknown or repeated methods, or parity/n (or "paper") without all of f, parity, n."""
    if not methods or not set(methods) <= set(ROUTES):
        raise UsageError(f"--methods takes a comma list from {sorted(ROUTES)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise UsageError(f"--methods names {repeated[0]} more than once")
    if "paper" in methods and None in (f, parity, n):
        raise UsageError("--methods paper needs --f, --parity and --n")
    if (parity, n) != (None, None) and None in (f, parity, n):
        raise UsageError("--parity and --n apply only with --f, --parity and --n together")


def report(fieldgrid, methods=("spectral", "grid"), m=DEFAULT_RING_SAMPLES,
           n_min=DEFAULT_CHARGE_WINDOW[0], n_max=DEFAULT_CHARGE_WINDOW[1],
           window="none", f=None, parity=None, n=None):
    """Momentum reports for a sampled field, one entry per requested method.

    Methods (see ROUTES): "spectral" (ring + charge spectrum means),
    "grid" (finite-difference Rayleigh quotients, plus the elliptic
    invariant when f is given), "paper" (closed-form elliptic mean charge).
    Given f, parity and n together, one MathieuWave on the grid's cone
    supplies q to the grid notes and the paper route; ``check_request``
    runs first.  Any f given must pass ``waves.check_focal`` on the grid's
    cone, whatever the methods.  Results are reported side by side, never averaged.
    """
    check_request(methods, f, parity, n)
    meta = fieldgrid.meta
    if f is not None:
        check_focal(meta, f)
    wave = None if parity is None else MathieuWave(meta.k, meta.theta, n, parity, f)
    return [ROUTES[method](fieldgrid, m=m, n_min=n_min, n_max=n_max, window=window,
                           f=f, wave=wave) for method in methods]
