"""Momenta of scalar Helmholtz wave fields.

Evaluate separable wave families (plane, circular/Bessel, elliptic/Mathieu)
on one propagation cone, extract their angular spectra on the transverse
wavevector ring, decompose ring profiles into topological charges, and
compute mean conserved momenta both spectrally and by an independent
finite-difference grid oracle.
"""

from .errors import (
    DomainError,
    FormatError,
    NumericalError,
    RangeError,
    UndefinedMeanError,
)
from .fieldio import read_field, read_field_csv, write_field, write_field_csv
from .momenta import (
    MomentumReport,
    grid_mean,
    mean_charge,
    oam_mathieu_paper,
    report,
)
from .spectral import (
    Cone,
    OamSpectrum,
    RingSpectrum,
    analytic_ring,
    bessel_coeffs_of_mathieu,
    oam_spectrum,
    parseval_norm,
    parseval_residual,
    plancherel_overlap,
    ring_spectrum_from_grid,
)
from .specfun.mathieu import (
    mathieu_ce,
    mathieu_ce_radial,
    mathieu_eigen,
    mathieu_norm_constant,
    mathieu_se,
    mathieu_se_radial,
)
from .waves import (
    BesselWave,
    FieldGrid,
    MathieuWave,
    PlaneWave,
    elliptic_coords,
    sample_grid,
)

__version__ = "0.1.0"
