"""The Mathieu eigen-system underlying the elliptic wave family."""

from .mathieu import (
    MathieuClass,
    MathieuEigen,
    mathieu_angular_derivative,
    mathieu_ce,
    mathieu_ce_radial,
    mathieu_eigen,
    mathieu_norm_constant,
    mathieu_se,
    mathieu_se_radial,
    radial_xi_max,
)

__all__ = [
    "MathieuClass",
    "MathieuEigen",
    "mathieu_angular_derivative",
    "mathieu_ce",
    "mathieu_ce_radial",
    "mathieu_eigen",
    "mathieu_norm_constant",
    "mathieu_se",
    "mathieu_se_radial",
    "radial_xi_max",
]
