"""The Mathieu eigen-system underlying the elliptic wave family, in ``specfun.mathieu``."""
