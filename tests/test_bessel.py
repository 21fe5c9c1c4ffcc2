"""Checks of the tests' closed-form Bessel oracle against its power series.

``bessel_jn`` (scipy's jv with the negative-order reflection) feeds
``bessel_field``, the closed form that synthesised Bessel grids are compared
with; the package itself has no pointwise Bessel function.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from _oracles import bessel_jn, bessel_series, bisect_root

# first zero of J_0, located by bisection on the power-series oracle
J0_FIRST_ZERO = 2.404825557695773


def test_values_at_origin():
    assert bessel_jn(0, 0.0) == 1.0
    for n in (1, 2, 5, -3):
        assert bessel_jn(n, 0.0) == 0.0


def test_first_zero_of_j0():
    root = bisect_root(lambda x: bessel_series(0, x), 2.0, 3.0)
    assert root == pytest.approx(J0_FIRST_ZERO, abs=1e-13)
    assert abs(bessel_jn(0, J0_FIRST_ZERO)) < 1e-10


def test_matches_power_series():
    # the series oracle itself cancels catastrophically past x ~ 12, so the
    # tight comparison stops there and a looser one covers the mid range
    xs = np.linspace(0.0, 10.0, 81)
    for n in range(0, 13):
        expected = np.array([bessel_series(n, x) for x in xs])
        assert_allclose(bessel_jn(n, xs), expected, atol=1e-12, rtol=0)
    xs = np.linspace(10.0, 25.0, 31)
    for n in range(0, 13):
        expected = np.array([bessel_series(n, x) for x in xs])
        assert_allclose(bessel_jn(n, xs), expected, atol=1e-6, rtol=0)


def test_negative_order_reflection():
    xs = np.linspace(0.1, 60.0, 57)
    for n in range(1, 13):
        assert_allclose(bessel_jn(-n, xs), (-1.0) ** n * bessel_jn(n, xs),
                        rtol=0, atol=1e-15)


def test_three_term_recurrence():
    xs = np.geomspace(0.1, 100.0, 80)
    for n in range(1, 51):
        lo = bessel_jn(n - 1, xs)
        hi = bessel_jn(n + 1, xs)
        mid = bessel_jn(n, xs)
        resid = lo + hi - (2.0 * n / xs) * mid
        scale = np.abs(lo) + np.abs(hi) + np.abs(2.0 * n / xs * mid)
        ok = scale > 1e-280  # below that everything is subnormal noise
        assert np.all(np.abs(resid[ok]) <= 1e-10 * scale[ok])


def test_array_and_scalar_returns():
    assert isinstance(bessel_jn(2, 1.5), float)
    out = bessel_jn(2, np.array([0.0, 1.0]))
    assert out.shape == (2,)


@given(st.integers(min_value=0, max_value=50),
       st.floats(min_value=-1e3, max_value=1e3))
def test_bounded_and_even_odd(n, x):
    val = bessel_jn(n, x)
    assert abs(val) <= 1.0 + 1e-12
    assert val == pytest.approx((-1.0) ** n * bessel_jn(n, -x), abs=1e-14)
