import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import special

from wavemom.errors import DomainError, RangeError
from wavemom.specfun import (
    mathieu_angular_derivative,
    mathieu_ce,
    mathieu_ce_radial,
    mathieu_eigen,
    mathieu_norm_constant,
    mathieu_se,
    mathieu_se_radial,
    radial_xi_max,
)

from _oracles import norm_constant_recomposed, rk4_second_order

ETA = np.linspace(-math.pi, math.pi, 256, endpoint=False)


def angular_residual(parity, n, q, eta):
    """|y'' + (a - 2q cos 2eta) y| relative to the equation's scale."""
    eig = mathieu_eigen(parity, n, q)
    h = eig.harmonics.astype(float)
    args = np.multiply.outer(eta, h)
    if parity == "even":
        y = mathieu_ce(n, q, eta)
        d2 = -(np.cos(args) * h * h) @ eig.coeffs
    else:
        y = mathieu_se(n, q, eta)
        d2 = -(np.sin(args) * h * h) @ eig.coeffs
    resid = d2 + (eig.char_value - 2.0 * q * np.cos(2.0 * eta)) * y
    scale = np.abs(d2) + np.abs((eig.char_value - 2.0 * q * np.cos(2.0 * eta)) * y)
    return np.abs(resid).max() / max(scale.max(), 1.0)


def radial_residual(parity, n, q):
    """|y'' - (a - 2q cosh 2xi) y| over the supported range, relative."""
    eig = mathieu_eigen(parity, n, q)
    h = eig.harmonics.astype(float)
    xi = np.linspace(0.0, radial_xi_max(q), 257)
    args = np.multiply.outer(xi, h)
    if parity == "even":
        y = mathieu_ce_radial(n, q, xi)
        d2 = (np.cosh(args) * h * h) @ eig.coeffs
    else:
        y = mathieu_se_radial(n, q, xi)
        d2 = (np.sinh(args) * h * h) @ eig.coeffs
    resid = d2 - (eig.char_value - 2.0 * q * np.cosh(2.0 * xi)) * y
    scale = np.abs(d2) + np.abs((eig.char_value - 2.0 * q * np.cosh(2.0 * xi)) * y)
    return np.abs(resid).max() / max(scale.max(), 1e-300)


# ----------------------------------------------------------- angular

def test_q_zero_reduces_to_trig():
    assert_allclose(mathieu_ce(1, 0.0, ETA), np.cos(ETA), atol=1e-10, rtol=0)
    assert_allclose(mathieu_se(2, 0.0, ETA), np.sin(2 * ETA), atol=1e-10, rtol=0)
    assert_allclose(mathieu_ce(0, 0.0, ETA), np.full_like(ETA, 1 / math.sqrt(2)),
                    atol=1e-10, rtol=0)


def test_se_vanishes_at_origin():
    for n in (1, 2, 3, 6):
        for q in (0.0, 0.5, 5.0):
            assert mathieu_se(n, q, 0.0) == 0.0


def test_period_normalisation_by_quadrature():
    # rectangle rule on a periodic integrand, 4096 nodes
    eta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    w = 2.0 * math.pi / len(eta)
    assert (mathieu_ce(2, 1.0, eta) ** 2).sum() * w == pytest.approx(math.pi, abs=1e-8)
    assert (mathieu_se(3, 5.0, eta) ** 2).sum() * w == pytest.approx(math.pi, abs=1e-8)
    assert (mathieu_ce(0, 0.5, eta) ** 2).sum() * w == pytest.approx(math.pi, abs=1e-8)


def test_against_scipy_angular():
    deg = np.degrees(ETA)
    for n, q in ((0, 1.0), (2, 1.0), (3, 5.0), (5, 0.5)):
        assert_allclose(mathieu_ce(n, q, ETA), special.mathieu_cem(n, q, deg)[0],
                        atol=1e-10, rtol=0)
    for n, q in ((1, 1.0), (2, 5.0), (4, 0.5)):
        assert_allclose(mathieu_se(n, q, ETA), special.mathieu_sem(n, q, deg)[0],
                        atol=1e-10, rtol=0)


def test_angular_ode_residual():
    for q in (0.5, 1.0, 5.0):
        for n in range(0, 7):
            assert angular_residual("even", n, q, ETA) < 1e-8
        for n in range(1, 7):
            assert angular_residual("odd", n, q, ETA) < 1e-8


def test_periodicity():
    eta = np.linspace(-3.0, 3.0, 17)
    assert_allclose(mathieu_ce(3, 2.0, eta + 2 * math.pi), mathieu_ce(3, 2.0, eta),
                    atol=1e-12, rtol=0)
    assert_allclose(mathieu_se(2, 2.0, eta + 2 * math.pi), mathieu_se(2, 2.0, eta),
                    atol=1e-12, rtol=0)


@settings(max_examples=40)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_parity_symmetry(eta):
    assert mathieu_ce(2, 1.5, -eta) == pytest.approx(mathieu_ce(2, 1.5, eta), abs=1e-12)
    assert mathieu_se(3, 1.5, -eta) == pytest.approx(-mathieu_se(3, 1.5, eta), abs=1e-12)


# --------------------------------------------------------- derivative

def test_derivative_trivial_values():
    assert mathieu_angular_derivative("even", 1, 0.0, 0.0) == 0.0
    assert mathieu_angular_derivative("odd", 1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_derivative_matches_finite_differences():
    h = 1e-5
    for parity, n, q, eta in (("even", 3, 1.0, math.pi / 2), ("even", 0, 5.0, 0.7),
                              ("odd", 2, 1.0, 1.2), ("odd", 5, 0.5, -0.4)):
        fn = mathieu_ce if parity == "even" else mathieu_se
        fd = (fn(n, q, eta + h) - fn(n, q, eta - h)) / (2.0 * h)
        ours = mathieu_angular_derivative(parity, n, q, eta)
        assert ours == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_derivative_matches_scipy():
    # scipy reports d/d(eta) in radians even though eta is passed in degrees
    for n, q, eta in ((3, 1.0, 0.9), (2, 5.0, 2.2)):
        ours = mathieu_angular_derivative("even", n, q, eta)
        assert ours == pytest.approx(special.mathieu_cem(n, q, math.degrees(eta))[1],
                                     rel=1e-9, abs=1e-10)


# ------------------------------------------------------ series contract

XI_CAP = radial_xi_max(2.0)


@pytest.mark.parametrize("fn,radial", [
    (lambda u: mathieu_ce(3, 2.0, u), False),
    (lambda u: mathieu_se(3, 2.0, u), False),
    (lambda u: mathieu_angular_derivative("even", 3, 2.0, u), False),
    (lambda u: mathieu_angular_derivative("odd", 3, 2.0, u), False),
    (lambda u: mathieu_ce_radial(3, 2.0, u), True),
    (lambda u: mathieu_se_radial(3, 2.0, u), True),
], ids=["ce", "se", "ce-derivative", "se-derivative", "ce-radial", "se-radial"])
def test_series_evaluator_contract(fn, radial):
    top = 0.95 * XI_CAP if radial else 4.0
    u = np.linspace(0.0 if radial else -top, top, 35).reshape(5, 7)
    assert isinstance(fn(0.3), float)
    vals = fn(u)
    assert vals.shape == u.shape
    assert np.array_equal(vals, [[fn(float(v)) for v in row] for row in u])
    if radial:
        u[3, 2] = XI_CAP + 0.1
        with pytest.raises(RangeError, match=r"sample \(3, 2\)"):
            fn(u)


@pytest.mark.parametrize("parity,fn,term", [
    ("even", lambda u: mathieu_ce(7, 9.0, u), lambda h, arg: np.cos(arg)),
    ("odd", lambda u: mathieu_se(7, 9.0, u), lambda h, arg: np.sin(arg)),
    ("even", lambda u: mathieu_angular_derivative("even", 7, 9.0, u),
     lambda h, arg: -h * np.sin(arg)),
    ("odd", lambda u: mathieu_angular_derivative("odd", 7, 9.0, u),
     lambda h, arg: h * np.cos(arg)),
], ids=["ce", "se", "ce-derivative", "se-derivative"])
def test_series_equals_plain_sum(parity, fn, term):
    # the in-place evaluator does the plain sum's operations in its order
    eig = mathieu_eigen(parity, 7, 9.0)
    u = np.linspace(-4.0, 4.0, 1001)
    plain = np.zeros(u.shape)
    for h, c in zip(eig.harmonics.astype(float), eig.coeffs):
        plain += c * term(h, h * u)
    assert np.array_equal(fn(u), plain)


# ------------------------------------------------------------- radial

def test_radial_q_to_zero_limit():
    assert mathieu_ce_radial(2, 1e-12, 1.0) == pytest.approx(math.cosh(2.0), abs=1e-8)
    assert mathieu_se_radial(1, 1e-12, 0.5) == pytest.approx(math.sinh(0.5), abs=1e-8)


def test_se_radial_vanishes_at_origin():
    for n in (1, 2, 5):
        for q in (0.3, 2.0):
            assert mathieu_se_radial(n, q, 0.0) == 0.0


def test_radial_against_ode_marching():
    # fourth-order fixed-step march from xi = 0 initial data
    for parity, n, q in (("even", 0, 1.0), ("even", 2, 0.5), ("odd", 1, 1.0)):
        eig = mathieu_eigen(parity, n, q)
        rhs = lambda x: eig.char_value - 2.0 * q * math.cosh(2.0 * x)
        if parity == "even":
            y0 = mathieu_ce(n, q, 0.0)
            marched = rk4_second_order(rhs, y0, 0.0, 1.0, 20000)
            ours = mathieu_ce_radial(n, q, 1.0)
        else:
            dy0 = mathieu_angular_derivative("odd", n, q, 0.0)
            marched = rk4_second_order(rhs, 0.0, dy0, 1.0, 20000)
            ours = mathieu_se_radial(n, q, 1.0)
        assert ours == pytest.approx(marched, rel=1e-6)


def test_radial_ode_residual_over_supported_range():
    for q in (0.5, 1.0, 5.0):
        for n in range(0, 7):
            assert radial_residual("even", n, q) < 1e-6
        for n in range(1, 7):
            assert radial_residual("odd", n, q) < 1e-6


def test_radial_range_error():
    limit = radial_xi_max(1.0)
    with pytest.raises(RangeError):
        mathieu_ce_radial(0, 1.0, limit + 0.2)
    with pytest.raises(RangeError):
        mathieu_se_radial(1, 1.0, np.array([0.1, limit + 0.5]))
    with pytest.raises(RangeError):
        mathieu_ce_radial(0, 1.0, -0.1)


def test_radial_bessel_sum_crosscheck():
    # on the positive x axis the wave equals a cancellation-free sum of
    # Bessel terms with the same coefficients, an independent route
    n, q = 0, 1.0
    eig = mathieu_eigen("even", n, q)
    cn = mathieu_norm_constant("even", n, q)
    for xi in (1.0, 2.0, 2.6):
        arg = 2.0 * math.sqrt(q) * math.cosh(xi)
        acc = math.sqrt(2.0) * eig.coeffs[0] * special.jv(0, arg)
        for idx in range(1, len(eig.coeffs)):
            j = int(eig.harmonics[idx])
            acc += math.sqrt(2.0) * eig.coeffs[idx] * ((1j ** j) * special.jv(j, arg)).real
        expected = cn / (math.sqrt(2.0) * mathieu_ce(n, q, 0.0)) * acc
        assert mathieu_ce_radial(n, q, xi) == pytest.approx(expected, rel=1e-9)


# ----------------------------------------------------- norm constants

def test_norm_constant_c0_limit():
    values = [mathieu_norm_constant("even", 0, q) for q in (1e-6, 1e-8, 1e-10)]
    assert abs(values[1] - values[2]) < abs(values[0] - values[1]) + 1e-12
    assert values[2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)


def test_norm_constant_recomposition():
    for parity, n, q in (("even", 0, 0.5), ("even", 1, 1.0), ("even", 2, 0.5),
                         ("odd", 1, 1.0), ("odd", 2, 0.5), ("odd", 3, 1.0)):
        ours = mathieu_norm_constant(parity, n, q)
        assert ours == pytest.approx(norm_constant_recomposed(parity, n, q), rel=1e-10)
        assert math.isfinite(ours) and ours != 0.0


def test_norm_constant_scipy_recomposition():
    # same closed forms assembled from scipy's own Mathieu pieces
    c2 = special.mathieu_cem(2, 0.5, 0)[0] * special.mathieu_cem(2, 0.5, 90)[0] \
        / special.mathieu_even_coef(2, 0.5)[0]
    assert mathieu_norm_constant("even", 2, 0.5) == pytest.approx(c2, rel=1e-10)
    s1 = special.mathieu_sem(1, 1.0, 0)[1] * special.mathieu_sem(1, 1.0, 90)[0] \
        / special.mathieu_odd_coef(1, 1.0)[0]
    assert mathieu_norm_constant("odd", 1, 1.0) == pytest.approx(s1, rel=1e-10)


def test_norm_constant_truncation_stability():
    # doubling the oracle truncation moves the recomposed value < 1e-8
    small = norm_constant_recomposed("odd", 1, 1.0, size=60)
    large = norm_constant_recomposed("odd", 1, 1.0, size=120)
    assert small == pytest.approx(large, abs=1e-8)
    assert mathieu_norm_constant("odd", 1, 1.0) == pytest.approx(large, rel=1e-8)


def test_norm_constant_domain_errors():
    with pytest.raises(DomainError):
        mathieu_norm_constant("odd", 1, 0.0)
    with pytest.raises(DomainError):
        mathieu_norm_constant("even", 1, 0.0)
    with pytest.raises(DomainError):
        mathieu_norm_constant("odd", 2, 0.0)
    with pytest.raises(DomainError):
        mathieu_norm_constant("even", 4, 0.0)  # constant-term coefficient is 0
    assert mathieu_norm_constant("even", 0, 0.0) == pytest.approx(1 / math.sqrt(2))


def test_norm_constant_at_tiny_q():
    # q is solved at its own value, not rounded to 0, so A_0 ~ q / 4 is nonzero
    assert mathieu_eigen("even", 2, 4e-13).q == 4e-13
    c2 = mathieu_norm_constant("even", 2, 4e-13)
    assert math.isfinite(c2) and c2 != 0.0
