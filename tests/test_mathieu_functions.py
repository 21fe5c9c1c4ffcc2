import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import special

import wavemom.specfun.mathieu as mathieu_module
from wavemom.errors import DomainError, RangeError
from wavemom.specfun.mathieu import (
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


# Coefficient vectors built by correctly rounded float arithmetic alone, so the
# references below hold on every platform; LONG spreads over many harmonics
# like the coefficients of a large q.
SHORT = [(-1) ** j * (j + 3) / ((j + 1) * (j + 1) * (j + 2)) for j in range(9)]
LONG = [(1 + j % 5) * (-1) ** (j // 4) / (1 + ((j - 150) / 40) * ((j - 150) / 40))
        for j in range(320)]
POINTS = np.array([0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.3, 1.1, -2.2,
                   2.7, 5.0, 1e-3])

# series -> (parity, order, first harmonic, derivative)
SERIES = {
    "ce": ("even", 2, 0, False),
    "se": ("odd", 1, 1, False),
    "ce-derivative": ("even", 1, 1, True),
    "se-derivative": ("odd", 2, 2, True),
}

# sum_j c_j cos(h_j u), sin(h_j u) or their derivatives at POINTS, for
# h_j = first + 2 j, from a 40-digit mpmath evaluation of the same double
# coefficients and points, stored as double-double (hi, lo) pairs
REFERENCES = {
    ("short", "ce"): [
        (1.2646545099521291, -1.0408340855860843e-16), (1.2646545099521291, -1.0408340855860844e-16),
        (1.2646545099521291, -1.0408340855860844e-16), (2.179535462333081, 2.1510571102112403e-16),
        (2.179535462333081, 2.1510571102112403e-16), (1.2783832670662831, 3.2539909738422455e-17),
        (1.583557605616115, -1.0212569366606964e-16), (1.4576498211778268, 2.5950622110280714e-17),
        (1.2987512027010473, 1.224082106334897e-17), (1.7286812610751658, -7.048362618959509e-17),
        (1.2646538195530745, -2.490223046280058e-17),
    ],
    ("short", "se"): [
        (0.0, 0.0), (1.2358584575639616e-16, -1.836120749745105e-33),
        (-1.2358584575639616e-16, 1.836120749745105e-33), (2.179535462333081, 2.1510571102112403e-16),
        (-2.179535462333081, -2.1510571102112403e-16), (0.2695314696360851, -1.8262319876398976e-17),
        (1.2432008759824427, -3.610941046084121e-18), (-0.9820408476373909, 3.071582855581198e-17),
        (0.41763459145831133, 3.654255284164425e-18), (-1.5466459408814204, -4.5204948324191745e-17),
        (0.001009149269039981, -3.3273986620548605e-20),
    ],
    ("short", "ce-derivative"): [
        (0.0, 0.0), (-2.6140034245175204e-16, -1.5996479302118586e-32),
        (2.6140034245175204e-16, 1.5996479302118586e-32), (-5.2784010456034265, -4.8572257327350025e-17),
        (5.2784010456034265, 4.8572257327350025e-17), (0.030390791004351388, 3.296538222135621e-20),
        (-0.896147975905905, -2.75137265427469e-17), (0.2459583101103386, -1.0589010232263505e-17),
        (-0.21372426763384705, 1.0587198128869993e-17), (0.9421706598117259, -1.827280276258157e-17),
        (-0.0021343901675307435, 3.941353620220944e-20),
    ],
    ("short", "se-derivative"): [
        (2.273809523809524, -1.8041124150158794e-16), (2.273809523809524, -1.8041124150158828e-16),
        (2.273809523809524, -1.8041124150158828e-16), (-7.457936507936508, 1.8041124150158873e-16),
        (-7.457936507936508, 1.8041124150158873e-16), (2.098848116779431, 9.528537808339966e-18),
        (-0.6340599827357413, 4.752315583422938e-17), (0.46659098410507444, 2.1821904484688565e-17),
        (1.735807679625223, 1.0963866633628697e-16), (-1.5947759147507494, 1.1427497132519305e-17),
        (2.273786941890695, -1.1616523098326206e-16),
    ],
    ("long", "ce"): [
        (0.09775516193045819, -6.938893903907228e-18), (0.09775516193045819, -6.9388939029242075e-18),
        (0.09775516193045819, -6.9388939029242075e-18), (0.07802655623402588, 6.938893903641779e-18),
        (0.07802655623402588, 6.938893903641779e-18), (1.0316565998823553, 1.568725886235845e-17),
        (-0.24344090712821317, -1.332991178447406e-18), (0.22846366012810213, -1.0578929762153515e-17),
        (-5.258070012603288, -2.4437988478811005e-16), (0.01954091182866824, 8.752165256664301e-20),
        (0.16110037822619755, 3.2969744087084628e-18),
    ],
    ("long", "se"): [
        (0.0, 0.0), (-2.4821180947081498e-14, -9.211010965084975e-31),
        (2.4821180947081498e-14, 9.211010965084975e-31), (0.07802655623402588, 6.938893903640847e-18),
        (-0.07802655623402588, -6.938893903640847e-18), (-0.6851715418310529, 6.834855187834139e-18),
        (-0.23069932020902306, -8.889646465252637e-18), (-0.08179012151888011, 2.3697531297002123e-18),
        (-3.098868241603086, 2.2086475431853104e-17), (0.0010348655900453525, 1.174629850059975e-20),
        (-0.18895314029032584, -6.8003351101039464e-18),
    ],
    ("long", "ce-derivative"): [
        (0.0, 0.0), (1.6103603699432868e-11, -4.327764986736776e-28),
        (-1.6103603699432868e-11, 4.327764986736776e-28), (-248.60698359894118, -4.3229309019729775e-15),
        (248.60698359894118, 4.3229309019729775e-15), (130.14367108211377, 2.52963615609132e-16),
        (149.46449053047508, 9.146396617351404e-15), (282.88581372618256, -2.585659468830636e-14),
        (1260.938259956011, -4.85249125213722e-14), (-123.84195761582352, 3.728958926852683e-15),
        (122.70206295142897, -2.6497800476089616e-15),
    ],
    ("long", "se-derivative"): [
        (-202.5825683759498, 4.884981308350689e-15), (-202.5825683759498, 4.884981308984123e-15),
        (-202.5825683759498, 4.884981308984123e-15), (-248.6850101551752, -8.326672684526648e-15),
        (-248.6850101551752, -8.326672684526648e-15), (398.5103038341458, 6.556816703263076e-15),
        (43.7562465785255, 1.172953554447963e-15), (-165.9993112970492, -2.9372094424021355e-15),
        (145.86599625763267, -8.324388861254031e-16), (129.1574474288002, 1.3520020064903062e-14),
        (-161.77996053327996, -3.053684201124584e-15),
    ],
}

# largest error allowed, from the worst errors measured on Mathieu coefficients
# against 40-digit references: 4.4e-16 at q = 1; 4.7e-14 for values and
# 4.9e-11 for derivatives (peak 1.4e3) at q = 1e6
BOUNDS = {("short", False): 1e-15, ("short", True): 1e-15,
          ("long", False): 5e-14, ("long", True): 5e-11}


def per_harmonic_sum(harmonics, coeffs, u, func, weight):
    """The earlier evaluator: one func(h u) pass per harmonic, added in index order."""
    acc = np.zeros(u.shape)
    for h, c in zip(harmonics.astype(float), coeffs):
        term = func(h * u)
        if weight:
            term = weight * h * term
        acc += c * term
    return acc


@pytest.mark.parametrize("vector", ["short", "long"])
@pytest.mark.parametrize("series", list(SERIES))
def test_series_against_40_digit_references(monkeypatch, vector, series):
    parity, n, first, derivative = SERIES[series]
    coeffs = np.array(SHORT if vector == "short" else LONG)
    eig = MathieuEigen(MathieuClass.from_order(parity, n), n, 1.0, 0.0, coeffs, len(coeffs))
    monkeypatch.setattr(mathieu_module, "mathieu_eigen", lambda *args: eig)
    if derivative:
        ours = mathieu_angular_derivative(parity, n, 1.0, POINTS)
    else:
        ours = (mathieu_ce if parity == "even" else mathieu_se)(n, 1.0, POINTS)
    func = np.cos if (parity == "even") != derivative else np.sin
    weight = (-1 if parity == "even" else 1) if derivative else 0
    before = per_harmonic_sum(eig.harmonics, coeffs, POINTS, func, weight)
    hi, lo = np.array(REFERENCES[vector, series]).T

    def error(vals):
        return np.abs((vals - hi) - lo).max()    # vals - hi is exact near hi

    assert error(ours) <= error(before)
    assert error(ours) <= BOUNDS[vector, derivative]


ANGULAR = {
    "ce": lambda u: mathieu_ce(2, 2.0, u),
    "se": lambda u: mathieu_se(2, 2.0, u),
    "ce-derivative": lambda u: mathieu_angular_derivative("even", 3, 2.0, u),
    "se-derivative": lambda u: mathieu_angular_derivative("odd", 3, 2.0, u),
}


@pytest.mark.parametrize("series", list(ANGULAR))
def test_series_blocks_agree_with_scalar_calls(series):
    fn = ANGULAR[series]
    chunk = mathieu_module._CHUNK
    u = np.linspace(-4.0, 4.0, 2 * chunk + 3)
    vals = fn(u)
    for i in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, 2 * chunk + 2):
        assert vals[i] == fn(float(u[i]))


def test_series_working_memory():
    # the output plus a few block-sized buffers, whatever the number of harmonics
    u = np.linspace(-math.pi, math.pi, 2 ** 18)
    mathieu_ce(2, 1.0, 0.0)     # solve outside the traced region
    tracemalloc.start()
    try:
        mathieu_ce(2, 1.0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.nbytes


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
