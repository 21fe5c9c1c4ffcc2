import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from wavemom.errors import RangeError
from wavemom.specfun import MathieuClass, mathieu_eigen

from _oracles import mathieu_char_value

# regression anchors pinned by the double-truncation oracle below
A0_AT_Q1 = -0.45513860410741364
B1_AT_Q1 = -0.11024881699209521

QS = (0.5, 1.0, 5.0, 25.0)


def weighted_dot(eig_a, eig_b):
    """Inner product under which one class's coefficient vectors are orthogonal.

    Equals (1/pi) * integral of the two angular functions over a period,
    which doubles the constant-term product for the even-even class.
    """
    na = min(len(eig_a.coeffs), len(eig_b.coeffs))
    dot = float(np.dot(eig_a.coeffs[:na], eig_b.coeffs[:na]))
    if eig_a.mathieu_class.first_harmonic == 0:
        dot += float(eig_a.coeffs[0] * eig_b.coeffs[0])
    return dot


def test_q_zero_limits():
    for parity, orders in (("even", range(0, 11)), ("odd", range(1, 11))):
        for n in orders:
            eig = mathieu_eigen(parity, n, 0.0)
            assert eig.char_value == pytest.approx(n * n, abs=1e-10)
            expected = 1.0 / math.sqrt(2.0) if (parity, n) == ("even", 0) else 1.0
            assert eig.coeff_for_harmonic(n) == pytest.approx(expected, abs=1e-12)
            assert len(eig.coeffs) == (n - eig.mathieu_class.first_harmonic) // 2 + 1


def test_double_truncation_oracle_a0():
    small = mathieu_char_value("even", 0, 1.0, 50)
    large = mathieu_char_value("even", 0, 1.0, 200)
    assert small == pytest.approx(large, abs=1e-10)
    assert small == pytest.approx(A0_AT_Q1, abs=1e-10)
    assert mathieu_eigen("even", 0, 1.0).char_value == pytest.approx(A0_AT_Q1, abs=1e-10)


def test_double_truncation_oracle_b1():
    small = mathieu_char_value("odd", 1, 1.0, 50)
    large = mathieu_char_value("odd", 1, 1.0, 200)
    assert small == pytest.approx(large, abs=1e-10)
    assert mathieu_eigen("odd", 1, 1.0).char_value == pytest.approx(B1_AT_Q1, abs=1e-10)
    # interlacing at q = 1
    a0 = mathieu_eigen("even", 0, 1.0).char_value
    a1 = mathieu_eigen("even", 1, 1.0).char_value
    assert a0 < B1_AT_Q1 < a1


@pytest.mark.parametrize("q", QS)
def test_interlacing(q):
    # a_{n}/b_{n} pairs split like (q/4)^n / ((n-1)!)^2, far below double
    # resolution for n >> sqrt(q); ordering is asserted up to solver precision
    seq = []
    for n in range(0, 11):
        seq.append(mathieu_eigen("even", n, q).char_value)
        if n + 1 <= 10:
            seq.append(mathieu_eigen("odd", n + 1, q).char_value)
    for a, b in zip(seq, seq[1:]):
        assert b > a - 1e-11 * max(1.0, abs(a))


@pytest.mark.parametrize("q", QS)
def test_against_scipy(q):
    for n in range(0, 9):
        ours = mathieu_eigen("even", n, q).char_value
        assert ours == pytest.approx(float(special.mathieu_a(n, q)), abs=2e-9)
    for n in range(1, 9):
        ours = mathieu_eigen("odd", n, q).char_value
        assert ours == pytest.approx(float(special.mathieu_b(n, q)), abs=2e-9)


@pytest.mark.parametrize("q", QS)
def test_normalisation_identity(q):
    for parity, orders in (("even", range(0, 9)), ("odd", range(1, 9))):
        for n in orders:
            eig = mathieu_eigen(parity, n, q)
            total = weighted_dot(eig, eig)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_coefficient_tail_below_threshold():
    for parity, n, q in (("even", 0, 1.0), ("even", 5, 25.0), ("odd", 3, 5.0)):
        eig = mathieu_eigen(parity, n, q)
        assert abs(eig.coeffs[-1]) < 1e-14 * np.abs(eig.coeffs).max()


@pytest.mark.parametrize("q", (1.0, 5.0))
def test_coefficient_orthogonality(q):
    for parity, orders in (("even", range(0, 11, 2)), ("odd", range(2, 11, 2))):
        eigs = [mathieu_eigen(parity, n, q) for n in orders]
        for i, ea in enumerate(eigs):
            for eb in eigs[i + 1:]:
                assert abs(weighted_dot(ea, eb)) < 1e-10


def test_sign_convention():
    for parity, n, q in (("even", 0, 1.0), ("even", 3, 5.0), ("odd", 2, 25.0),
                         ("odd", 7, 0.5), ("even", 10, 10.0)):
        c = mathieu_eigen(parity, n, q).coeffs
        assert c[np.argmax(np.abs(c))] > 0


def test_harmonic_parity_structure():
    eig = mathieu_eigen("even", 4, 2.0)
    assert np.all(eig.harmonics % 2 == 0)
    eig = mathieu_eigen("odd", 3, 2.0)
    assert np.all(eig.harmonics % 2 == 1)
    assert eig.coeff_for_harmonic(2) == 0.0  # wrong-parity harmonic is absent


def test_class_validation():
    with pytest.raises(RangeError):
        MathieuClass.from_order("odd", 0)
    with pytest.raises(RangeError):
        MathieuClass.from_order("even", -1)
    with pytest.raises(RangeError):
        MathieuClass.from_order("both", 2)
    with pytest.raises(RangeError):
        mathieu_eigen("even", 0, -0.5)
    with pytest.raises(RangeError):
        mathieu_eigen("even", 0, 2e6)


def test_cache_rounding_and_concurrency():
    base = mathieu_eigen("even", 2, 1.0)
    assert mathieu_eigen("even", 2, 1.0) is base
    near = mathieu_eigen("even", 2, 1.0 + 4e-13)  # the key is the exact float q
    assert near is not base and near.q == 1.0 + 4e-13
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: mathieu_eigen("odd", 3, 2.5), range(64)))
    assert all(r is results[0] for r in results)
    assert not results[0].coeffs.flags.writeable


def test_truncation_grows_with_q():
    small = mathieu_eigen("even", 0, 1.0).truncation
    big = mathieu_eigen("even", 0, 900.0).truncation
    assert big > small
