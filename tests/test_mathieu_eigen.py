import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from wavemom.errors import RangeError
from wavemom.specfun.mathieu import MathieuClass, _eigen_cached, mathieu_eigen

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
            assert eig.coeffs[-1] == pytest.approx(expected, abs=1e-12)
            assert len(eig.coeffs) == (n - eig.mathieu_class.first_harmonic) // 2 + 1


@pytest.mark.parametrize("q", (1e-65, 1e-100, 1e-300, 5e-324))
@pytest.mark.parametrize("parity,n", [("even", 0), ("even", 1), ("even", 2), ("even", 7),
                                      ("odd", 1), ("odd", 2)])
def test_tiny_q_is_inside_the_domain(parity, n, q):
    # the backward recurrence of the refined tail would overflow here (a RuntimeWarning
    # and NaN coefficients); the eigensolver's own tail has already underflowed
    eig = mathieu_eigen(parity, n, q)
    assert np.all(np.isfinite(eig.coeffs))
    assert eig.char_value == pytest.approx(n * n, abs=1e-15)
    expected = 1.0 / math.sqrt(2.0) if (parity, n) == ("even", 0) else 1.0
    assert eig.coeffs[(n - eig.mathieu_class.first_harmonic) // 2] == pytest.approx(
        expected, rel=1e-15, abs=0.0)


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


# characteristic values of the truncated recurrence matrices the solver builds
# (their size is the truncation), from a 40-digit mpmath eigsy of the same
# double entries
MPMATH_CHAR_VALUES = (
    ("even", 0, 1.0, 32, -0.4551386041074136045977),
    ("even", 2, 1.0, 32, 4.371300982735085717417),
    ("odd", 1, 1.0, 32, -0.1102488169920951699065),
    ("even", 2, 4.0, 33, 6.829074834566389858938),
    ("odd", 1, 0.37, 32, 0.6136648892667276587388),
    ("even", 2, 2.718, 33, 5.803488128194736450464),
)


@pytest.mark.parametrize("parity,n,q,size,ref", MPMATH_CHAR_VALUES)
def test_char_value_to_working_precision(parity, n, q, size, ref):
    eig = mathieu_eigen(parity, n, q)
    assert eig.truncation == size
    assert abs(eig.char_value - ref) <= 4e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize("parity", ("even", "odd"))
@pytest.mark.parametrize("q", (0.0, 1.0, 1e2, 1e4, 1e6))
def test_char_value_against_tridiagonal_oracle(parity, q):
    for n in (1, 2, 10, 50, 200, 500):
        eig = mathieu_eigen(parity, n, q)
        ref = mathieu_char_value(parity, n, q, eig.truncation)
        assert abs(eig.char_value - ref) <= 1e-12 * max(1.0, abs(ref)), (parity, n, q)


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


@pytest.mark.parametrize("first", [0.0, -0.0], ids=["plus-first", "minus-first"])
def test_eigenpair_q_keeps_the_sign_asked_for(first):
    # 0.0 == -0.0 with one hash, so the cache key carries the sign as well
    _eigen_cached.cache_clear()
    for q in (first, -first):
        assert math.copysign(1.0, mathieu_eigen("odd", 1, q).q) == math.copysign(1.0, q)


def test_concurrent_misses_share_one_solve():
    # 8 threads released together onto each of 200 keys no other test uses
    keys = [("even" if k % 2 else "odd", 1 + k % 9, 3.0 + 0.0173 * k + 1e-9) for k in range(200)]
    barrier = threading.Barrier(8, timeout=60)

    def worker(_):
        got = []
        for key in keys:
            barrier.wait()
            got.append(mathieu_eigen(*key))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = list(pool.map(worker, range(8)))
    finally:
        sys.setswitchinterval(interval)
    split = [key for key, per_key in zip(keys, zip(*runs))
             if any(r is not per_key[0] for r in per_key)]
    assert split == []


def test_truncation_grows_with_q():
    small = mathieu_eigen("even", 0, 1.0).truncation
    big = mathieu_eigen("even", 0, 900.0).truncation
    assert big > small
