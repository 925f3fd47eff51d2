"""Tests for exact polynomial interpolation and q-combinatorics.

Hand values: [2,1]_q = q+1; [4,2]_2 = 35; [3,1]_3 = 13;
(q^2-1)/(q-1) = q+1 whose value at 1 is chi(P^1) = 2;
(q^3-1)/(q-1) = q^2+q+1 at 1 gives chi(P^2) = 3.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hallchar.errors import NonIntegerCoefficients, VerificationMismatch
from hallchar.qpoly import (
    QPolynomial,
    counting_polynomial,
    counting_table,
    gaussian_binomial,
    lagrange_integer,
)


def divide_by_q_minus_1(poly):
    """Exact quotient poly / (q - 1); ValueError when poly(1) != 0.

    The reference for projectivizing after the fit: the verifiers divide
    each count by p - 1 at its prime instead (`verify._exact_quotient`),
    and tests/test_verify.py checks the two orders agree."""
    if poly.at_one() != 0:
        raise ValueError(f"{poly} is not divisible by q - 1")
    # synthetic division by (q - 1), highest coefficient first; the final
    # accumulated value is the remainder poly(1) = 0
    out, carry = [], 0
    for c in reversed(poly.coeffs):
        carry += c
        out.append(carry)
    return QPolynomial(list(reversed(out[:-1])))


def test_qpolynomial_basics():
    f = QPolynomial([1, 2, 3])  # 3q^2 + 2q + 1
    assert f(2) == 12 + 4 + 1
    assert f.at_one() == 6
    assert f.degree == 2
    assert str(f) == "3*q^2 + 2*q + 1"
    assert QPolynomial([0, 0]).is_zero()
    assert QPolynomial([]).degree == -1
    assert QPolynomial([]).at_one() == 0


def test_qpolynomial_arithmetic():
    f = QPolynomial([1, 1])  # q + 1
    g = QPolynomial([-1, 1])  # q - 1
    assert (f * g).coeffs == (-1, 0, 1)  # q^2 - 1
    assert (f + g).coeffs == (0, 2)
    assert (f - g).coeffs == (2,)
    assert (2 * f).coeffs == (2, 2)
    assert (f - 1).coeffs == (0, 1)
    assert (1 + g).coeffs == (0, 1)
    assert f * QPolynomial([]) == QPolynomial([])


def test_lagrange_exact():
    # f(q) = q^2 + 1 through three points
    f = lagrange_integer([2, 3, 5], [5, 10, 26])
    assert f.coeffs == (1, 0, 1)
    # constant
    g = lagrange_integer([2], [7])
    assert g.coeffs == (7,)
    with pytest.raises(NonIntegerCoefficients):
        # (q^2+q)/2 takes integer values at all primes but is not integral
        lagrange_integer([2, 3, 5], [3, 6, 15])
    with pytest.raises(ValueError):
        lagrange_integer([2, 3, 2], [1, 2, 1])


def fraction_lagrange(xs, ys):
    """Reference: sum of ys[i] times the Lagrange basis, in Fractions."""
    coeffs = [Fraction(0)] * len(xs)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            shifted = [Fraction(0)] + basis  # basis * q
            for k, c in enumerate(basis):
                shifted[k] -= xj * c
            basis = shifted
            denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += ys[i] * c / denom
    return coeffs


nodes = st.lists(st.integers(-30, 60), min_size=1, max_size=7, unique=True)


@given(nodes, st.lists(st.integers(-20, 20), min_size=7, max_size=7))
def test_lagrange_integral_data_matches_fraction_reference(xs, coeffs):
    f = QPolynomial(coeffs[: len(xs)])
    ys = [f(x) for x in xs]
    ref = fraction_lagrange(xs, ys)
    assert all(c.denominator == 1 for c in ref)
    assert lagrange_integer(xs, ys) == QPolynomial(ref) == f


@given(nodes, st.lists(st.integers(-1000, 1000), min_size=7, max_size=7))
def test_lagrange_arbitrary_data_matches_fraction_reference(xs, values):
    ys = values[: len(xs)]
    ref = fraction_lagrange(xs, ys)
    if all(c.denominator == 1 for c in ref):
        assert lagrange_integer(xs, ys) == QPolynomial(ref)
    else:
        with pytest.raises(NonIntegerCoefficients):
            lagrange_integer(xs, ys)


def test_counting_polynomial_fits_and_verifies():
    f = counting_polynomial(lambda p: p * p + p + 1, degree_bound=2)
    assert f.coeffs == (1, 1, 1)
    assert f.at_one() == 3  # chi(P^2)
    with pytest.raises(VerificationMismatch):
        counting_polynomial(lambda p: p if p <= 3 else p + 1, degree_bound=1)


def test_counting_table_keys_in_first_seen_order():
    # keys in the order the per-prime tables first list them, prime by
    # prime; a key absent at a prime counts 0 there
    tables = {2: {"b": 1, "a": 2}, 3: {"c": 0, "a": 2, "b": 1}, 5: {"a": 2, "b": 1}}
    table = counting_table(lambda p: tables[p], 1, verify=1)
    assert list(table) == ["b", "a", "c"]
    assert [f.coeffs for f in table.values()] == [(1,), (2,), ()]


def test_counting_polynomial_min_prime():
    seen = []

    def count(p):
        seen.append(p)
        assert p >= 5
        return p + 1

    f = counting_polynomial(count, degree_bound=1, min_prime=5)
    assert f.coeffs == (1, 1)
    assert seen == [5, 7, 11, 13]


def test_divide_by_q_minus_1():
    assert divide_by_q_minus_1(QPolynomial([-1, 0, 1])).coeffs == (1, 1)
    assert divide_by_q_minus_1(QPolynomial([-1, 0, 0, 1])).coeffs == (1, 1, 1)
    assert divide_by_q_minus_1(QPolynomial([])).is_zero()
    with pytest.raises(ValueError, match="not divisible by q - 1"):
        divide_by_q_minus_1(QPolynomial([0, 0, 1]))  # q^2


def test_projectivize_euler_characteristics():
    # |P(S)| = (|S| - [0 in S]) / (q - 1); affine cone of P^1 is A^2:
    # chi(P^1) = 2
    line = divide_by_q_minus_1(QPolynomial([0, 0, 1]) - 1)
    assert line.coeffs == (1, 1)
    assert line.at_one() == 2
    # chi(P^2) = 3
    plane = divide_by_q_minus_1(QPolynomial([0, 0, 0, 1]) - 1)
    assert plane.at_one() == 3
    # a set without 0: two scaling orbits
    assert divide_by_q_minus_1(QPolynomial([-2, 2])).at_one() == 2


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 3, 5) == 1
    assert gaussian_binomial(3, 4, 5) == 0
    assert gaussian_binomial(3, -1, 5) == 0
    # symmetry
    for n in range(5):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)
