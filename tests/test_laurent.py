"""Tests for the Laurent polynomial arithmetic layer.

All expected values are immediate hand computations: e.g.
(x1 + x2^-1)^2 = x1^2 + 2*x1*x2^-1 + x2^-2.
"""

import pytest

from hallchar.laurent import LaurentPoly


def monomial_of_vector(v):
    """The monomial x^v for an integer vector v."""
    return LaurentPoly.monomial(tuple(int(e) for e in v))


def test_construction_prunes_zeros():
    f = LaurentPoly(2, {(1, 0): 3, (0, 1): 0})
    assert f.terms == {(1, 0): 3}
    assert LaurentPoly.zero(2).is_zero()
    assert not LaurentPoly.constant(2, 0)


def test_add_mul():
    x1 = LaurentPoly.variable(2, 0)
    x2inv = LaurentPoly.monomial((0, -1))
    f = x1 + x2inv
    assert (f * f).terms == {(2, 0): 1, (1, -1): 2, (0, -2): 1}
    assert f - f == 0
    assert 2 * x1 - x1 == x1
    assert (x1 + 1) * (x1 - 1) == x1 * x1 - 1


def test_pow():
    x1 = LaurentPoly.variable(2, 0)
    assert x1 ** 3 == LaurentPoly.monomial((3, 0))
    assert x1 ** 0 == 1
    assert x1 ** -2 == LaurentPoly.monomial((-2, 0))
    with pytest.raises(ValueError):
        (x1 + 1) ** -1


def test_eval_at_ones():
    f = LaurentPoly(2, {(1, -1): 2, (0, 0): -1, (-3, 2): 1})
    assert f.eval_at_ones() == 2


def test_str_canonical():
    f = LaurentPoly(
        2, {(-1, -1): 1, (1, -1): 1, (-1, 1): 1}
    )
    assert str(f) == "x1^-1*x2^-1 + x1^-1*x2 + x1*x2^-1"
    assert str(LaurentPoly.zero(2)) == "0"
    assert str(LaurentPoly.constant(1, -3)) == "-3"
    g = LaurentPoly(1, {(0,): 1, (1,): -2})
    assert str(g) == "1 - 2*x1"


def test_monomial_of_vector():
    import numpy as np

    v = np.array([2, -1], dtype=np.int64)
    assert monomial_of_vector(v) == LaurentPoly.monomial((2, -1))


def test_hash_eq():
    f = LaurentPoly(2, {(1, 0): 1})
    g = LaurentPoly.variable(2, 0)
    assert hash(f) == hash(g) and f == g
    assert LaurentPoly.constant(2, 5) == 5
