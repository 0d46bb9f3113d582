import random
from fractions import Fraction

import pytest

from strainkit.poly import (ONE, X1, X2, X3, ZERO, Poly3, grlex_key,
                            monomials_up_to)


def random_poly(rng, degree, nterms=6):
    p = Poly3()
    for _ in range(nterms):
        exp = tuple(rng.randint(0, degree) for _ in range(3))
        if sum(exp) > degree:
            continue
        p = p + Poly3.monomial(exp, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return p


def test_zero_and_constants():
    assert ZERO.is_zero()
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert Poly3.constant(0) == ZERO
    assert Poly3.constant(Fraction(3, 2)).coefficient((0, 0, 0)) == Fraction(3, 2)
    assert not Poly3.monomial((1, 0, 2)).is_zero()


def test_variable_indexing():
    assert X1 == Poly3.variable(1)
    assert X2 == Poly3.variable(2)
    assert X3 == Poly3.variable(3)
    with pytest.raises(ValueError):
        Poly3.variable(0)
    with pytest.raises(ValueError):
        Poly3.variable(4)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(40):
        a = random_poly(rng, 4)
        b = random_poly(rng, 4)
        c = random_poly(rng, 3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + ZERO == a
        assert a * ONE == a
        assert (a - a).is_zero()
        assert a * ZERO == ZERO


def test_degree_arithmetic():
    rng = random.Random(7)
    for _ in range(30):
        a = random_poly(rng, 3)
        b = random_poly(rng, 4)
        if a.is_zero() or b.is_zero():
            assert (a * b).degree == -1
        else:
            # exact arithmetic: leading coefficients cannot cancel in a product
            assert (a * b).degree == a.degree + b.degree
        assert (a + b).degree <= max(a.degree, b.degree)


def test_scalar_operations():
    p = X1 * X1 - 2 * X2
    assert (p / 2) * 2 == p
    assert -p + p == ZERO
    assert Fraction(1, 3) * p == p / 3
    assert 1 + p - 1 == p


def test_boolean_coefficients_rejected():
    for flag in (True, False):
        with pytest.raises(TypeError):
            Poly3.constant(flag)
        with pytest.raises(TypeError):
            Poly3({(1, 0, 0): flag})
        with pytest.raises(TypeError):
            X1 * flag
        assert ONE != flag


def test_malformed_exponents_rejected():
    for exp in ((1.7, 0, 0), (True, 0, 0), (0, 0, False), (Fraction(1), 0, 0),
                ("1", 0, 0)):
        with pytest.raises(TypeError):
            Poly3({exp: 1})
    for exp in ((1, 0, 0, 5), (1, 0), ()):
        with pytest.raises(ValueError):
            Poly3({exp: 1})
    with pytest.raises(ValueError):
        Poly3({(0, -1, 0): 1})
    assert Poly3({(1, 0, 0): 1}) == X1


def test_partial_derivatives():
    p = X1 * X1 * X2 + 3 * X3
    assert p.partial(1) == 2 * X1 * X2
    assert p.partial(2) == X1 * X1
    assert p.partial(3) == Poly3.constant(3)
    with pytest.raises(ValueError):
        p.partial(0)
    rng = random.Random(13)
    for _ in range(20):
        a = random_poly(rng, 4)
        b = random_poly(rng, 4)
        for axis in (1, 2, 3):
            assert (a * b).partial(axis) == a.partial(axis) * b + b.partial(axis) * a


def test_mixed_partials_commute():
    rng = random.Random(17)
    for _ in range(20):
        p = random_poly(rng, 5)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_evaluate_exact():
    p = X1 * X2 * X2 - Fraction(1, 2) * X3
    value = p.evaluate((Fraction(2), Fraction(1, 3), Fraction(-4)))
    assert value == Fraction(2) * Fraction(1, 9) + Fraction(2)
    rng = random.Random(23)
    for _ in range(20):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        pt = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(3))
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_grlex_key_ordering():
    # total degree first, then lexicographic with x1 heaviest
    assert grlex_key((0, 0, 0)) < grlex_key((0, 0, 1))
    assert grlex_key((0, 1, 0)) < grlex_key((1, 0, 0))
    assert grlex_key((1, 0, 0)) < grlex_key((0, 0, 2))
    ordered = monomials_up_to(2)
    assert ordered[0] == (0, 0, 0)
    assert ordered == sorted(ordered, key=grlex_key)
    assert len(ordered) == 10
    assert len(monomials_up_to(5)) == 56
    assert monomials_up_to(-1) == []
    assert monomials_up_to(0) == [(0, 0, 0)]


def test_str_descending_order():
    p = 2 * X1 * X1 * X3 - Fraction(1, 2) + X2
    text = str(p)
    assert text == "2*x1^2*x3 + x2 - 1/2"
    assert str(ZERO) == "0"
    assert str(-X1) == "-x1"


def test_hash_consistency():
    a = X1 * X2 + 1
    b = 1 + X2 * X1
    assert a == b
    assert hash(a) == hash(b)
    assert a != X1 * X2


def test_coefficient_lookup():
    p = 5 * X1 * X3 - Fraction(2, 7) * X2 * X2
    assert p.coefficient((1, 0, 1)) == 5
    assert p.coefficient((0, 2, 0)) == Fraction(-2, 7)
    assert p.coefficient((4, 4, 4)) == 0
