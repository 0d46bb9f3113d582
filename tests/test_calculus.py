from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from strainkit.calculus import (curl, curl_col, curl_curl, curl_curl_direct,
                                curl_row, div, div_sym, grad,
                                homotopy_antiderivative, sym_grad)
from strainkit.errors import CompatibilityError
from strainkit.fields import (AXES, Mat3Field, SymField, VecField,
                              random_field)
from strainkit.poly import ONE, X1, X2, X3, Poly3

ORIGIN = (Fraction(0), Fraction(0), Fraction(0))


def test_grad_explicit():
    f = X1 * X2 * X2 + 3 * X3
    g = grad(f)
    assert g.comp(1) == X2 * X2
    assert g.comp(2) == 2 * X1 * X2
    assert g.comp(3) == Poly3.constant(3)


def test_curl_explicit():
    # curl of (0, 0, x1*x2) is (x1, -x2, 0)
    x = VecField.of(0, 0, X1 * X2)
    c = curl(x)
    assert c.comp(1) == X1
    assert c.comp(2) == -X2
    assert c.comp(3).is_zero()


def test_div_explicit():
    x = VecField.of(X1 * X1, X2 * X3, X3)
    assert div(x) == 2 * X1 + X3 + 1


def test_curl_of_grad_zero():
    for seed in range(25):
        f = random_field("scalar", 5, seed)
        assert curl(grad(f)).is_zero()


def test_div_of_curl_zero():
    for seed in range(25):
        x = random_field("vec", 5, seed + 100)
        assert div(curl(x)).is_zero()


def test_sym_grad_definition():
    for seed in range(10):
        x = random_field("vec", 4, seed + 200)
        s = sym_grad(x)
        for i in AXES:
            for j in AXES:
                want = (x.comp(j).partial(i) + x.comp(i).partial(j)) / 2
                assert s.entry(i, j) == want


def test_curl_row_and_col_are_transposes():
    for seed in range(10):
        m = random_field("mat", 4, seed + 300)
        assert curl_row(m).transpose() == curl_col(m.transpose())
        assert curl_col(m).transpose() == curl_row(m.transpose())


def test_compat_annihilates_symmetric_gradients():
    for seed in range(25):
        x = random_field("vec", 5, seed + 400)
        assert curl_curl(sym_grad(x)).is_zero()


def test_compat_two_routes_agree():
    for seed in range(25):
        s = random_field("sym", 5, seed + 500)
        assert curl_curl(s) == curl_curl_direct(s)


def test_compat_is_symmetric():
    for seed in range(10):
        s = random_field("sym", 4, seed + 600)
        t = curl_curl(s)
        for i in AXES:
            for j in AXES:
                assert t.entry(i, j) == t.entry(j, i)


def test_compat_frozen_example():
    # diag(x2^2, 0, 0) has exactly one nonzero compatibility entry: (3,3) = 2
    s = SymField.unit(1, 1, X2 * X2)
    t = curl_curl(s)
    assert t.entry(3, 3) == Poly3.constant(2)
    for i in AXES:
        for j in AXES:
            if (i, j) != (3, 3):
                assert t.entry(i, j).is_zero()


def test_div_sym_after_compat_zero():
    for seed in range(25):
        s = random_field("sym", 5, seed + 700)
        assert div_sym(curl_curl(s)).is_zero()


def test_div_sym_definition():
    for seed in range(10):
        s = random_field("sym", 4, seed + 800)
        d = div_sym(s)
        for j in AXES:
            want = sum((s.entry(i, j).partial(i) for i in AXES), Poly3())
            assert d.comp(j) == want


def test_homotopy_inverts_grad():
    for seed in range(20):
        f = random_field("scalar", 5, seed + 900)
        g = homotopy_antiderivative(grad(f))
        assert g == f - Poly3.constant(f.evaluate(ORIGIN))


def test_homotopy_explicit_value():
    # x = grad of (x1^2 x2): (2 x1 x2, x1^2, 0)
    x = VecField.of(2 * X1 * X2, X1 * X1, Poly3())
    assert homotopy_antiderivative(x) == X1 * X1 * X2


def test_homotopy_rejects_incompatible():
    x = VecField.of(-X2, X1, Poly3())  # curl = (0, 0, 2)
    with pytest.raises(CompatibilityError) as info:
        homotopy_antiderivative(x)
    residual = info.value.residual
    assert residual == curl(x)
    assert residual.comp(3) == Poly3.constant(2)


def test_grad_returns_fresh_objects():
    f = X1 * X2
    g1 = grad(f)
    g2 = grad(f)
    assert g1 == g2


# -- the one-pass curl against the former six-partial body ---------------------

def _former_curl(x):
    """The former curl: six partial polynomials, subtracted three times."""
    return VecField.of(
        x.comp(3).partial(2) - x.comp(2).partial(3),
        x.comp(1).partial(3) - x.comp(3).partial(1),
        x.comp(2).partial(1) - x.comp(1).partial(2),
    )


def _coefficient_types(field):
    """Each term's coefficient type, per component: an int coefficient reads
    differently from the equal Fraction."""
    return [{exp: type(c) for exp, c in p.terms.items()} for p in field.components]


def _assert_canonical(field):
    for p in field.components:
        for coef in p.terms.values():
            assert coef != 0
            assert type(coef) is int or (type(coef) is Fraction and coef.denominator > 1)


coefs = st.one_of(st.integers(-6, 6),
                  st.fractions(min_value=-6, max_value=6, max_denominator=4))
exponents = st.tuples(*[st.integers(0, 3)] * 3)


def _flat_along(axis):
    """Exponent triples with a zero entry at `axis`: a derivative along it drops the term."""
    return exponents.map(lambda e: e[:axis] + (0,) + e[axis + 1:])


components = st.one_of(
    st.dictionaries(exponents, coefs, max_size=8),
    st.integers(0, 2).flatmap(
        lambda axis: st.dictionaries(_flat_along(axis), coefs, max_size=6)))
vec_fields = st.lists(components, min_size=3, max_size=3).map(
    lambda terms: VecField(tuple(Poly3(t) for t in terms)))
int_vec_fields = st.lists(st.dictionaries(exponents, st.integers(-6, 6), max_size=8),
                          min_size=3, max_size=3).map(
    lambda terms: VecField(tuple(Poly3(t) for t in terms)))
PROPS = settings(max_examples=200, deadline=None, database=None)


@PROPS
@given(x=vec_fields)
# d_2 (x2^2 / 2) = x2 turns integral; the two terms of component 3 cancel.
@example(x=VecField.of(Poly3(), Poly3(), Fraction(1, 2) * X2 * X2))
@example(x=VecField.of(X2 * X3, X1 * X3, Poly3()))
def test_curl_matches_the_six_partial_body(x):
    got = curl(x)
    want = _former_curl(x)
    assert got == want
    _assert_canonical(got)
    assert _coefficient_types(got) == _coefficient_types(want)


@PROPS
@given(x=int_vec_fields)
def test_curl_keeps_int_coefficients_ints(x):
    got = curl(x)
    assert all(type(c) is int for p in got.components for c in p.terms.values())
    _assert_canonical(got)
    assert got == _former_curl(x)


@PROPS
@given(f=st.dictionaries(exponents, coefs, max_size=10))
def test_curl_of_grad_is_zero_with_fractions(f):
    result = curl(grad(Poly3(f)))
    assert result.is_zero()
    assert all(not p.terms for p in result.components)
