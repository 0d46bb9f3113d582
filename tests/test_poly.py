import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from strainkit import fieldio
from strainkit.complexes import (GradedSpace, SkewMat4, Slot, interior_product,
                                 lambda2_split, wedge_with_vector)
from strainkit.connection import rigid_motion
from strainkit.fields import random_field
from strainkit.poly import (ONE, X1, X2, X3, ZERO, Poly3, grlex_key,
                            monomials_up_to, second_jets)
from strainkit.riemannian import JetPoly, PolyMetric, pointwise_curvature
from strainkit.stencils import make_stencil


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


_OMEGA = SkewMat4.from_wedge((1, 0, 0, 0), (0, 1, 0, 0))
_EXACT_ENTRIES = {
    "pointwise_curvature":
        lambda c: pointwise_curvature(PolyMetric.euclidean(), (c, 0, 0)),
    "rigid_motion": lambda c: rigid_motion((0, 0, 0), (0, c, 0)),
    "SkewMat4": lambda c: SkewMat4(((0, c, 0, 0), (-c, 0, 0, 0),
                                    (0, 0, 0, 0), (0, 0, 0, 0))),
    "SkewMat4.from_wedge": lambda c: SkewMat4.from_wedge((1, 0, 0, 0), (0, c, 0, 0)),
    "interior_product": lambda c: interior_product((c, 0, 0, 0), _OMEGA),
    "wedge_with_vector": lambda c: wedge_with_vector((0, 0, c, 0), _OMEGA),
    "lambda2_split": lambda c: lambda2_split((1, c, 0, 0), _OMEGA),
    "Poly3.__mul__": lambda c: X1 * c,
    "make_stencil": lambda c: make_stencil([(0, 0, 0, 0, (1, 0, 0), c)]),
}


@pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", sorted(_EXACT_ENTRIES))
def test_public_entries_take_exact_rationals_only(entry, value):
    """Every public entry reads a caller's rationals through poly._canonical:
    0.1 is not silently read as its binary value, nor True as 1."""
    with pytest.raises(TypeError, match="exact rational"):
        _EXACT_ENTRIES[entry](value)
    _EXACT_ENTRIES[entry](Fraction(1, 10))
    _EXACT_ENTRIES[entry](1)


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


@pytest.mark.parametrize("point", [(1, 2), (1, 2, 3, 4), ()])
def test_point_needs_three_coordinates(point):
    for p in (ZERO, X1 * X2):
        with pytest.raises(ValueError, match="exactly three coordinates"):
            p.evaluate(point)
        with pytest.raises(ValueError, match="exactly three coordinates"):
            second_jets([p], point)


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


def test_monomial_table_is_not_shared_with_callers():
    # monomials_up_to copies a table built once per bound; what a caller
    # does to its list reaches no later call and no space or draw.
    field, space = random_field("sym", 3, 5), GradedSpace([Slot("u", "vec", 3)])
    coords = space.to_coords((random_field("vec", 3, 6),))
    table = monomials_up_to(3)
    want = list(table)
    table.reverse()
    table.append((9, 9, 9))
    del table[:5]
    assert monomials_up_to(3) == want and len(want) == 20
    assert monomials_up_to(3) is not monomials_up_to(3)
    assert random_field("sym", 3, 5) == field
    again = GradedSpace([Slot("u", "vec", 3)])
    assert again.dim == space.dim == 60
    assert again.to_coords((random_field("vec", 3, 6),)) == coords


@pytest.mark.parametrize("bound", range(-1, 13))
def test_slot_dim_is_the_monomial_count(bound):
    count = len(monomials_up_to(bound))
    for kind, ncomp in (("scalar", 1), ("vec", 3), ("sym", 6), ("mat", 9)):
        assert Slot("s", kind, bound).dim == ncomp * count
    assert GradedSpace([Slot("s", "sym", bound)]).dim == 6 * count


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


# -- properties against a plain dict[exponent, Fraction] reference -------------

rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
term_maps = st.dictionaries(exponents, rationals, max_size=8)
# Zero, negative and non-unit-denominator coordinates, as ints and Fractions.
points = st.tuples(*[st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)] * 3)
PROPS = settings(max_examples=150, deadline=None, database=None)


def ref_of(terms):
    return {tuple(e): Fraction(c) for e, c in terms.items() if c}


def as_ref(p):
    assert_canonical(p)
    return {e: Fraction(c) for e, c in p.terms.items()}


def assert_canonical(p):
    for coef in p.terms.values():
        assert coef != 0
        assert type(coef) is int or (type(coef) is Fraction and coef.denominator > 1)


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_scale(a, s):
    return {e: c * s for e, c in a.items() if c * s}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_partial(a, axis):
    out = {}
    for e, c in a.items():
        if e[axis - 1]:
            new = list(e)
            new[axis - 1] -= 1
            out[tuple(new)] = c * e[axis - 1]
    return out


def ref_evaluate(a, point):
    p = [Fraction(v) for v in point]
    return sum((c * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2] for e, c in a.items()),
               Fraction(0))


@PROPS
@given(ta=term_maps, tb=term_maps, s=rationals)
@example(ta={}, tb={}, s=0)
@example(ta={(0, 0, 0): Fraction(3, 2)}, tb={(0, 0, 0): Fraction(1, 2)}, s=Fraction(2, 3))
def test_arithmetic_matches_reference(ta, tb, s):
    a, b = Poly3(ta), Poly3(tb)
    ra, rb = ref_of(ta), ref_of(tb)
    assert as_ref(a) == ra
    assert as_ref(a + b) == ref_add(ra, rb)
    assert as_ref(a - b) == ref_add(ra, ref_scale(rb, -1))
    assert as_ref(-a) == ref_scale(ra, -1)
    assert as_ref(a * b) == ref_mul(ra, rb)
    assert as_ref(a * s) == as_ref(s * a) == ref_scale(ra, Fraction(s))
    assert as_ref(a + s) == ref_add(ra, ref_of({(0, 0, 0): s}))
    if s:
        assert as_ref(a / s) == ref_scale(ra, 1 / Fraction(s))
    for axis in (1, 2, 3):
        assert as_ref(a.partial(axis)) == ref_partial(ra, axis)


@PROPS
@given(ta=term_maps, point=points)
@example(ta={}, point=(0, 0, 0))
@example(ta={(0, 0, 0): 5}, point=(Fraction(1, 3), -2, 0))
@example(ta={(3, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(-1, 3)},
         point=(Fraction(-2, 3), 0, Fraction(5, 4)))
def test_evaluate_and_coefficient_match_reference(ta, point):
    p = Poly3(ta)
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == ref_evaluate(ref_of(ta), point)
    for exp in list(ta) + [(3, 3, 3)]:
        coef = p.coefficient(exp)
        assert type(coef) is Fraction
        assert coef == Fraction(ta.get(exp, 0))


# Partials of one jet row, in its column order.
JET_AXES = ((), (1,), (2,), (3,), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


@PROPS
@given(maps=st.lists(term_maps, min_size=1, max_size=4), point=points)
@example(maps=[{}], point=(0, 0, 0))
@example(maps=[{(0, 0, 0): Fraction(-7, 3)}, {}, {(0, 0, 0): 2}], point=(Fraction(1, 3), -2, 0))
@example(maps=[{(5000, 0, 0): Fraction(3, 2), (1, 0, 0): -1}, {(1, 2, 1): Fraction(1, 4)}],
         point=(Fraction(-3, 2), Fraction(1, 5), 0))
@example(maps=[{(5000, 0, 0): 1}, {(2, 1, 3): Fraction(-5, 6)}],
         point=(Fraction(-1, 2), Fraction(-4, 3), Fraction(2, 5)))
def test_second_jets_match_partial_evaluate(maps, point):
    polys = [Poly3({e: Fraction(c) for e, c in ta.items()}) for ta in maps]
    denom, rows = second_jets(polys, point)
    assert type(denom) is int and denom > 0
    assert len(rows) == len(polys)
    for p, row in zip(polys, rows):
        assert len(row) == len(JET_AXES)
        for axes, num in zip(JET_AXES, row):
            assert type(num) is int
            q = p
            for axis in axes:
                q = q.partial(axis)
            assert Fraction(num, denom) == q.evaluate(point)


@PROPS
@given(ta=term_maps, tb=term_maps, tc=term_maps)
def test_ring_axioms_and_leibniz(ta, tb, tc):
    a, b, c = Poly3(ta), Poly3(tb), Poly3(tc)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert (a - a).is_zero()
    for axis in (1, 2, 3):
        assert (a * b).partial(axis) == a.partial(axis) * b + a * b.partial(axis)


@PROPS
@given(ta=term_maps)
def test_int_and_fraction_coefficients_agree(ta):
    as_fractions = Poly3({e: Fraction(c) for e, c in ta.items()})
    p = Poly3(ta)
    assert p == as_fractions
    assert hash(p) == hash(as_fractions)
    assert str(p) == str(as_fractions)
    assert p.terms == as_fractions.terms
    assert_canonical(as_fractions)


@PROPS
@given(ta=term_maps)
def test_fieldio_round_trip_is_byte_stable(ta):
    p = Poly3(ta)
    text = fieldio.dumps(p)
    back = fieldio.loads(text, expect_kind="scalar")
    assert back == p
    assert_canonical(back)
    assert fieldio.dumps(back) == text


def _results(x, y, s):
    """x and y combined by every Poly3 or JetPoly operation, with 0, 1 and s."""
    out = [x + y, y + x, x - y, y - x, x * y, y * x, -x,
           x * 0, x * 1, x * s, s * x, 0 * x, 1 * x, x.partial(1), x.partial(3)]
    if isinstance(x, Poly3):
        out += [x + 0, 0 + x, x + s, x - s, s - x]
    return out


def _snapshot(values):
    return [[list(p.terms.items()) for p in
             ((v,) if isinstance(v, Poly3) else (v.p0, v.p1))] for v in values]


@settings(max_examples=60, deadline=None, database=None)
@given(ta=term_maps, tb=term_maps, s=rationals)
@example(ta={(1, 0, 0): 1}, tb={}, s=1)
@example(ta={(0, 2, 1): Fraction(3, 2)}, tb={(0, 0, 0): 2}, s=0)
def test_operations_leave_their_operands_unchanged(ta, tb, s):
    """Operations may return an operand (p + 0, p * 1, a constant factor), so
    none may change the .terms of an operand, nor of a result it passes on."""
    a, b = Poly3(ta), Poly3(tb)
    polys = [a, b, ZERO, ONE, Poly3.constant(s)]
    jets = [JetPoly(a, b), JetPoly(b, a), JetPoly(ZERO, a), JetPoly.constant(1),
            JetPoly.constant(s)]
    for operands in (polys, jets):
        before = _snapshot(operands)
        results = [r for x in operands for y in operands for r in _results(x, y, s)]
        kept = _snapshot(results)
        for x in results[::20]:
            for y in operands:
                _results(x, y, s)
        assert _snapshot(operands) == before
        assert _snapshot(results) == kept


def test_integral_results_are_ints():
    half = Poly3.constant(Fraction(1, 2))
    assert (half + half).terms == {(0, 0, 0): 1}
    assert type((half * 2).coefficient((0, 0, 0))) is Fraction
    assert type((half * 2).terms[(0, 0, 0)]) is int
    assert type((Fraction(1, 2) * X1 * X1).partial(1).terms[(1, 0, 0)]) is int
    assert type((X1 / 3 * 3).terms[(1, 0, 0)]) is int
    assert type(Poly3({(0, 0, 0): Fraction(4, 2)}).terms[(0, 0, 0)]) is int


def test_evaluate_huge_exponent_is_not_sized_by_degree():
    # Powers are taken per term: a list indexed by the degree would not fit.
    p = Poly3.monomial((10 ** 12, 0, 0)) - Poly3.monomial((0, 0, 10 ** 12 + 1), 3)
    assert p.evaluate((1, 0, -1)) == Fraction(4)
    assert p.evaluate((-1, Fraction(1, 2), 1)) == Fraction(-2)
    n = 10 ** 12
    denom, [row] = second_jets([p], (1, 0, -1))
    assert denom == 1
    assert row == (4, n, 0, -3 * (n + 1), n * (n - 1), 0, 0, 0, 0, 3 * (n + 1) * n)
