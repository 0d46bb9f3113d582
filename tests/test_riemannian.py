from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from strainkit import riemannian
from strainkit.calculus import curl_curl, sym_grad
from strainkit.errors import SingularMetricError
from strainkit.fields import AXES, Mat3Field, SymField, random_field
from strainkit.poly import ONE, X1, X2, X3, Poly3, monomials_up_to
from strainkit.riemannian import (ChristoffelJet, CurvatureJet, JetPoly,
                                  MetricJet, PolyMetric, bianchi_check,
                                  christoffel_jet, jet_inverse,
                                  linearized_einstein, pointwise_curvature,
                                  ricci_jet)

SX = sympy.symbols("x1 x2 x3")


def to_sympy(p: Poly3):
    expr = sympy.Integer(0)
    for exp, coef in p.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for s, a in zip(SX, exp):
            term *= s ** a
        expr += term
    return sympy.expand(expr)


def sympy_ricci(g: sympy.Matrix):
    """Independent nonlinear Ricci in the sign convention used here.

    R_ij = d_i Gamma_jk^k - d_k Gamma_ij^k + Gamma_ik^m Gamma_jm^k
           - Gamma_ij^m Gamma_mk^k, with the usual metric Christoffels.
    Entries are left unsimplified; callers substitute and then reduce.
    """
    ginv = g.adjugate() / g.det()
    idx = range(3)

    def gamma(i, j, k):
        return sympy.Rational(1, 2) * sum(
            ginv[k, l] * (sympy.diff(g[j, l], SX[i])
                          + sympy.diff(g[i, l], SX[j])
                          - sympy.diff(g[i, j], SX[l]))
            for l in idx)

    gam = [[[gamma(i, j, k) for k in idx] for j in idx] for i in idx]

    def ricci(i, j):
        term1 = sum(sympy.diff(gam[j][k][k], SX[i]) for k in idx)
        term2 = sum(sympy.diff(gam[i][j][k], SX[k]) for k in idx)
        term3 = sum(gam[i][k][m] * gam[j][m][k] for k in idx for m in idx)
        term4 = sum(gam[i][j][m] * gam[m][k][k] for k in idx for m in idx)
        return term1 - term2 + term3 - term4

    return sympy.Matrix(3, 3, lambda i, j: ricci(i, j))


def sym_to_sympy(s: SymField) -> sympy.Matrix:
    return sympy.Matrix(3, 3, lambda i, j: to_sympy(s.entry(i + 1, j + 1)))


def test_jet_arithmetic_truncates():
    a = JetPoly(X1, X2)
    b = JetPoly(X2, ONE)
    prod = a * b
    assert prod.p0 == X1 * X2
    assert prod.p1 == X1 * ONE + X2 * X2  # cross terms only; eps^2 drops
    assert (a - a).is_zero()
    assert a.partial(2).p0.is_zero()
    assert a.partial(2).p1 == ONE


def test_metric_jet_requires_flat_background():
    with pytest.raises(ValueError):
        MetricJet(tuple(tuple(JetPoly(X1 if i == j else Poly3(), Poly3())
                              for j in AXES) for i in AXES))


def test_metric_jet_strain_round_trip():
    sigma = random_field("sym", 3, 11)
    g = MetricJet.from_strain(sigma)
    assert g.strain() == sigma
    for i in AXES:
        for j in AXES:
            assert g.entry(i, j).p0 == (ONE if i == j else Poly3())
            assert g.entry(i, j).p1 == sigma.entry(i, j)


def test_jet_inverse_is_two_sided():
    for seed in range(8):
        sigma = random_field("sym", 3, seed + 20)
        g = MetricJet.from_strain(sigma)
        ginv = jet_inverse(g)
        for i in AXES:
            for j in AXES:
                # first-order inverse flips the sign of the strain
                assert ginv.entry(i, j).p1 == -sigma.entry(i, j)


def test_christoffel_background_vanishes():
    sigma = random_field("sym", 3, 31)
    gamma = christoffel_jet(MetricJet.from_strain(sigma))
    for i in AXES:
        for j in AXES:
            for k in AXES:
                assert gamma.entry(i, j, k).p0.is_zero()
                assert gamma.entry(i, j, k) == gamma.entry(j, i, k)


def test_christoffel_against_sympy():
    sigma = random_field("sym", 2, 37)
    gamma = christoffel_jet(MetricJet.from_strain(sigma))
    t = sympy.Symbol("t")
    g = sympy.eye(3) + t * sym_to_sympy(sigma)
    ginv = g.adjugate() / g.det()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expr = sympy.Rational(1, 2) * sum(
                    ginv[k, l] * (sympy.diff(g[j, l], SX[i])
                                  + sympy.diff(g[i, l], SX[j])
                                  - sympy.diff(g[i, j], SX[l]))
                    for l in range(3))
                first = sympy.cancel(sympy.diff(expr, t).subs(t, 0))
                ours = to_sympy(gamma.entry(i + 1, j + 1, k + 1).p1)
                assert sympy.expand(first - ours) == 0


def test_curvature_jet_defining_relation_enforced():
    sigma = random_field("sym", 2, 41)
    curv = ricci_jet(MetricJet.from_strain(sigma))
    bad = tuple(tuple(curv.einstein[i][j] + JetPoly(Poly3(), ONE)
                      for j in range(3)) for i in range(3))
    with pytest.raises(ValueError):
        CurvatureJet(metric=curv.metric, ricci=curv.ricci,
                     scalar=curv.scalar, einstein=bad)


def test_linearized_einstein_equals_compat():
    for seed in range(15):
        sigma = random_field("sym", 4, seed + 50)
        assert linearized_einstein(sigma) == curl_curl(sigma)


def test_linearized_einstein_against_sympy():
    # full nonlinear Einstein in sympy, derivative in the perturbation at 0;
    # after substituting t = 0 all denominators become det(identity) = 1
    t = sympy.Symbol("t")
    strains = [random_field("sym", 1, 3), random_field("sym", 1, 8),
               SymField.unit(1, 1, X2 * X2)]
    for which, sigma in enumerate(strains):
        g = sympy.eye(3) + t * sym_to_sympy(sigma)
        ric = sympy_ricci(g)
        # Ricci of the background vanishes, so at first order the scalar is
        # the plain trace and the Einstein entry needs no metric factor
        ric1 = sympy.Matrix(3, 3, lambda i, j: sympy.cancel(
            sympy.diff(ric[i, j], t).subs(t, 0)))
        scal1 = ric1.trace()
        einstein1 = scal1 * sympy.eye(3) - 2 * ric1
        ours = linearized_einstein(sigma)
        for i in range(3):
            for j in range(3):
                diff = sympy.expand(
                    einstein1[i, j] - to_sympy(ours.entry(i + 1, j + 1)))
                assert diff == 0, (which, i, j)


def test_ricci_jet_on_fraction_strains():
    """The route carries 2 Gamma and 4 Ricci; the results are the curvature
    jets themselves: Einstein is curl_curl, the scalar is the trace of Ricci
    (first order, flat background) and the public constructor accepts them."""
    for seed, den in enumerate((2, 3, 7, 42)):
        sigma = random_field("sym", 3, seed + 90).scaled(Fraction(1, den))
        curv = ricci_jet(MetricJet.from_strain(sigma))
        CurvatureJet(metric=curv.metric, ricci=curv.ricci, scalar=curv.scalar,
                     einstein=curv.einstein)
        assert SymField.from_entries(lambda i, j: curv.einstein[i - 1][j - 1].p1) \
            == curl_curl(sigma)
        trace = curv.ricci[0][0] + curv.ricci[1][1] + curv.ricci[2][2]
        assert (trace - curv.scalar).is_zero()


def test_linearized_einstein_kills_strains():
    for seed in range(10):
        u = random_field("vec", 4, seed + 70)
        assert linearized_einstein(sym_grad(u)).is_zero()


def test_bianchi_residual_zero():
    for seed in range(10):
        sigma = random_field("sym", 5, seed + 90)
        assert bianchi_check(sigma).is_zero()


def test_pointwise_frozen_example():
    metric = PolyMetric.from_matrix(Mat3Field.from_entries(
        lambda i, j: ONE + X1 * X1 if i == j == 3 else (ONE if i == j else Poly3())))
    values = pointwise_curvature(metric, (Fraction(0),) * 3)
    assert values.ricci == ((1, 0, 0), (0, 0, 0), (0, 0, 1))
    assert values.scalar == 2
    assert values.einstein == ((0, 0, 0), (0, 2, 0), (0, 0, 0))


def test_pointwise_against_sympy():
    cases = [
        (Mat3Field.from_entries(
            lambda i, j: ONE + X1 * X1 if i == j == 3 else (ONE if i == j else Poly3())),
         (Fraction(1, 2), Fraction(-3), Fraction(7, 5))),
        (Mat3Field.from_entries(
            lambda i, j: {(1, 1): 2 * ONE, (2, 2): ONE + X2 * X2,
                          (3, 3): 3 * ONE, (1, 2): X3, (2, 1): X3}.get(
                              (i, j), Poly3())),
         (Fraction(1, 3), Fraction(1), Fraction(-1))),
    ]
    for mat, point in cases:
        metric = PolyMetric.from_matrix(mat)
        values = pointwise_curvature(metric, point)
        g = sympy.Matrix(3, 3, lambda i, j: to_sympy(mat.entry(i + 1, j + 1)))
        subs = dict(zip(SX, [sympy.Rational(c.numerator, c.denominator)
                             for c in point]))
        ric = sympy_ricci(g)
        for i in range(3):
            for j in range(3):
                want = sympy.cancel(ric[i, j].subs(subs))
                got = values.ricci[i][j]
                assert sympy.Rational(got.numerator, got.denominator) == want


def test_pointwise_euclidean_zero():
    metric = PolyMetric.euclidean()
    values = pointwise_curvature(metric, (Fraction(5), Fraction(-2, 7), Fraction(3)))
    assert values.ricci_is_zero()
    assert values.scalar == 0


def test_pullback_metrics_are_flat():
    maps = [
        [X1 + X2 * X2, X2, X3],
        [X1, X2 + X1 * X3, X3],
        [X1 + X2 * X3, X2 + X3 * X3 * X3, X3],
    ]
    points = [(Fraction(1, 3), Fraction(2), Fraction(-1)),
              (Fraction(0), Fraction(0), Fraction(0)),
              (Fraction(-5, 2), Fraction(1, 7), Fraction(4))]
    for phi in maps:
        metric = PolyMetric.from_map_jacobian(phi)
        for point in points:
            values = pointwise_curvature(metric, point)
            assert values.ricci_is_zero()
            assert values.scalar == 0
            assert all(v == 0 for row in values.einstein for v in row)


def test_pointwise_singular_metric_raises():
    metric = PolyMetric.from_matrix(Mat3Field.from_entries(
        lambda i, j: X1 if i == j else Poly3()))
    with pytest.raises(SingularMetricError):
        pointwise_curvature(metric, (Fraction(0),) * 3)


def test_pointwise_point_needs_three_coordinates():
    with pytest.raises(ValueError, match="exactly three coordinates"):
        pointwise_curvature(PolyMetric.euclidean(), (Fraction(1), Fraction(2)))


def test_einstein_trace_is_scalar():
    for seed in range(6):
        sigma = random_field("sym", 3, seed + 110)
        curv = ricci_jet(MetricJet.from_strain(sigma))
        trace = sum((curv.einstein[k][k] for k in range(3)),
                    curv.scalar - curv.scalar)
        assert (trace - curv.scalar).is_zero()


# -- each intermediate is formed once; every check still runs ----------------

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def fraction_strains(draw, max_degree=3):
    """Symmetric fields of degree <= max_degree with denominators up to 6."""
    monos = monomials_up_to(draw(st.integers(0, max_degree)))

    def poly() -> Poly3:
        chosen = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
        return Poly3({e: draw(fractions) for e in chosen})

    return SymField.from_parts(tuple(poly() for _ in SymField.KEYS))


def reference_pointwise(metric: PolyMetric, point):
    """Ricci, scalar and Einstein at a point, with every entry of the metric
    and every derivative of it formed and evaluated separately."""
    p = tuple(Fraction(v) for v in point)
    idx = range(3)

    def ev(poly, *axes):
        for a in axes:
            poly = poly.partial(a + 1)
        return poly.evaluate(p)

    g = [[ev(metric.entry(i + 1, j + 1)) for j in idx] for i in idx]
    dg = [[[ev(metric.entry(i + 1, j + 1), m) for j in idx] for i in idx] for m in idx]
    ddg = [[[[ev(metric.entry(i + 1, j + 1), m, l) for j in idx] for i in idx]
            for l in idx] for m in idx]
    det = sympy.Matrix(g).det()
    if det == 0:
        return None
    inv = sympy.Matrix(g).inv()
    ginv = [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in idx] for i in idx]
    dginv = [[[-sum(ginv[i][a] * dg[m][a][b] * ginv[b][j] for a in idx for b in idx)
               for j in idx] for i in idx] for m in idx]

    def bracket(i, j, l, d=None):
        if d is None:
            return dg[i][j][l] + dg[j][i][l] - dg[l][i][j]
        return ddg[d][i][j][l] + ddg[d][j][i][l] - ddg[d][l][i][j]

    gam = [[[sum(ginv[k][l] * bracket(i, j, l) for l in idx) / 2 for k in idx]
            for j in idx] for i in idx]
    dgam = [[[[sum(dginv[m][k][l] * bracket(i, j, l) + ginv[k][l] * bracket(i, j, l, m)
                   for l in idx) / 2 for k in idx] for j in idx] for i in idx]
            for m in idx]
    ricci = [[sum(dgam[i][j][k][k] - dgam[k][i][j][k] for k in idx)
              + sum(gam[i][k][m] * gam[j][m][k] for k in idx for m in idx)
              - sum(gam[i][j][m] * gam[m][k][k] for k in idx for m in idx)
              for j in idx] for i in idx]
    scalar = sum(ginv[k][l] * ricci[k][l] for k in idx for l in idx)
    einstein = [[scalar * g[i][j] - 2 * ricci[i][j] for j in idx] for i in idx]
    return ricci, scalar, einstein


@settings(max_examples=25, deadline=None, database=None)
@given(sigma=fraction_strains())
def test_linearized_einstein_equals_compat_with_fractions(sigma):
    assert linearized_einstein(sigma) == curl_curl(sigma)


# g_13 carries x1^5000: the jet pass takes powers per exponent used, and the
# integer tensor algebra runs on entries of some 10^4 bits.
HIGH_EXPONENT_STRAIN = (SymField.unit(1, 3, Poly3.monomial((5000, 0, 0), Fraction(1, 3)))
                        + SymField.unit(2, 2, X2 * X3 - Fraction(1, 2) * X1 * X1))


@settings(max_examples=25, deadline=None, database=None)
@given(sigma=fraction_strains(5), point=st.tuples(fractions, fractions, fractions))
@example(sigma=HIGH_EXPONENT_STRAIN, point=(Fraction(-7, 6), Fraction(1, 2), Fraction(3)))
@example(sigma=HIGH_EXPONENT_STRAIN, point=(Fraction(1), Fraction(0), Fraction(-2, 5)))
def test_pointwise_matches_reference_with_fractions(sigma, point):
    metric = PolyMetric(sigma + SymField.identity())
    want = reference_pointwise(metric, point)
    if want is None:
        with pytest.raises(SingularMetricError):
            pointwise_curvature(metric, point)
        return
    values = pointwise_curvature(metric, point)
    ricci, scalar, einstein = want
    assert values.ricci == tuple(tuple(row) for row in ricci)
    assert values.scalar == scalar
    assert values.einstein == tuple(tuple(row) for row in einstein)


def test_pointwise_forms_no_partial_and_no_evaluation(monkeypatch):
    """Cost pin: the values and partials come from one integer jet pass per
    entry, so no partial polynomial is formed and no Poly3.evaluate runs."""
    calls = {"partial": 0, "evaluate": 0}
    partial, evaluate = Poly3.partial, Poly3.evaluate

    def counting_partial(self, axis):
        calls["partial"] += 1
        return partial(self, axis)

    def counting_evaluate(self, point):
        calls["evaluate"] += 1
        return evaluate(self, point)

    metric = PolyMetric(random_field("sym", 3, 7) + SymField.identity())
    want = pointwise_curvature(metric, (Fraction(1, 3), Fraction(-2), Fraction(5, 4)))
    monkeypatch.setattr(Poly3, "partial", counting_partial)
    monkeypatch.setattr(Poly3, "evaluate", counting_evaluate)
    got = pointwise_curvature(metric, (Fraction(1, 3), Fraction(-2), Fraction(5, 4)))
    assert calls == {"partial": 0, "evaluate": 0}
    assert got == want


def test_ricci_jet_builds_one_inverse(monkeypatch):
    calls = []
    real = riemannian.jet_inverse

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(riemannian, "jet_inverse", counting)
    g = MetricJet.from_strain(random_field("sym", 3, 5))
    riemannian.ricci_jet(g)
    assert len(calls) == 1
    # called alone, christoffel_jet still builds its own inverse
    riemannian.christoffel_jet(g)
    assert len(calls) == 2


def test_christoffel_jet_rejects_asymmetric_or_background():
    zero = JetPoly(Poly3(), Poly3())
    asym = [[[zero] * 3 for _ in AXES] for _ in AXES]
    asym[0][1][2] = JetPoly(Poly3(), X1)
    with pytest.raises(ValueError, match="symmetric"):
        ChristoffelJet(tuple(tuple(tuple(row) for row in plane) for plane in asym))
    background = [[[zero] * 3 for _ in AXES] for _ in AXES]
    background[1][1][1] = JetPoly(ONE, Poly3())
    with pytest.raises(ValueError, match="background"):
        ChristoffelJet(tuple(tuple(tuple(row) for row in plane) for plane in background))


def test_metric_jet_rejects_asymmetric_strain():
    entries = [[JetPoly(ONE if i == j else Poly3(), Poly3()) for j in AXES] for i in AXES]
    entries[0][1] = JetPoly(Poly3(), X3)
    with pytest.raises(ValueError, match="symmetric"):
        MetricJet(tuple(tuple(row) for row in entries))


def test_metric_jet_rejects_a_background_other_than_delta():
    for i in AXES:
        for j in AXES:
            for p0 in (Poly3(), ONE, X1, Poly3.constant(2)):
                if p0 == (ONE if i == j else Poly3()):
                    continue
                entries = [[JetPoly(ONE if a == b else Poly3(), Poly3()) for b in AXES]
                           for a in AXES]
                entries[i - 1][j - 1] = JetPoly(p0, Poly3())
                with pytest.raises(ValueError, match="background"):
                    MetricJet(tuple(tuple(row) for row in entries))


def test_ricci_jet_checks_quadratic_terms(monkeypatch):
    class Background:
        """Christoffel stand-in with a background part, which ChristoffelJet
        itself would reject: Gamma_12^1 = Gamma_11^2 = x1."""

        gamma = tuple(tuple(tuple(
            JetPoly(X1 if (i, j, k) in ((1, 2, 1), (1, 1, 2)) else Poly3(), Poly3())
            for k in AXES) for j in AXES) for i in AXES)

    monkeypatch.setattr(riemannian, "_christoffel", lambda g, ginv: Background())
    with pytest.raises(AssertionError, match="quadratic"):
        ricci_jet(MetricJet.from_strain(random_field("sym", 2, 9)))


@pytest.mark.parametrize("index,error", [
    (0, ValueError), (4, ValueError), (True, TypeError), (1.0, TypeError),
])
def test_jet_indices_are_ints_from_1_to_3(index, error):
    """MetricJet.entry(0, 0) once returned the entry (3, 3), and
    ChristoffelJet.entry(0, 1, 1) the entry (3, 1, 1)."""
    g = MetricJet.from_strain(random_field("sym", 2, 9))
    gamma = christoffel_jet(g)
    for get in (lambda: g.entry(index, 1), lambda: g.entry(1, index),
                lambda: gamma.entry(index, 1, 1), lambda: gamma.entry(1, 1, index)):
        with pytest.raises(error, match="axis must be"):
            get()
    assert g.entry(3, 1) is g.entries[2][0]
    assert gamma.entry(3, 1, 2) is gamma.gamma[2][0][1]


def test_linearized_einstein_checks_background(monkeypatch):
    curvature = ricci_jet(MetricJet.from_strain(random_field("sym", 2, 9)))
    shifted = CurvatureJet.__new__(CurvatureJet)
    object.__setattr__(shifted, "einstein", tuple(
        tuple(JetPoly(e.p0 + ONE, e.p1) for e in row) for row in curvature.einstein))
    monkeypatch.setattr(riemannian, "ricci_jet", lambda metric: shifted)
    with pytest.raises(AssertionError, match="background"):
        linearized_einstein(random_field("sym", 2, 9))


def test_from_map_jacobian_needs_three_components():
    with pytest.raises(ValueError, match="three components"):
        PolyMetric.from_map_jacobian([X1, X2])


# -- jet short paths and operand types -----------------------------------------

def _three_products(a, b):
    """The jet product by its defining formula: p0 = a0 b0, p1 = a0 b1 + a1 b0."""
    return JetPoly(a.p0 * b.p0, a.p0 * b.p1 + a.p1 * b.p0)


jet_parts = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                            st.one_of(st.integers(-4, 4),
                                      st.fractions(min_value=-3, max_value=3,
                                                   max_denominator=3)),
                            max_size=5).map(Poly3)
# A background that is empty, or one drawn like any other part (often nonzero).
jets = st.builds(JetPoly, st.one_of(st.just(Poly3()), jet_parts), jet_parts)


@settings(max_examples=200, deadline=None, database=None)
@given(a=jets, b=jets)
@example(a=JetPoly(Poly3(), X1), b=JetPoly(X2, X3))    # left background empty
@example(a=JetPoly(X1, X2), b=JetPoly(Poly3(), X3))    # right background empty
@example(a=JetPoly(Poly3(), X1), b=JetPoly(Poly3(), X2))  # both empty
@example(a=JetPoly(X1, X2), b=JetPoly(ONE, X3))       # neither empty
def test_jet_product_matches_the_three_product_formula(a, b):
    want = _three_products(a, b)
    for got in (a * b, b * a):
        assert got == want
        assert got.p0 == want.p0 and got.p1 == want.p1
        assert type(got.p0) is Poly3 and type(got.p1) is Poly3


@pytest.mark.parametrize("other", [1, Fraction(1, 2), X1, None, "a", 1.5])
def test_jet_sum_and_difference_take_only_jets(other):
    jet = JetPoly(1, X1)
    for op in (lambda: jet + other, lambda: other + jet,
               lambda: jet - other, lambda: other - jet):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("other", [X1, None, "a", 1.5])
def test_jet_product_takes_only_jets_and_exact_scalars(other):
    jet = JetPoly(1, X1)
    with pytest.raises(TypeError):
        jet * other
    with pytest.raises(TypeError):
        other * jet


def test_jet_product_with_exact_scalars():
    jet = JetPoly(1, X1)
    assert jet * 2 == 2 * jet == JetPoly(2, 2 * X1)
    assert jet * Fraction(1, 2) == JetPoly(Fraction(1, 2), X1 / 2)


# -- jet arithmetic against the general two-part formulas ---------------------

def _assert_canonical_parts(jet):
    for part in (jet.p0, jet.p1):
        assert type(part) is Poly3
        for coef in part.terms.values():
            assert coef != 0
            assert type(coef) is int or (type(coef) is Fraction and coef.denominator > 1)


# Backgrounds: empty, constant, one monomial (X1-like, not constant) or general.
backgrounds = st.one_of(
    st.just(Poly3()),
    st.builds(Poly3.constant, st.one_of(st.integers(-4, 4),
                                        st.fractions(-3, 3, max_denominator=3))),
    st.builds(Poly3.monomial, st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 3)),
    jet_parts)
general_jets = st.one_of(st.builds(JetPoly, backgrounds, jet_parts),
                         st.just(JetPoly(Poly3(), Poly3())),
                         st.just(JetPoly(Poly3(), X1) * JetPoly(Poly3(), X2)))
exact_scalars = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))


@settings(max_examples=200, deadline=None, database=None)
@given(a=general_jets, b=general_jets, s=exact_scalars)
@example(a=JetPoly(Poly3(), X1), b=JetPoly(Poly3(), X2), s=2)    # both empty
@example(a=JetPoly(Poly3(), X1), b=JetPoly(X2, X3), s=0)         # left empty
@example(a=JetPoly(X1, X2), b=JetPoly(Poly3(), X3), s=Fraction(1, 2))  # right empty
@example(a=JetPoly(ONE, X1), b=JetPoly(2, X2), s=-1)             # constant
@example(a=JetPoly(X1, X2), b=JetPoly(X1 + X3, X3), s=Fraction(-3, 2))  # general
@example(a=JetPoly(Fraction(1, 2) * X1, X2), b=JetPoly(Fraction(1, 2) * X1, X2),
         s=Fraction(2, 3))                                       # cancelling
def test_jet_arithmetic_matches_the_two_part_formulas(a, b, s):
    """+, -, partial and products (with a jet or an exact scalar) equal the
    general formulas, which run Poly3 arithmetic on both parts."""
    cases = [(a + b, JetPoly(a.p0 + b.p0, a.p1 + b.p1)),
             (b + a, JetPoly(b.p0 + a.p0, b.p1 + a.p1)),
             (a - b, JetPoly(a.p0 + (-b.p0), a.p1 + (-b.p1))),
             (b - a, JetPoly(b.p0 + (-a.p0), b.p1 + (-a.p1))),
             (a * b, _three_products(a, b)), (b * a, _three_products(a, b)),
             (a * s, JetPoly(a.p0 * s, a.p1 * s)), (s * a, JetPoly(a.p0 * s, a.p1 * s))]
    cases += [(a.partial(k), JetPoly(a.p0.partial(k), a.p1.partial(k))) for k in AXES]
    for got, want in cases:
        assert got == want
        _assert_canonical_parts(got)
