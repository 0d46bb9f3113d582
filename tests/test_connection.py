from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from strainkit import calculus, connection
from strainkit.calculus import (_potential_numerator, curl, curl_curl, curl_row,
                                grad, homotopy_antiderivative, sym_grad)
from strainkit.connection import (WField, WOneForm, flat_sections_basis,
                                  normalize_rigid, random_w_field,
                                  random_w_one_form, rigid_motion,
                                  saint_venant_reconstruct, w_curl, w_div,
                                  w_grad, w_poincare)
from strainkit.errors import CompatibilityError
from strainkit.fields import (AXES, Mat3Field, SymField, VecField, eps,
                              random_field)
from strainkit.poly import X1, X2, X3, Poly3, monomials_up_to

ORIGIN = (Fraction(0), Fraction(0), Fraction(0))


def test_w_grad_components():
    f = random_w_field(3, 0)
    form = w_grad(f)
    from strainkit.fields import eps
    for j in AXES:
        for l in AXES:
            coupling = sum((Poly3.constant(eps(j, l, m)) * f.y.comp(m)
                            for m in AXES), Poly3())
            assert form.sigma.entry(j, l) == f.x.comp(l).partial(j) - coupling
            assert form.xi.entry(j, l) == f.y.comp(l).partial(j)


def test_w_curl_after_w_grad_zero():
    for seed in range(20):
        f = random_w_field(4, seed)
        assert w_curl(w_grad(f)).is_zero()


def test_w_div_after_w_curl_zero():
    for seed in range(20):
        psi = random_w_one_form(4, seed + 40)
        assert w_div(w_curl(psi)).is_zero()


def test_flat_sections_are_flat_and_six():
    basis = flat_sections_basis()
    assert len(basis) == 6
    for section in basis:
        assert w_grad(section).is_zero()
    # translations first: X constant, Y zero
    for m in range(3):
        assert basis[m].x == VecField.basis(m + 1)
        assert basis[m].y.is_zero()
    # then rotations: X = e_m cross x, Y = e_m
    for m in range(3):
        rot = basis[3 + m]
        assert rot.y == VecField.basis(m + 1)
        assert rot.x == rigid_motion((0, 0, 0), tuple(1 if k == m else 0
                                                      for k in range(3)))


def test_rigid_motion_formula():
    a = (Fraction(1), Fraction(-2), Fraction(1, 3))
    b = (Fraction(2), Fraction(0), Fraction(-1))
    v = rigid_motion(a, b)
    # component j is a_j + (b cross x)_j
    pt = (Fraction(1, 2), Fraction(3), Fraction(-1))
    cross = (b[1] * pt[2] - b[2] * pt[1],
             b[2] * pt[0] - b[0] * pt[2],
             b[0] * pt[1] - b[1] * pt[0])
    assert v.evaluate(pt) == tuple(a[k] + cross[k] for k in range(3))
    assert sym_grad(v).is_zero()


def test_w_poincare_round_trip():
    for seed in range(12):
        f = random_w_field(4, seed + 80)
        form = w_grad(f)
        g = w_poincare(form)
        again = w_grad(g)
        assert (again.sigma - form.sigma).is_zero()
        assert (again.xi - form.xi).is_zero()
        # the ambiguity is exactly a flat section
        dx, dy = f.x - g.x, f.y - g.y
        assert dy.degree <= 0
        assert sym_grad(dx).is_zero()


def test_w_poincare_rejects_non_closed():
    # column 2 of sigma is (x2, 0, 0), which is not a gradient
    psi = WOneForm(Mat3Field.unit(1, 2, X2), Mat3Field.zero())
    assert not w_curl(psi).is_zero()
    with pytest.raises(CompatibilityError):
        w_poincare(psi)


def test_saint_venant_round_trip():
    for seed in range(20):
        u = random_field("vec", 5, seed + 120)
        strain = sym_grad(u)
        v = saint_venant_reconstruct(strain)
        assert sym_grad(v) == strain


def test_saint_venant_frozen_example():
    # off-diagonal strain x2 integrates to the displacement (x2^2, 0, 0)
    strain = SymField.unit(1, 2, X2)
    v = normalize_rigid(saint_venant_reconstruct(strain))
    assert v == VecField.of(X2 * X2, Poly3(), Poly3())


def test_saint_venant_rejects_incompatible():
    strain = SymField.unit(1, 1, X2 * X2)
    with pytest.raises(CompatibilityError) as info:
        saint_venant_reconstruct(strain)
    assert info.value.residual == curl_curl(strain)
    assert info.value.residual.entry(3, 3) == Poly3.constant(2)


def test_normalized_reconstruction_matches_normalized_input():
    for seed in range(20):
        u = random_field("vec", 5, seed + 160)
        v = saint_venant_reconstruct(sym_grad(u))
        assert normalize_rigid(v) == normalize_rigid(u)


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), degree=st.integers(0, 4))
def test_reconstruct_inverts_sym_grad_modulo_rigid_motions(seed, degree):
    u = random_field("vec", degree, seed)
    assert normalize_rigid(saint_venant_reconstruct(sym_grad(u))) == normalize_rigid(u)


def test_normalize_rigid_gauge_conditions():
    for seed in range(12):
        u = random_field("vec", 4, seed + 200)
        shifted = u + rigid_motion((Fraction(5), Fraction(-1, 2), Fraction(7)),
                                   (Fraction(1, 3), Fraction(2), Fraction(-4)))
        v = normalize_rigid(shifted)
        assert v.evaluate(ORIGIN) == (0, 0, 0)
        jac = Mat3Field.from_entries(lambda i, j: v.comp(j).partial(i))
        skew = jac.skew_part()
        for i in AXES:
            for j in AXES:
                assert skew.entry(i, j).evaluate(ORIGIN) == 0
        assert sym_grad(v) == sym_grad(u)


def test_normalize_rigid_idempotent():
    for seed in range(8):
        u = random_field("vec", 4, seed + 240)
        v = normalize_rigid(u)
        assert normalize_rigid(v) == v


@st.composite
def fraction_polys(draw, max_degree: int, max_den: int) -> Poly3:
    """Up to 6 terms of degree <= a drawn bound <= max_degree, with
    coefficients n/d, |n| <= 9 and d <= max_den."""
    monos = monomials_up_to(draw(st.integers(0, max_degree)))
    chosen = draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
    coefs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, max_den))
    return Poly3({e: draw(coefs) for e in chosen})


def fraction_fields(cls, max_degree: int = 4, max_den: int = 6):
    """Fields of the given kind with fraction_polys components."""
    part = fraction_polys(max_degree, max_den)
    return st.tuples(*(part for _ in cls.KEYS)).map(cls.from_parts)


def normalize_by_partial_evaluate(x: VecField) -> VecField:
    """x - (a + b x x) with a = X(0) and b the axial vector of the skew
    Jacobian at 0, both found by differentiating and evaluating."""
    a = x.evaluate(ORIGIN)
    jac = [[x.comp(j).partial(i).evaluate(ORIGIN) for j in AXES] for i in AXES]
    b = [(jac[1][2] - jac[2][1]) / 2, (jac[2][0] - jac[0][2]) / 2,
         (jac[0][1] - jac[1][0]) / 2]
    motion = VecField.of(a[0] + b[1] * X3 - b[2] * X2,
                         a[1] + b[2] * X1 - b[0] * X3,
                         a[2] + b[0] * X2 - b[1] * X1)
    return x - motion


@settings(max_examples=60, deadline=None, database=None)
@given(u=fraction_fields(VecField))
@example(u=VecField.zero())
@example(u=VecField.of(Fraction(1, 2) + 3 * X2 - X1 * X3, Fraction(-2, 3) * X1,
                       X1 * X2 * X3 + Fraction(5, 4) * X3))
def test_normalize_rigid_matches_partial_evaluate_gauge(u):
    assert normalize_rigid(u) == normalize_by_partial_evaluate(u)


def test_normalize_rigid_forms_no_partial_and_no_evaluation(monkeypatch):
    """Cost pin: the gauge is read from the constant and linear coefficients,
    so no partial polynomial is formed and no Poly3.evaluate runs."""
    calls = {"partial": 0, "evaluate": 0}
    partial, evaluate = Poly3.partial, Poly3.evaluate

    def counting_partial(self, axis):
        calls["partial"] += 1
        return partial(self, axis)

    def counting_evaluate(self, point):
        calls["evaluate"] += 1
        return evaluate(self, point)

    u = random_field("vec", 4, 17)
    want = normalize_rigid(u)
    monkeypatch.setattr(Poly3, "partial", counting_partial)
    monkeypatch.setattr(Poly3, "evaluate", counting_evaluate)
    got = normalize_rigid(u)
    assert calls == {"partial": 0, "evaluate": 0}
    assert got == want


def test_flat_sections_basis_is_the_explicit_construction():
    want = [WField(VecField.basis(m), VecField.zero()) for m in AXES]
    for m in AXES:
        e = [1 if k == m else 0 for k in AXES]
        cross = VecField.of(e[1] * X3 - e[2] * X2, e[2] * X1 - e[0] * X3,
                            e[0] * X2 - e[1] * X1)
        want.append(WField(cross, VecField.basis(m)))
    assert flat_sections_basis() == want


def test_w_field_random_deterministic():
    assert random_w_field(3, 5) == random_w_field(3, 5)
    a = random_w_one_form(3, 5)
    b = random_w_one_form(3, 5)
    assert (a.sigma - b.sigma).is_zero() and (a.xi - b.xi).is_zero()


def test_w_structures_zero_and_arithmetic():
    z = WField.zero()
    assert z.is_zero()
    f = random_w_field(2, 9)
    assert (f - f).is_zero()
    assert (f + z).x == f.x
    psi = random_w_one_form(2, 9)
    assert (psi - psi).is_zero()


# -- the Saint-Venant route takes each curl once ------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_saint_venant_takes_each_curl_once(monkeypatch):
    w_curls = _count_calls(monkeypatch, connection, "w_curl")
    curl_curls = _count_calls(monkeypatch, connection, "curl_curl_with_row")
    columns = _count_calls(monkeypatch, connection, "_potential_numerator")
    u = random_field("vec", 4, 3)
    v = saint_venant_reconstruct(sym_grad(u))
    assert (len(w_curls), len(curl_curls), len(columns)) == (1, 1, 6)
    assert normalize_rigid(v) == normalize_rigid(u)


def test_saint_venant_makes_18_vector_curls(monkeypatch):
    """Cost pin: curl_curl (6 curls), the connection curl (6) and the 6
    column checks; the strain's row curl serves the residual and the
    one-form.  An incompatible strain stops after curl_curl."""
    u = random_field("vec", 4, 3)
    strain = sym_grad(u)
    bad = random_field("sym", 3, 300)
    curls = _count_calls(monkeypatch, calculus, "curl")
    v = saint_venant_reconstruct(strain)
    assert len(curls) == 18
    assert normalize_rigid(v) == normalize_rigid(u)
    del curls[:]
    with pytest.raises(CompatibilityError):
        saint_venant_reconstruct(bad)
    assert len(curls) == 6


def test_saint_venant_curls_each_integrated_column(monkeypatch):
    """With both closedness checks stubbed to pass (the one-form still takes
    the strain's own row curl), the column curl-free check of the
    integration still refuses a non-closed one-form."""
    monkeypatch.setattr(connection, "curl_curl_with_row",
                        lambda s: (SymField.zero(), curl_row(s.as_matrix())))
    monkeypatch.setattr(connection, "w_curl", lambda psi: WOneForm.zero())
    with pytest.raises(CompatibilityError, match="not curl-free"):
        saint_venant_reconstruct(SymField.unit(1, 1, Fraction(1, 3) * X2 * X2))


# Denominators per component: integral, 2, 3, 7 and mixed (lcm 42).
_DENOMINATORS = ((1,) * 18, (2,) * 18, (3,) * 18, (7,) * 18,
                 (2, 3, 7, 1, 7, 2) * 3)


def _over(field, dens):
    """field with its k-th component divided by dens[k]."""
    return field.from_parts(tuple(p / d for p, d in zip(field.parts, dens)))


def test_incompatible_strain_carries_its_residual(monkeypatch):
    """The residual is curl_curl of the caller's strain, not of the integer
    numerators the route works on."""
    w_curls = _count_calls(monkeypatch, connection, "w_curl")
    for seed in range(4):
        for dens in _DENOMINATORS:
            strain = _over(random_field("sym", 3, seed + 300), dens)
            residual = curl_curl(strain)
            assert not residual.is_zero()
            with pytest.raises(CompatibilityError) as info:
                saint_venant_reconstruct(strain)
            assert info.value.residual == residual
    assert w_curls == []


def test_w_poincare_rejects_random_non_closed_forms():
    for seed in range(4):
        for dens in _DENOMINATORS:
            psi = _over(random_w_one_form(2, seed + 40), dens)
            residual = w_curl(psi)
            assert not residual.is_zero()
            with pytest.raises(CompatibilityError) as info:
                w_poincare(psi)
            assert info.value.residual == residual


# -- the integer-numerator route against the per-term Fraction formula ---------

def oracle_antiderivative(x: VecField) -> Poly3:
    """The radial homotopy term by term: c x^e in X_i contributes
    c * Fraction(1, d) x^e x_i with d = |e| + 1."""
    assert curl(x).is_zero()
    total = Poly3()
    for i in AXES:
        for exp, coef in x.comp(i).terms.items():
            lifted = list(exp)
            lifted[i - 1] += 1
            total = total + Poly3.monomial(tuple(lifted), coef * Fraction(1, sum(exp) + 1))
    return total


def oracle_integrate(sigma: Mat3Field, xi: Mat3Field) -> WField:
    """Y from the columns of xi, then X from the columns of sigma + eps . Y."""
    y = VecField(tuple(oracle_antiderivative(xi.column(l)) for l in AXES))
    corrected = Mat3Field.from_entries(
        lambda j, l: sigma.entry(j, l)
        + sum((y.comp(m) * eps(j, l, m) for m in AXES), Poly3()))
    return WField(VecField(tuple(oracle_antiderivative(corrected.column(l))
                                 for l in AXES)), y)


@settings(max_examples=40, deadline=None, database=None)
@given(f=fraction_polys(6, 7))
def test_homotopy_antiderivative_matches_per_term_formula(f):
    x = grad(f)
    assert homotopy_antiderivative(x) == oracle_antiderivative(x)


@settings(max_examples=30, deadline=None, database=None)
@given(f=fraction_fields(WField, 5, 7))
def test_w_poincare_matches_per_term_formula(f):
    form = w_grad(f)
    assert w_poincare(form) == oracle_integrate(form.sigma, form.xi)


@settings(max_examples=30, deadline=None, database=None)
@given(u=fraction_fields(VecField, 5, 7))
def test_saint_venant_matches_per_term_formula(u):
    strain = sym_grad(u)
    matrix = strain.as_matrix()
    want = oracle_integrate(matrix, curl_row(matrix).transpose()).x
    got = saint_venant_reconstruct(strain)
    assert got == want
    assert normalize_rigid(got) == normalize_rigid(want) == normalize_rigid(u)


def test_potential_scale_is_the_lcm_of_the_degrees_that_occur():
    """Three terms of pairwise coprime total degree near 10^5: the scale m
    is their product, not lcm(1, ..., 10^5 + 1), and the result is exact."""
    p, q, r = 99991, 100003, 100019
    f = Poly3({(p, 0, 0): 2, (0, q - 1, 1): Fraction(-3, 5), (0, 0, r): Fraction(1, 7)})
    x = grad(f)
    numerator, m = _potential_numerator(x)
    assert m == p * q * r
    assert numerator == f * m
    assert homotopy_antiderivative(x) == f == oracle_antiderivative(x)


def test_saint_venant_checks_both_curl_slots(monkeypatch):
    strain = sym_grad(random_field("vec", 3, 8))
    real = connection.w_curl
    bump = Mat3Field.unit(2, 3, X1)
    monkeypatch.setattr(connection, "w_curl",
                        lambda psi: WOneForm(real(psi).sigma + bump, real(psi).xi))
    with pytest.raises(AssertionError, match="first curl slot"):
        saint_venant_reconstruct(strain)
    monkeypatch.setattr(connection, "w_curl",
                        lambda psi: WOneForm(real(psi).sigma, real(psi).xi + bump))
    with pytest.raises(AssertionError, match="second curl slot"):
        saint_venant_reconstruct(strain)
