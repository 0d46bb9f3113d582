"""Stencil assembly against the hand-written field operators, and its outputs."""

import hashlib
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from strainkit.calculus import curl, curl_curl, div, div_sym, grad, sym_grad
from strainkit.cli import main
from strainkit.complexes import (GradedSpace, LinOpMatrix, OPERATOR_IDS, Slot,
                                 _shift_table, build_elasticity_complex,
                                 build_grad_curl_div_complex, build_w_complex, matrix_of)
from strainkit.connection import WField, WOneForm, w_curl, w_div, w_grad
from strainkit.fields import (AXES, SYM_INDEX_PAIRS, Mat3Field, SymField, axial_vector,
                              delta, eps, random_field, skew_from_axial)
from strainkit.poly import monomials_up_to
from strainkit.stencils import (OPERATORS, _MAT, _SYM, _d, _split,
                                _unsplit, compose, coupled_split_stencils, make_stencil,
                                operator_stencil)


def _sym(m):
    return SymField.from_entries(m.sym_part().entry)


# Reference for each matrix: the field operator on per-slot value tuples.
_REFERENCE = {
    "grad": lambda v: (grad(v[0]),),
    "curl": lambda v: (curl(v[0]),),
    "div": lambda v: (div(v[0]),),
    "sym_grad": lambda v: (sym_grad(v[0]),),
    "curl_curl": lambda v: (curl_curl(v[0]),),
    "div_sym": lambda v: (div_sym(v[0]),),
    "w_grad": lambda v: (lambda f: (f.sigma, f.xi))(w_grad(WField(*v))),
    "w_curl": lambda v: (lambda f: (f.sigma, f.xi))(w_curl(WOneForm(*v))),
    "w_div": lambda v: (lambda f: (f.x, f.y))(w_div(WOneForm(*v))),
}

# The coupled complex in split coordinates, through axial_vector/skew_from_axial.
_SPLIT_REFERENCE = [
    lambda v: (lambda f: (axial_vector(f.sigma), _sym(f.sigma), f.xi))(
        w_grad(WField(*v))),
    lambda v: (lambda f: (f.sigma, _sym(f.xi), axial_vector(f.xi)))(
        w_curl(WOneForm(skew_from_axial(v[0]) + v[1].as_matrix(), v[2]))),
    lambda v: (lambda f: (f.x, f.y))(
        w_div(WOneForm(v[0], skew_from_axial(v[2]) + v[1].as_matrix()))),
]


@cache
def _matrix(op_id, degree):
    return matrix_of(op_id, degree)


@cache
def _coupled(degree):
    return build_w_complex(degree)


def _random_values(space, seed):
    return tuple(random_field("vec" if s.kind == "skew" else s.kind, s.bound, seed + k)
                 for k, s in enumerate(space.slots))


def _agrees(mat, reference, seed):
    values = _random_values(mat.domain, seed)
    got = mat.apply_coords(mat.domain.to_coords(values))
    return got == mat.codomain.to_coords(reference(values))


@settings(max_examples=12, deadline=None, database=None)
@given(degree=st.integers(3, 6), seed=st.integers(0, 10**6))
def test_operator_stencils_match_field_operators(degree, seed):
    for op_id in OPERATOR_IDS:
        assert _agrees(_matrix(op_id, degree), _REFERENCE[op_id], seed), op_id


@settings(max_examples=12, deadline=None, database=None)
@given(degree=st.integers(3, 6), seed=st.integers(0, 10**6))
def test_split_stencils_match_field_operators(degree, seed):
    for stage, reference in enumerate(_SPLIT_REFERENCE):
        assert _agrees(_coupled(degree).maps[stage], reference, seed), stage


def test_stencil_below_codomain_bound_raises():
    dom = GradedSpace([Slot("f", "scalar", 2)])
    with pytest.raises(ValueError, match="exceeds bound 0"):
        LinOpMatrix.from_operator(dom, GradedSpace([Slot("v", "vec", 0)]),
                                  operator_stencil("grad"))
    # with a bound that fits, the same stencil assembles
    fits = LinOpMatrix.from_operator(dom, GradedSpace([Slot("v", "vec", 1)]),
                                     operator_stencil("grad"))
    assert fits.rank() == 9


def test_stencil_term_outside_the_spaces_raises():
    dom = GradedSpace([Slot("f", "scalar", 1)])
    with pytest.raises(ValueError):
        LinOpMatrix.from_operator(dom, GradedSpace([Slot("v", "vec", 0)]),
                                  operator_stencil("div"))
    with pytest.raises(ValueError):
        operator_stencil("hessian")


def _column_major_assembly(domain, codomain, stencil):
    """Reference for `from_operator`: its former loop, one column at a time,
    each term's falling factorials and monomial lookup computed per column."""
    stencil = make_stencil(stencil)
    den = lcm(*(term[-1].denominator for term in stencil))
    by_input = {}
    for s, c, t, d, alpha, factor in stencil:
        if not (0 <= s < len(domain.slots) and 0 <= c < domain.slots[s].ncomp
                and 0 <= t < len(codomain.slots) and 0 <= d < codomain.slots[t].ncomp):
            raise ValueError(f"stencil term {(s, c, t, d)} does not fit "
                             f"{domain!r} -> {codomain!r}")
        base = codomain.offsets[t] + d * len(codomain._monos[t])
        by_input.setdefault((s, c), []).append(
            (base, codomain._mono_pos[t], codomain.slots[t], alpha, int(factor * den)))
    cols = []
    for k, slot in enumerate(domain.slots):
        for c in range(slot.ncomp):
            targets = by_input.get((k, c), ())
            for e in domain._monos[k]:
                col = {}
                for base, pos, out_slot, alpha, factor in targets:
                    n = 1
                    for a, m in zip(e, alpha):
                        for r in range(m):
                            n *= a - r
                    if not n:
                        continue
                    where = pos.get((e[0] - alpha[0], e[1] - alpha[1], e[2] - alpha[2]))
                    if where is None:
                        raise ValueError(
                            f"term of degree {sum(e) - sum(alpha)} exceeds bound "
                            f"{out_slot.bound} in slot {out_slot.label!r}")
                    col[base + where] = factor * n if n != 1 else factor
                cols.append(col)
    return LinOpMatrix(domain, codomain, cols, den=den)


def _assert_same_assembly(mat, stencil):
    """Equal cols, den and entry order in every column."""
    want = _column_major_assembly(mat.domain, mat.codomain, stencil)
    assert mat.den == want.den
    assert [list(col.items()) for col in mat.cols] == \
        [list(col.items()) for col in want.cols]


@pytest.mark.parametrize("op_id", OPERATOR_IDS)
def test_operator_matrices_match_column_major_assembly(op_id):
    op = OPERATORS[op_id]
    least = -min(shift for _, _, shift in op.domain + op.codomain)
    for degree in range(least, 7):
        _assert_same_assembly(matrix_of(op_id, degree), operator_stencil(op_id))


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_complex_maps_match_column_major_assembly(degree):
    for build in (build_grad_curl_div_complex, build_elasticity_complex):
        for m in build(degree).maps:
            _assert_same_assembly(m, operator_stencil(m.name))
    for m, stencil in zip(build_w_complex(degree).maps, coupled_split_stencils()):
        _assert_same_assembly(m, stencil)


_X1, _X3, _D0 = (1, 0, 0), (0, 0, 1), (0, 0, 0)


# Messages frozen from the column-major loop.  Each names the first column,
# in basis order, holding a term that lands above its codomain bound, and in
# that column the first such term in stencil order.
@pytest.mark.parametrize("codomain,stencil,message", [
    # The term into b comes later in stencil order but overflows at an
    # earlier monomial (d1 annihilates x3^3).
    ([("a", "scalar", 1), ("b", "vec", 2)],
     [(0, 0, 0, 0, _X1, 1), (0, 0, 1, 0, _D0, 1)],
     "term of degree 3 exceeds bound 2 in slot 'b'"),
    # Both terms first overflow at x3^2: the first in stencil order.
    ([("a", "scalar", 0), ("b", "vec", 1)],
     [(0, 0, 0, 0, _X3, 1), (0, 0, 1, 2, _D0, 1)],
     "term of degree 1 exceeds bound 0 in slot 'a'"),
    # The term of slot v overflows at its first monomial, after every
    # column of slot f.
    ([("a", "scalar", 2), ("b", "vec", -1)],
     [(1, 1, 1, 0, _D0, 1), (0, 0, 0, 0, _X3, 2), (0, 0, 0, 0, _D0, 3)],
     "term of degree 3 exceeds bound 2 in slot 'a'"),
    # Slot f fits; component 2 of slot v does not.
    ([("a", "scalar", 2), ("b", "vec", 1)],
     [(0, 0, 0, 0, _X1, 1), (1, 2, 1, 1, _D0, 1)],
     "term of degree 2 exceeds bound 1 in slot 'b'"),
])
def test_overflow_names_the_first_column_and_term(codomain, stencil, message):
    dom = GradedSpace([Slot("f", "scalar", 3), Slot("v", "vec", 2)])
    cod = GradedSpace([Slot(*slot) for slot in codomain])
    for assemble in (LinOpMatrix.from_operator, _column_major_assembly):
        with pytest.raises(ValueError) as info:
            assemble(dom, cod, stencil)
        assert str(info.value) == message


def _full_enumeration():
    """The operator tables summed over every index tuple, zero eps and
    delta products included: the loops the nonzero-only tables replaced."""
    pairs = list(product(AXES, repeat=2))
    triples = list(product(AXES, repeat=3))
    d0 = _d()
    return {
        "grad": [(0, 0, 0, i - 1, _d(i), 1) for i in AXES],
        "curl": [(0, k - 1, 0, i - 1, _d(j), eps(i, j, k)) for i, j, k in triples],
        "div": [(0, i - 1, 0, 0, _d(i), 1) for i in AXES],
        "sym_grad": [(0, l - 1, 0, _SYM[i, j], _d(k),
                      Fraction(delta(k, i) * delta(l, j) + delta(k, j) * delta(l, i), 2))
                     for i, j in SYM_INDEX_PAIRS for k, l in pairs],
        "curl_curl": [(0, _SYM[m, n], 0, _SYM[i, j], _d(k, l), eps(i, k, m) * eps(j, l, n))
                      for i, j in SYM_INDEX_PAIRS
                      for k, l, m, n in product(AXES, repeat=4)],
        "div_sym": [(0, _SYM[i, j], 0, j - 1, _d(i), 1) for i, j in pairs],
        "w_grad": [(0, l - 1, 0, _MAT[j, l], _d(j), 1) for j, l in pairs]
        + [(1, m - 1, 0, _MAT[j, l], d0, -eps(j, l, m)) for j, l, m in triples]
        + [(1, l - 1, 1, _MAT[j, l], _d(j), 1) for j, l in pairs],
        "w_curl": [(q, _MAT[k, l], q, _MAT[i, l], _d(j), eps(i, j, k))
                   for q in (0, 1) for (i, j, k), l in product(triples, AXES)]
        + [(1, _MAT[l, i], 0, _MAT[i, l], d0, -1) for i, l in pairs]
        + [(1, _MAT[m, m], 0, _MAT[i, l], d0, delta(i, l)) for i, l, m in triples],
        "w_div": [(q, _MAT[j, l], q, l - 1, _d(j), 1) for q in (0, 1) for j, l in pairs]
        + [(1, _MAT[j, m], 0, l - 1, d0, -eps(j, l, m)) for j, l, m in triples],
    }


def _typed(stencil):
    """A stencil with the type of each factor: an int 1 and Fraction(1) are ==."""
    return [(term, type(term[-1])) for term in stencil]


def test_component_positions_follow_the_keys():
    for i, j in product(AXES, repeat=2):
        assert _MAT[i, j] == Mat3Field.KEYS.index(f"{i}{j}")
        assert _SYM[i, j] == SymField.KEYS.index(f"{min(i, j)}{max(i, j)}")


@pytest.mark.parametrize("op_id", OPERATOR_IDS)
def test_operator_tables_equal_the_full_enumeration(op_id):
    want = make_stencil(_full_enumeration()[op_id])
    assert _typed(operator_stencil(op_id)) == _typed(want)


def test_split_tables_equal_the_full_enumeration():
    full_split = ([(0, _MAT[i, j], 0, a - 1, _d(), Fraction(eps(a, i, j), 2))
                   for (i, j), a in product(product(AXES, repeat=2), AXES)]
                  + [(0, _MAT[i, j], 1, _SYM[i, j], _d(), Fraction(1 + delta(i, j), 2))
                     for i, j in product(AXES, repeat=2)])
    full_unsplit = ([(0, a - 1, 0, _MAT[j, k], _d(), Fraction(eps(j, k, a)))
                     for (j, k), a in product(product(AXES, repeat=2), AXES)]
                    + [(1, _SYM[j, k], 0, _MAT[j, k], _d(), Fraction(1))
                       for j, k in product(AXES, repeat=2)])
    assert _typed(make_stencil(_split(0, 0, 1))) == _typed(make_stencil(full_split))
    assert _typed(make_stencil(_unsplit(0, 1, 0))) == _typed(make_stencil(full_unsplit))
    # The split tables list no zero term.
    assert all(term[-1] for term in _split(0, 0, 1) + _unsplit(0, 1, 0))


def _reference_shift_table(in_bound, out_bound, alpha):
    """`_shift_table` from its definition: the falling factorials of each
    exponent one factor at a time, and a fresh position dict."""
    out_pos = {e: k for k, e in enumerate(monomials_up_to(out_bound))}
    shifts = []
    for k, e in enumerate(monomials_up_to(in_bound)):
        n = 1
        for a, m in zip(e, alpha):
            for r in range(m):
                n *= a - r
        if not n:
            continue
        where = out_pos.get(tuple(a - m for a, m in zip(e, alpha)))
        if where is None:
            return (), k
        shifts.append((k, where, n))
    return tuple(shifts), -1


def test_shift_tables_match_the_falling_factorial_loop():
    alphas = [a for a in product(range(3), repeat=3) if sum(a) <= 2]
    assert len(alphas) == 10
    for in_bound in range(9):
        for out_bound in range(-1, 9):
            for alpha in alphas:
                assert _shift_table(in_bound, out_bound, alpha) == \
                    _reference_shift_table(in_bound, out_bound, alpha)


def test_make_stencil_merges_and_drops_zeros():
    terms = [(0, 0, 0, 0, (1, 0, 0), 1), (0, 0, 0, 0, (1, 0, 0), -1),
             (0, 0, 0, 1, (0, 1, 0), 1), (0, 0, 0, 1, (0, 1, 0), 2)]
    assert make_stencil(terms) == ((0, 0, 0, 1, (0, 1, 0), 3),)


def test_summed_factors_are_canonical():
    # == cannot tell Fraction(1, 1) from 1, so the types are checked.
    half = (0, 0, 0, 0, (1, 0, 0), Fraction(1, 2))
    [(*_, factor)] = make_stencil([half, half])
    assert type(factor) is int and factor == 1
    for stencil in coupled_split_stencils():
        for *_, f in stencil:
            assert type(f) is int or (type(f) is Fraction and f.denominator > 1)


@pytest.mark.parametrize("alpha,error,message", [
    ((-1, 0, 0), ValueError, r"negative derivative index in \(-1, 0, 0\)"),
    ((0, 2, -1), ValueError, "negative derivative index"),
    ((1, 0), ValueError, r"derivative index needs 3 entries, got \(1, 0\)"),
    ((0, 0, 0, 0), ValueError, "derivative index needs 3 entries"),
    ((0.0, 1, 0), TypeError, "derivative index entries must be ints"),
    ((True, 0, 0), TypeError, r"must be ints, got \(True, 0, 0\)"),
    ((0, 0, Fraction(1)), TypeError, "derivative index entries must be ints"),
])
def test_make_stencil_rejects_a_derivative_index_that_is_no_exponent(alpha, error, message):
    # Read unchecked, alpha = (-1, 0, 0) assembles x1*f from a bound-1 to a bound-2 slot.
    term = (0, 0, 0, 0, alpha, 1)
    with pytest.raises(error, match=message):
        make_stencil([term])
    with pytest.raises(error, match=message):
        LinOpMatrix.from_operator(GradedSpace([Slot("f", "scalar", 1)]),
                                  GradedSpace([Slot("g", "scalar", 2)]), [term])


def test_make_stencil_takes_a_derivative_index_of_any_sequence():
    assert make_stencil([(0, 0, 0, 0, [0, 1, 0], Fraction(2, 4))]) == \
        ((0, 0, 0, 0, (0, 1, 0), Fraction(1, 2)),)


@pytest.mark.parametrize("alpha,error", [((-1, 0, 0), ValueError), ((True, 0, 0), TypeError)])
def test_compose_checks_each_derivative_index_before_adding(alpha, error):
    # Added unchecked, (-1, 0, 0) before d1 composed to the identity
    # ((0, 0, 0, 0, (0, 0, 0), 1),) and (True, 0, 0) to (2, 0, 0).
    bad = [(0, 0, 0, 0, alpha, 1)]
    d1 = operator_stencil("grad")[:1]
    with pytest.raises(error, match="derivative index"):
        compose(bad, d1)
    with pytest.raises(error, match="derivative index"):
        compose(d1, bad)


@pytest.mark.parametrize("factor", [True, 0.5], ids=["bool", "float"])
def test_compose_refuses_a_factor_that_is_no_exact_rational(factor):
    # Unchecked, a bool factor composed as the int 1.
    bad = [(0, 0, 0, 0, (0, 0, 0), factor)]
    d1 = operator_stencil("grad")[:1]
    with pytest.raises(TypeError, match="exact rational"):
        compose(bad, d1)
    with pytest.raises(TypeError, match="exact rational"):
        compose(d1, bad)


def test_composed_stencils_give_composed_matrices():
    # div o grad is the Laplacian: three second derivatives
    laplace = compose(operator_stencil("div"), operator_stencil("grad"))
    assert sorted(t[4] for t in laplace) == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
    # curl o grad vanishes term by term
    assert compose(operator_stencil("curl"), operator_stencil("grad")) == ()


# sha256 of `complex --report` files, frozen from the one-hot operator
# assembly that the stencils replaced.
_FROZEN_REPORTS = {
    (3, "none"): "b25a25038b6b2aa98e60008cfc9069f4686aa2331efb2fcdd5d999e2747eff6b",
    (3, "halfway"): "ee74815a8c247a7c61d318c7e4cde74484f698c2ab92a4e6e1fc357a91e71d36",
    (3, "elasticity"): "d538d2ab000549afb57608f2f8fbc9d3924957977e4656133515135038969fd0",
    (4, "none"): "365836f15cbf7dda8dc392ffaabe4f77b014b493f01b59183d10bf0a671378b4",
    (4, "halfway"): "e36a69e1d2fb8d902e84d2a6071a5c15c32aacf85bc1610267b4388ca3037d71",
    (4, "elasticity"): "5abd74ba0aa8d5d2e4a781f43852664b31084745938c1d5c44cd76c49e96024f",
    (5, "none"): "ebe93b21c055addfd1fa19103b482ee2a2b66e827ca1aba3ed937be3bb7585bd",
    (5, "halfway"): "4dd506771c9b9bb1ea0f72d907cd60556a2d5391c266ecfb8cce60881f50e0d0",
    (5, "elasticity"): "a5c52f81d79e421b3e7b639b68ec1afdad0a6a7a9b6e5aabb1b3d76cee552b67",
    (6, "none"): "b118a16ad44726bfeb890547afde6266b948c23f3c6facca3ad438ddb805c44f",
    (6, "halfway"): "3ebce6814c396e89f36e75bfcf51de93ef701fef5ad2f3afc4877f7cd70361c9",
    (6, "elasticity"): "43f98399248c305e690286d2de1e1570a4127f1dbc80bd4e5f695c8a12e67f4d",
}


@pytest.mark.parametrize("degree,derive", sorted(_FROZEN_REPORTS))
def test_complex_report_is_byte_identical(tmp_path, capsys, degree, derive):
    path = tmp_path / "report.json"
    rc = main(["complex", "--degree", str(degree), "--derive", derive,
               "--report", str(path)])
    assert rc == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        _FROZEN_REPORTS[degree, derive]
