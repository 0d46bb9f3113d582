"""Tests for graded spaces, operator matrices, complexes, and reductions."""

from fractions import Fraction

import pytest

from strainkit import exactlin
from strainkit.calculus import curl, curl_curl, div, div_sym, grad, sym_grad
from strainkit.complexes import (ChainComplex, GradedSpace, LinOpMatrix,
                                 OPERATOR_IDS, SkewMat4, Slot,
                                 build_elasticity_complex,
                                 build_grad_curl_div_complex, build_w_complex,
                                 derive_elasticity, interior_product,
                                 lambda2_split, matrix_of, random_skew4,
                                 random_vec4, schur_reduce, verify_complex,
                                 wedge_with_vector)
from strainkit.connection import WField, WOneForm, w_curl, w_div, w_grad
from strainkit.errors import SingularBlockError
from strainkit.fields import SymField, VecField, random_field
from strainkit.poly import Poly3, monomials_up_to
from strainkit.stencils import operator_stencil

F = Fraction


def dense_rank_reference(mat: LinOpMatrix) -> int:
    """Row-reduce a dense copy of the matrix; independent of exactlin."""
    nrows, ncols = mat.shape
    rows = [[mat.entry(i, j) for j in range(ncols)] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


# -- slots and graded spaces --------------------------------------------------


def test_slot_dimensions():
    assert Slot("a", "scalar", 2).dim == 10
    assert Slot("a", "vec", 2).dim == 30
    assert Slot("a", "sym", 1).dim == 24
    assert Slot("a", "mat", 0).dim == 9
    assert Slot("a", "skew", 3).dim == 60
    assert Slot("a", "vec", -1).dim == 0


def test_slot_validation():
    with pytest.raises(ValueError):
        Slot("a", "spinor", 2)
    with pytest.raises(ValueError):
        Slot("a", "vec", -2)


def test_graded_space_layout():
    space = GradedSpace([Slot("u", "vec", 1), Slot("p", "scalar", 2)])
    assert space.dim == 12 + 10
    assert space.offsets == [0, 12]
    assert space.slot_index("p") == 1
    assert space.slot_range("u") == range(0, 12)
    assert space.slot_range("p") == range(12, 22)
    with pytest.raises(KeyError):
        space.slot_index("q")
    with pytest.raises(ValueError):
        GradedSpace([Slot("u", "vec", 1), Slot("u", "scalar", 1)])


def test_basis_and_coords_are_inverse():
    """One-hot fields land on consecutive indices in component-major order."""
    space = GradedSpace([Slot("u", "vec", 1), Slot("s", "sym", 1),
                         Slot("f", "scalar", 0)])
    zeros = (VecField.zero(), SymField.zero(), Poly3())
    wrap = {"vec": VecField, "sym": SymField, "scalar": lambda parts: parts[0]}
    index = 0
    for k, slot in enumerate(space.slots):
        for c in range(slot.ncomp):
            for exp in monomials_up_to(slot.bound):
                parts = tuple(Poly3.monomial(exp) if i == c else Poly3()
                              for i in range(slot.ncomp))
                values = zeros[:k] + (wrap[slot.kind](parts),) + zeros[k + 1:]
                assert space.to_coords(values) == {index: F(1)}
                index += 1
    assert index == space.dim


def test_to_coords_rejects_out_of_bound_terms():
    space = GradedSpace([Slot("f", "scalar", 1)])
    with pytest.raises(ValueError):
        space.to_coords((Poly3.monomial((2, 0, 0)),))
    with pytest.raises(ValueError):
        space.to_coords(())


def test_to_coords_rejects_a_field_of_another_kind():
    space = GradedSpace([Slot("u", "vec", 1), Slot("s", "sym", 1)])
    with pytest.raises(ValueError):
        space.to_coords((SymField.zero(), SymField.zero()))
    with pytest.raises(ValueError):
        space.to_coords((VecField.zero(), VecField.zero()))


# -- operator matrices --------------------------------------------------------

_APPLY = {
    "grad": lambda vals: (grad(vals[0]),),
    "curl": lambda vals: (curl(vals[0]),),
    "div": lambda vals: (div(vals[0]),),
    "sym_grad": lambda vals: (sym_grad(vals[0]),),
    "curl_curl": lambda vals: (curl_curl(vals[0]),),
    "div_sym": lambda vals: (div_sym(vals[0]),),
}


def _w_apply(op_id, vals):
    if op_id == "w_grad":
        form = w_grad(WField(vals[0], vals[1]))
        return (form.sigma, form.xi)
    if op_id == "w_curl":
        form = w_curl(WOneForm(vals[0], vals[1]))
        return (form.sigma, form.xi)
    f = w_div(WOneForm(vals[0], vals[1]))
    return (f.x, f.y)


def _random_domain_value(slot: Slot, seed: int):
    return random_field(slot.kind if slot.kind != "skew" else "vec",
                        slot.bound, seed)


def test_matrix_matches_operator_on_random_fields():
    for op_id in OPERATOR_IDS:
        mat = matrix_of(op_id, 2)
        for trial in range(50):
            vals = tuple(_random_domain_value(slot, 37 * trial + 5)
                         for slot in mat.domain.slots)
            if op_id in _APPLY:
                out = _APPLY[op_id](vals)
            else:
                out = _w_apply(op_id, vals)
            assert mat.apply_coords(mat.domain.to_coords(vals)) == \
                mat.codomain.to_coords(out), op_id


def test_matrix_of_validation():
    with pytest.raises(ValueError):
        matrix_of("grad", 0)
    with pytest.raises(ValueError):
        matrix_of("curl_curl", 1)
    with pytest.raises(ValueError):
        matrix_of("hessian", 2)


def test_gradient_matrix_frozen():
    mat = matrix_of("grad", 1)
    assert mat.shape == (3, 4)
    assert mat.rank() == 3
    assert mat.kernel_dim() == 1


def test_strain_compatibility_matrix_frozen():
    mat = matrix_of("curl_curl", 2)
    assert mat.shape == (6, 60)
    assert mat.rank() == 6
    assert mat.kernel_dim() == 54


def test_rigid_kernels_are_six_dimensional():
    for d in (1, 2, 3):
        assert matrix_of("sym_grad", d).kernel_dim() == 6
        assert matrix_of("w_grad", d).kernel_dim() == 6


def test_rank_matches_dense_reference():
    for op_id, degree in (("grad", 2), ("curl", 2), ("div_sym", 2),
                          ("w_grad", 1)):
        mat = matrix_of(op_id, degree)
        assert mat.rank() == dense_rank_reference(mat)


def test_elimination_row_updates_frozen(monkeypatch):
    """Pins the cost of the pivot rule, which no answer reveals.

    Each call of `exactlin._subtract` is one row update.  The counts are
    deterministic; pivoting each column on its first holder instead of the
    shortest one makes about 15 % more updates and fails here.
    """
    calls = [0]
    subtract = exactlin._subtract

    def counting(*args):
        calls[0] += 1
        return subtract(*args)

    monkeypatch.setattr(exactlin, "_subtract", counting)
    for degree, want in ((5, 1922), (7, 4897)):
        calls[0] = 0
        for build in (build_grad_curl_div_complex, build_elasticity_complex,
                      build_w_complex):
            for m in build(degree).maps:
                m.rank()
        assert calls[0] == want, degree
    calls[0] = 0
    derive_elasticity(5)
    assert calls[0] == 1867


def test_matrix_constructor_and_compose_validation():
    gradm = matrix_of("grad", 2)
    with pytest.raises(ValueError):
        LinOpMatrix(gradm.domain, gradm.codomain, gradm.cols[:-1])
    with pytest.raises(ValueError):
        gradm.compose(gradm)


def test_curl_of_grad_matrix_is_zero():
    gradm = matrix_of("grad", 3)
    curlm = matrix_of("curl", 2)
    assert curlm.compose(gradm).is_zero()


def test_proportionality():
    mat = matrix_of("curl", 2)
    doubled = LinOpMatrix(mat.domain, mat.codomain,
                          [{i: 2 * v for i, v in col.items()} for col in mat.cols])
    assert doubled.proportionality(mat) == 2
    assert mat.proportionality(doubled) == F(1, 2)
    assert mat.proportionality(mat) == 1

    dented = [dict(col) for col in mat.cols]
    j = next(k for k, col in enumerate(dented) if col)
    dented[j].pop(next(iter(dented[j])))
    assert LinOpMatrix(mat.domain, mat.codomain, dented).proportionality(mat) is None

    zero = LinOpMatrix(mat.domain, mat.codomain, [{} for _ in mat.cols])
    assert zero.proportionality(zero) == 1
    assert mat.proportionality(zero) is None
    assert mat.proportionality(matrix_of("grad", 2)) is None


def test_proportionality_of_int_matrices_is_exact():
    one = GradedSpace([Slot("a", "scalar", 0)])
    two = GradedSpace([Slot("a", "scalar", 0), Slot("b", "scalar", 0)])
    half = LinOpMatrix(one, one, [{0: 1}]).proportionality(LinOpMatrix(one, one, [{0: 2}]))
    assert half == F(1, 2) and isinstance(half, F)
    # A float ratio 1/3 times 3*10**17 + 1 rounds to 10**17 and hides the mismatch.
    near = LinOpMatrix(two, two, [{0: 1}, {1: 10 ** 17}])
    third = LinOpMatrix(two, two, [{0: 3}, {1: 3 * 10 ** 17 + 1}])
    assert near.proportionality(third) is None


@pytest.mark.parametrize("entry", [True, 0.5], ids=["bool", "float"])
def test_matrix_entries_take_exact_rationals_only(entry):
    """A bool entry is not read as 1, and a float raises TypeError, not
    AttributeError: lowest_terms reads non-int entries through poly._canonical."""
    one = GradedSpace([Slot("a", "scalar", 0)])
    two = GradedSpace([Slot("a", "scalar", 0), Slot("b", "scalar", 0)])
    with pytest.raises(TypeError, match="exact rational"):
        LinOpMatrix(one, one, [{0: entry}])
    with pytest.raises(TypeError, match="exact rational"):
        LinOpMatrix(two, one, [{0: F(1, 2)}, {0: entry}])
    assert LinOpMatrix(one, one, [{0: F(1, 10)}]).den == 10


# -- standard complexes -------------------------------------------------------


def test_chain_complex_validation():
    gcd = build_grad_curl_div_complex(2)
    with pytest.raises(ValueError):
        ChainComplex(name="bad", spaces=gcd.spaces, maps=gcd.maps[:-1])
    with pytest.raises(ValueError):
        ChainComplex(name="bad", spaces=gcd.spaces,
                     maps=[gcd.maps[1], gcd.maps[1], gcd.maps[2]])


def test_builder_degree_floors():
    with pytest.raises(ValueError):
        build_grad_curl_div_complex(1)
    with pytest.raises(ValueError):
        build_elasticity_complex(2)
    with pytest.raises(ValueError):
        build_w_complex(2)


def test_grad_curl_div_complex_frozen():
    report = verify_complex(build_grad_curl_div_complex(3))
    assert [sum(s["dim"] for s in info) for info in report.slot_info] == \
        [35, 60, 30, 4]
    assert report.ranks == [34, 26, 4]
    assert report.kernel_dims == [1, 34, 26]
    assert report.composition_residuals == ["0", "0"]
    assert report.defects == [0, 0]
    assert report.compositions_zero and report.is_exact_interior


def test_elasticity_complex_frozen():
    report = verify_complex(build_elasticity_complex(3))
    assert [sum(s["dim"] for s in info) for info in report.slot_info] == \
        [105, 120, 24, 3]
    assert report.ranks == [99, 21, 3]
    assert report.kernel_dims == [6, 99, 21]
    assert report.compositions_zero and report.is_exact_interior


def test_coupled_complex_frozen():
    report = verify_complex(build_w_complex(3))
    assert [sum(s["dim"] for s in info) for info in report.slot_info] == \
        [165, 270, 126, 15]
    assert report.ranks == [159, 111, 15]
    assert report.kernel_dims == [6, 159, 111]
    assert report.compositions_zero and report.is_exact_interior


def test_verify_complex_reports_nonzero_composition():
    d = 3
    spaces = [
        GradedSpace([Slot("f", "scalar", d + 1)]),
        GradedSpace([Slot("v", "vec", d)]),
        GradedSpace([Slot("g", "scalar", d - 1)]),
    ]
    maps = [
        LinOpMatrix.from_operator(spaces[0], spaces[1], operator_stencil("grad"),
                                  name="grad"),
        LinOpMatrix.from_operator(spaces[1], spaces[2], operator_stencil("div"),
                                  name="div"),
    ]
    report = verify_complex(ChainComplex(name="laplace", spaces=spaces, maps=maps))
    assert not report.compositions_zero
    assert report.composition_residuals[0].startswith("nonzero composition at stage 0")


def test_report_to_dict_shape():
    report = verify_complex(build_grad_curl_div_complex(2))
    data = report.to_dict()
    assert set(data) == {"name", "slots", "ranks", "kernel_dims",
                         "composition_residuals", "exactness_defects"}
    assert data["exactness_defects"] == [0, 0]
    assert data["slots"][0][0]["kind"] == "scalar"


# -- Schur reduction ----------------------------------------------------------


def _toy_complex():
    dom = GradedSpace([Slot("a", "scalar", 0), Slot("b", "scalar", 0)])
    cod = GradedSpace([Slot("c", "scalar", 0), Slot("d", "scalar", 1)])
    cols = [{0: F(0)}, {0: F(2)}]
    cols = [dict(col) for col in cols]
    return ChainComplex(name="toy", spaces=[dom, cod],
                        maps=[LinOpMatrix(dom, cod, cols, name="m")])


def test_schur_reduce_rejects_non_square_block():
    toy = _toy_complex()
    with pytest.raises(SingularBlockError) as info:
        schur_reduce(toy, 0, ["a"], ["d"])
    assert info.value.size == 1 and info.value.rank == -1


def test_schur_reduce_rejects_singular_block():
    toy = _toy_complex()
    with pytest.raises(SingularBlockError) as info:
        schur_reduce(toy, 0, ["a"], ["c"])
    assert info.value.rank == 0 and info.value.size == 1


def test_schur_reduce_stage_out_of_range():
    with pytest.raises(ValueError):
        schur_reduce(_toy_complex(), 1, ["a"], ["c"])


def test_schur_reduce_invertible_block_on_toy():
    reduced = schur_reduce(_toy_complex(), 0, ["b"], ["c"])
    assert [s.label for s in reduced.spaces[0].slots] == ["a"]
    assert [s.label for s in reduced.spaces[1].slots] == ["d"]
    assert reduced.maps[0].is_zero()
    assert reduced.name == "toy (reduced)"
    again = schur_reduce(reduced, 0, [], [])
    assert again.name == "toy (reduced)"


def test_schur_reduction_preserves_defects():
    full = build_w_complex(3)
    halfway = schur_reduce(full, 1, ["xi"], ["theta1"])
    full_report = verify_complex(full)
    half_report = verify_complex(halfway)
    assert half_report.compositions_zero
    assert half_report.defects == full_report.defects
    assert half_report.kernel_dims[0] == full_report.kernel_dims[0]


def test_derivation_lands_on_hand_coded_complex():
    result = derive_elasticity(3)
    assert [f == 1 for f in result.stage_factors] == [True, True, True]
    assert result.factors_ok
    assert result.defects_preserved

    assert [space.dim for space in result.halfway.spaces] == [165, 180, 36, 15]
    shape = [sum(s.ncomp for s in space.slots) for space in result.halfway.spaces]
    assert shape == [6, 9, 9, 6]

    for got, want in zip(result.reduced.spaces, result.hand_coded.spaces):
        assert [(s.kind, s.bound) for s in got.slots] == \
            [(s.kind, s.bound) for s in want.slots]
    assert [space.dim for space in result.reduced.spaces] == [105, 120, 24, 3]

    data = result.to_dict()
    assert data["stage_factors"] == ["1", "1", "1"]
    assert data["defects_preserved"] is True


# -- splitting of two-forms on R^4 --------------------------------------------


def test_skew4_validation():
    with pytest.raises(ValueError):
        SkewMat4(((F(0),),))
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[0][1] = F(1)
    with pytest.raises(ValueError):
        SkewMat4(tuple(tuple(r) for r in rows))


def test_wedge_and_interior_product_small_cases():
    omega = SkewMat4.from_wedge((1, 0, 0, 0), (0, 1, 0, 0))
    assert omega.entry(1, 2) == 1 and omega.entry(2, 1) == -1
    assert interior_product((1, 0, 0, 0), omega) == (0, 1, 0, 0)
    three_form = wedge_with_vector((0, 0, 1, 0), omega)
    assert three_form[(1, 2, 3)] == 1
    assert all(v == 0 for key, v in three_form.items() if key != (1, 2, 3))


def test_lambda2_split_hand_example():
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[0][1], rows[1][0] = F(1), F(-1)
    rows[2][3], rows[3][2] = F(1), F(-1)
    omega = SkewMat4(tuple(tuple(r) for r in rows))
    alpha, beta = lambda2_split((1, 0, 0, 0), omega)
    assert alpha == SkewMat4.from_wedge((1, 0, 0, 0), (0, 1, 0, 0))
    assert beta.entry(3, 4) == 1 and beta.entry(1, 2) == 0


def test_lambda2_split_exact_on_int_input():
    # v . omega = (-2, 1, 3, 0) and |v|^2 = 6, so a = (-1/3, 1/6, 1/2, 0).
    v = (1, 2, 0, -1)
    omega = SkewMat4(((0, 1, 2, 0), (-1, 0, 0, 0), (-2, 0, 0, 1), (0, 0, -1, 0)))
    assert interior_product(v, omega) == (-2, 1, 3, 0)
    alpha, beta = lambda2_split(v, omega)
    assert all(type(c) in (int, Fraction)
               for part in (alpha, beta) for row in part.entries for c in row)
    assert alpha == SkewMat4.from_wedge(v, (Fraction(-1, 3), Fraction(1, 6),
                                            Fraction(1, 2), 0))
    assert (alpha.entry(1, 2), alpha.entry(2, 4), beta.entry(2, 3)) == \
        (Fraction(5, 6), Fraction(1, 6), -1)
    assert (alpha + beta - omega).is_zero()
    assert all(c == 0 for c in interior_product(v, beta))
    assert all(c == 0 for c in wedge_with_vector(v, alpha).values())


def test_lambda2_split_random_two_forms():
    for seed in range(30):
        v = random_vec4(seed)
        omega = random_skew4(seed + 1000)
        alpha, beta = lambda2_split(v, omega)
        assert (alpha + beta - omega).is_zero()
        assert all(c == 0 for c in interior_product(v, beta))
        assert all(c == 0 for c in wedge_with_vector(v, alpha).values())
        doubled_alpha, doubled_beta = lambda2_split([2 * c for c in v], omega)
        assert (doubled_alpha - alpha).is_zero() and (doubled_beta - beta).is_zero()
        again_alpha, residue = lambda2_split(v, alpha)
        assert (again_alpha - alpha).is_zero() and residue.is_zero()
        leftover, again_beta = lambda2_split(v, beta)
        assert leftover.is_zero() and (again_beta - beta).is_zero()


def test_lambda2_split_rejects_zero_direction():
    with pytest.raises(ValueError):
        lambda2_split((0, 0, 0, 0), random_skew4(3))
