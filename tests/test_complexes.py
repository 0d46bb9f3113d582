"""Tests for graded spaces, operator matrices, complexes, and reductions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strainkit import complexes, exactlin
from strainkit.calculus import curl, curl_curl, div, div_sym, grad, sym_grad
from strainkit.complexes import (SCHUR_CANCELLATIONS, ChainComplex, GradedSpace,
                                 LinOpMatrix, OPERATOR_IDS, SkewMat4, Slot, _chain,
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
from test_int_matrices import solve_calls
from test_suites import _build_perturbed_w_complex
from strainkit.stencils import (OPERATORS, compose, coupled_split_stencils,
                               operator_stencil)

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


@pytest.mark.parametrize("value", [True, 2.0, 1.5])
def test_degrees_and_bounds_are_ints(value):
    """matrix_of("grad", True) once built the degree-1 matrix, and
    Slot("a", "vec", 1.5).dim was 19.0."""
    with pytest.raises(TypeError, match="degree must be an int"):
        matrix_of("grad", value)
    with pytest.raises(TypeError, match="degree must be an int"):
        build_elasticity_complex(value)
    with pytest.raises(TypeError, match="bound must be an int"):
        Slot("a", "vec", value)


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
    """Pins the cost of the pivot order and of clearing, which no answer
    reveals.

    A step is one update ``a*vector - b*pivot`` of `exactlin._reduce`.  The
    counts are deterministic; keying each pivot on its smallest index
    instead of its largest makes 2660 and 6625 steps and fails here.
    """
    steps = [0]
    reduce = exactlin._reduce

    def counting(vectors):
        pivots, n = reduce(vectors)
        steps[0] += n
        return pivots, n

    monkeypatch.setattr(exactlin, "_reduce", counting)
    for degree, want in ((5, 1892), (7, 4809)):
        steps[0] = 0
        for build in (build_grad_curl_div_complex, build_elasticity_complex,
                      build_w_complex):
            for m in build(degree).maps:
                m.rank()
        assert steps[0] == want, degree
    # `verify_complex` skips the columns that the previous map's pivots
    # clear, so the same maps take 329 and 849 steps there.
    for degree, want in ((5, 329), (7, 849)):
        steps[0] = 0
        for build in (build_grad_curl_div_complex, build_elasticity_complex,
                      build_w_complex):
            verify_complex(build(degree))
        assert steps[0] == want, degree
    # The Schur blocks are solved as their constant factors Phi (see
    # test_derivation_solves_only_the_constant_factors), so this count holds
    # the cleared ranks of the derivation's two verifications, of the full
    # and the reduced complex, and three solves of sizes 9, 3 and 3.
    steps[0] = 0
    derive_elasticity(5)
    assert steps[0] == 311


@pytest.mark.parametrize("degree", [3, 4])
def test_a_nonzero_composition_clears_nothing(monkeypatch, degree):
    """The perturbed coupled complex composes to nonzero at stage 0 and to
    zero at stage 1: only the last map loses columns, one per pivot of the
    middle map."""
    c = _build_perturbed_w_complex(degree)
    seen = []  # the column count of each rank
    sparse_rank = exactlin.sparse_rank

    def recording(cols, nrows, lows=None):
        seen.append(len(cols))
        return sparse_rank(cols, nrows, lows)

    monkeypatch.setattr(exactlin, "sparse_rank", recording)
    report = verify_complex(c)
    assert report.composition_residuals[0] != "0"
    assert report.composition_residuals[1] == "0"
    dims = [m.domain.dim for m in c.maps]
    assert seen == [dims[0], dims[1], dims[2] - report.ranks[1]]
    assert report.ranks == [m.rank() for m in c.maps]


def test_a_toy_complex_that_does_not_compose_to_zero_keeps_its_ranks():
    """[1] -> [1] -> [1]: the pivot of the first map sits at the one column
    of the second, and clearing it with no zero composition would report
    rank 0 for a map of rank 1."""
    spaces = [GradedSpace([Slot(f"s{k}", "scalar", 0)]) for k in range(3)]
    maps = [LinOpMatrix(spaces[k], spaces[k + 1], [{0: 1}], f"d{k}") for k in range(2)]
    report = verify_complex(ChainComplex("toy", spaces, maps))
    assert report.composition_residuals == ["nonzero composition at stage 0 (max |entry| 1)"]
    assert report.ranks == [1, 1]


@st.composite
def _integer_complexes(draw):
    """A small integer complex with d o d = 0 and its known ranks.

    In standard form, map k sends basis vector r_{k-1} + i of space k to
    basis vector i of space k+1 for i < r_k, so the first r_{k-1} vectors
    of space k, the image of map k-1, go to zero.  Each space is then
    changed by a random unimodular U_k, a permutation followed by
    elementary operations, and map k becomes U_{k+1} D_k U_k^-1;
    compositions stay zero.
    """
    nmaps = draw(st.integers(1, 4))
    dims, ranks = [draw(st.integers(1, 5))], []
    for _ in range(nmaps):
        room = dims[-1] - (ranks[-1] if ranks else 0)
        dim = draw(st.integers(1, 5))
        ranks.append(draw(st.integers(0, min(room, dim))))
        dims.append(dim)
    perms = [draw(st.permutations(range(n))) for n in dims]
    ops = [draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   st.integers(-3, 3)), max_size=3 * n))
           for n in dims]
    mats = []
    for k in range(nmaps):
        before = ranks[k - 1] if k else 0
        rows = [[0] * dims[k] for _ in range(dims[k + 1])]
        for i in range(ranks[k]):
            rows[perms[k + 1][i]][perms[k][before + i]] = 1
        for t, s, c in ops[k + 1]:  # U_{k+1} D: row t += c * row s
            if t != s:
                rows[t] = [x + c * y for x, y in zip(rows[t], rows[s])]
        for t, s, c in ops[k]:  # D U_k^-1: column s -= c * column t
            if t != s:
                for row in rows:
                    row[s] -= c * row[t]
        mats.append(rows)
    return dims, ranks, mats


@settings(max_examples=80, deadline=None, database=None)
@given(_integer_complexes())
def test_cleared_ranks_of_random_integer_complexes(cx):
    dims, ranks, mats = cx
    spaces = [GradedSpace([Slot(f"s{i}", "scalar", 0) for i in range(n)]) for n in dims]
    maps = [LinOpMatrix(spaces[k], spaces[k + 1],
                        [{i: row[j] for i, row in enumerate(rows)} for j in range(dims[k])],
                        f"d{k}")
            for k, rows in enumerate(mats)]
    report = verify_complex(ChainComplex("random", spaces, maps))
    assert report.compositions_zero
    assert report.ranks == [dense_rank_reference(m) for m in maps] == ranks


def _ranks_from_dimensions(cx: ChainComplex, kernel: int) -> list[int]:
    """The ranks of an exact complex with a kernel of the given dimension
    at its first space, from the dimensions of its spaces alone."""
    dims = [space.dim for space in cx.spaces]
    ranks = [dims[0] - kernel]
    for dim in dims[1:-1]:
        ranks.append(dim - ranks[-1])
    return ranks


@pytest.mark.parametrize("degree", range(3, 10))
def test_ranks_equal_the_dimension_counts(degree):
    """A differential check of exact rank that needs no elimination: each
    truncated complex is exact in its interior and onto at its end, with
    the constants (de Rham) or the six rigid motions as its kernel.  The
    ranks of `verify_complex`, which clears columns, equal those of
    `LinOpMatrix.rank`, which reduces them all."""
    derived = derive_elasticity(degree)
    for cx, kernel in ((build_grad_curl_div_complex(degree), 1),
                       (build_elasticity_complex(degree), 6),
                       (build_w_complex(degree), 6),
                       (derived.halfway, 6), (derived.reduced, 6)):
        ranks = [m.rank() for m in cx.maps]
        assert ranks == _ranks_from_dimensions(cx, kernel), cx.name
        assert ranks[-1] == cx.spaces[-1].dim, cx.name
        assert verify_complex(cx).ranks == ranks, cx.name


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_derivation_solves_only_the_constant_factors(monkeypatch, degree):
    """Cost pin: every cancelled block of the derivation is phi = Phi (x) I_N,
    so `schur_reduce` solves the constant Phi, never phi itself, whose size
    grows with the degree (756, 360 and 168 at degree 7)."""
    calls = solve_calls(monkeypatch)
    derive_elasticity(degree)
    assert calls == [(9, 9), (3, 3), (3, 3)]


def test_warm_derivation_builds_three_fractions(monkeypatch):
    """Cost pin, not a correctness check: once the stencil and monomial
    caches are warm, derive_elasticity(5) builds exactly its three stage
    factors as Fractions.  Assembly, reduction, the Schur solves and the
    proportionality comparisons run on ints; back-substituting in Fraction
    and dividing per entry built 2070.

    Both constructors are counted: from Python 3.12 on, Fraction arithmetic
    builds its results through `_from_coprime_ints`, not `__new__`.
    """
    derive_elasticity(5)
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):
        coprime = vars(Fraction)["_from_coprime_ints"].__func__

        def counting_coprime(cls, numerator, denominator):
            built[0] += 1
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    result = derive_elasticity(5)
    assert built[0] == 3
    assert result.stage_factors == [1, 1, 1]


def test_matrix_constructor_and_compose_validation():
    gradm = matrix_of("grad", 2)
    with pytest.raises(ValueError):
        LinOpMatrix(gradm.domain, gradm.codomain, gradm.cols[:-1])
    with pytest.raises(ValueError):
        gradm.compose(gradm)


def _trusted_maps(degree):
    """Every matrix built through `LinOpMatrix._of` at a degree: the maps of
    the three standard complexes and of the halfway and reduced complexes of
    the derivation, and the two compositions `verify_complex` forms of each."""
    derived = derive_elasticity(degree)
    for c in (build_grad_curl_div_complex(degree), build_elasticity_complex(degree),
              derived.full, derived.halfway, derived.reduced):
        yield from c.maps
        yield from (c.maps[k + 1].compose(c.maps[k]) for k in range(len(c.maps) - 1))


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_trusted_door_matches_public_constructor(degree):
    """The trusted door keeps what the checked one would make of the same
    columns: nonzero int entries over den in lowest terms."""
    maps = list(_trusted_maps(degree))
    assert len(maps) == 5 * (3 + 2)
    for m in maps:
        assert all(type(v) is int and v for col in m.cols for v in col.values()), m.name
        public = LinOpMatrix(m.domain, m.codomain, m.cols, m.name, m.den)
        assert public.den == m.den, m.name
        assert public.cols == m.cols, m.name


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


@pytest.mark.parametrize("value", [True, 0.5], ids=["bool", "float"])
def test_apply_coords_takes_exact_rationals_only(value):
    m = matrix_of("grad", 3)
    with pytest.raises(TypeError, match="expected an exact rational"):
        m.apply_coords({1: value})
    with pytest.raises(TypeError, match="expected an exact rational"):
        m.apply_coords({5: 3, 1: value})


def test_apply_coords_reads_ints_and_fractions_as_before():
    """The image is canonical: an int where integral, else a Fraction."""
    def typed(coords):
        return {i: (v, type(v)) for i, v in coords.items()}

    m = matrix_of("grad", 3)
    assert typed(m.apply_coords({1: 2})) == {20: (2, int)}
    assert typed(m.apply_coords({1: F(1, 2), 5: 3})) == \
        {20: (F(1, 2), F), 11: (3, int), 22: (3, int)}
    assert typed(m.apply_coords({5: F(4, 2)})) == {11: (2, int), 22: (2, int)}
    one = GradedSpace([Slot("a", "scalar", 0)])
    half = LinOpMatrix(one, one, [{0: F(1, 2)}])
    assert typed(half.apply_coords({0: F(2, 3)})) == {0: (F(1, 3), F)}
    assert typed(half.apply_coords({0: 4})) == {0: (2, int)}


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


# -- compositions decided on stencils ----------------------------------------


def mul_calls(monkeypatch) -> list[int]:
    """Count the matrix products `exactlin.mul_cols` makes from here on."""
    calls = [0]
    mul = exactlin.mul_cols

    def counting(a_cols, b_cols):
        calls[0] += 1
        return mul(a_cols, b_cols)

    monkeypatch.setattr(exactlin, "mul_cols", counting)
    return calls


def _slot_lists(c: ChainComplex, degree: int) -> list:
    """The (label, kind, bound - degree) slot lists `_chain` built c from."""
    return [[(s.label, s.kind, s.bound - degree) for s in space.slots]
            for space in c.spaces]


def _doubled_first_term(stencil):
    s, c, t, d, alpha, factor = stencil[0]
    return ((s, c, t, d, alpha, 2 * factor),) + stencil[1:]


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_standard_complexes_and_derivation_multiply_no_matrices(monkeypatch, degree):
    """Cost pin: every composition of the three standard complexes and of the
    reduced complex is decided on stencils, with no matrix product."""
    calls = mul_calls(monkeypatch)
    result = derive_elasticity(degree)
    reports = [verify_complex(build(degree)) for build in (
        build_grad_curl_div_complex, build_elasticity_complex, build_w_complex)]
    assert calls == [0]
    assert all(r.compositions_zero for r in reports + [result.full_report,
                                                        result.reduced_report])


def test_each_stencil_pair_is_decided_once(monkeypatch):
    """`stencils.compose` builds Fractions, so a warm process must not rerun it:
    the coupled, elasticity and de Rham pairs are composed once each, and the
    reduced complex reuses the elasticity pairs."""
    composed = []
    real = complexes.compose
    monkeypatch.setattr(complexes, "compose",
                        lambda outer, inner: composed.append(1) or real(outer, inner))
    complexes._composes_to_zero.cache_clear()
    for _ in range(2):
        derive_elasticity(3)
        verify_complex(build_grad_curl_div_complex(3))
    assert len(composed) == 6


def test_only_assembled_maps_carry_a_stencil():
    gradm = matrix_of("grad", 3)
    assert gradm.stencil == operator_stencil("grad")
    public = LinOpMatrix(gradm.domain, gradm.codomain, gradm.cols, "grad", gradm.den)
    trusted = LinOpMatrix._of(gradm.domain, gradm.codomain, gradm.cols, "grad", gradm.den)
    composed = matrix_of("curl", 2).compose(gradm)
    assert public.stencil is None and trusted.stencil is None and composed.stencil is None
    full = build_w_complex(3)
    assert [m.stencil for m in full.maps] == list(coupled_split_stencils())
    # schur_reduce rebuilds the stage map and its neighbours; the map it
    # leaves alone keeps its spaces and so its stencil.
    for stage, dom_labels, cod_labels in SCHUR_CANCELLATIONS:
        reduced = schur_reduce(full, stage, dom_labels, cod_labels)
        assert [m.stencil is None for m in reduced.maps] == \
            [abs(k - stage) <= 1 for k in range(3)], stage


def test_reduced_maps_carry_the_scaled_hand_coded_stencils(monkeypatch):
    """A reduced map equal to f h carries f stencil(h): against a hand-coded
    complex built at twice the operators the factors are 1/2, and the
    scaled stencils are the operator tables again."""
    ids = ("sym_grad", "curl_curl", "div_sym")
    slots = _slot_lists(build_elasticity_complex(3), 3)

    def doubled(degree):
        return _chain("elasticity", degree, slots, ids,
                      [tuple((*t[:5], 2 * t[5]) for t in operator_stencil(op_id))
                       for op_id in ids])

    assert [m.stencil for m in derive_elasticity(3).reduced.maps] == \
        [operator_stencil(op_id) for op_id in ids]
    monkeypatch.setattr(complexes, "build_elasticity_complex", doubled)
    calls = mul_calls(monkeypatch)
    result = derive_elasticity(3)
    assert result.stage_factors == [F(1, 2)] * 3
    assert [m.stencil for m in result.reduced.maps] == \
        [operator_stencil(op_id) for op_id in ids]
    assert result.reduced_report.composition_residuals == ["0", "0"]
    assert calls == [0]


@pytest.mark.parametrize("name, build, want", [
    ("elasticity", build_elasticity_complex,
     ["nonzero composition at stage 0 (max |entry| 6)",
      "nonzero composition at stage 1 (max |entry| 2)"]),
    ("coupled", build_w_complex,
     ["nonzero composition at stage 0 (max |entry| 6)",
      "nonzero composition at stage 1 (max |entry| 2)"]),
])
def test_a_perturbed_table_is_refused_and_multiplied_out(monkeypatch, name, build, want):
    """One doubled factor of curl_curl, or of the split w_curl, makes both of
    its compositions nonzero stencils; they are multiplied out and keep the
    exact residual texts."""
    standard = build(3)
    tables = [m.stencil for m in standard.maps]
    tables[1] = _doubled_first_term(tables[1])
    c = _chain(name, 3, _slot_lists(standard, 3), [m.name for m in standard.maps],
               tables)
    assert [m.stencil for m in c.maps] == tables
    assert compose(tables[1], tables[0]) and compose(tables[2], tables[1])
    calls = mul_calls(monkeypatch)
    report = verify_complex(c)
    assert report.composition_residuals == want
    assert calls == [2]
    assert report.ranks == [m.rank() for m in c.maps]


def test_a_reduced_map_without_a_stage_factor_is_multiplied_out(monkeypatch):
    """The perturbed w_curl entry leaves the middle reduced map with no
    factor and so with no stencil: every pair it is in is multiplied out, in
    the full complex (whose map is public) and in the reduced one."""
    monkeypatch.setattr(complexes, "build_w_complex", _build_perturbed_w_complex)
    calls = mul_calls(monkeypatch)
    result = derive_elasticity(3)
    assert result.stage_factors == [1, None, 1]
    assert [m.stencil is None for m in result.reduced.maps] == [False, True, False]
    assert calls == [4]
    residuals = ["nonzero composition at stage 0 (max |entry| 1)", "0"]
    assert result.full_report.composition_residuals == residuals
    assert result.reduced_report.composition_residuals == residuals


_KINDS = ("scalar", "vec", "sym")
_FACTORS = st.sampled_from([1, -1, 2, -3, F(1, 2), F(-2, 3)])


def _fits(term, dom, cod) -> bool:
    """Whether `from_operator` takes the term: no image above its slot bound."""
    s, _, t, _, alpha, _ = term
    order = sum(alpha)
    return dom[s][1] < order or dom[s][1] - order <= cod[t][1]


@st.composite
def _random_pairs(draw):
    """Three spaces of one or two slots and two random stencils that fit them."""
    spaces = [[(draw(st.sampled_from(_KINDS)), draw(st.integers(0, 3)))
               for _ in range(draw(st.integers(1, 2)))] for _ in range(3)]

    def term(dom, cod):
        s, t = draw(st.integers(0, len(dom) - 1)), draw(st.integers(0, len(cod) - 1))
        c = draw(st.integers(0, Slot("", dom[s][0], 0).ncomp - 1))
        d = draw(st.integers(0, Slot("", cod[t][0], 0).ncomp - 1))
        alpha = tuple(draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
        return (s, c, t, d, alpha, draw(_FACTORS))

    stencils = []
    for k in range(2):
        terms = [term(spaces[k], spaces[k + 1]) for _ in range(draw(st.integers(0, 5)))]
        stencils.append([x for x in terms if _fits(x, spaces[k], spaces[k + 1])])
    return spaces, stencils


@st.composite
def _zero_pairs(draw):
    """Scaled curl o grad or div o curl on random bounds: zero by construction."""
    ids = draw(st.sampled_from([("grad", "curl"), ("curl", "div")]))
    b0 = draw(st.integers(0, 3))
    b1 = max(b0 - 1, 0) + draw(st.integers(0, 1))
    b2 = max(b1 - 1, 0) + draw(st.integers(0, 1))
    spaces = [[(OPERATORS[ids[0]].domain[0][1], b0)],
              [(OPERATORS[ids[0]].codomain[0][1], b1)],
              [(OPERATORS[ids[1]].codomain[0][1], b2)]]
    stencils = [[(*t[:5], f * t[5]) for t in operator_stencil(op_id)]
                for op_id, f in zip(ids, (draw(_FACTORS), draw(_FACTORS)))]
    return spaces, stencils


@settings(max_examples=80, deadline=None, database=None)
@given(case=st.one_of(_random_pairs(), _zero_pairs()))
def test_stencil_decisions_match_the_matrix_products(case):
    """A complex assembled from stencils reports what the same matrices
    report through the public constructor, which carries no stencil."""
    slot_lists, stencils = case
    spaces = [GradedSpace([Slot(f"s{k}", kind, bound)
                           for k, (kind, bound) in enumerate(slots)])
              for slots in slot_lists]
    maps = [LinOpMatrix.from_operator(spaces[k], spaces[k + 1], stencils[k], f"m{k}")
            for k in range(2)]
    public = [LinOpMatrix(m.domain, m.codomain, m.cols, m.name, m.den) for m in maps]
    assert all(m.stencil is not None for m in maps)
    assert all(m.stencil is None for m in public)
    got = verify_complex(ChainComplex("c", spaces, maps))
    assert got.to_dict() == verify_complex(ChainComplex("c", spaces, public)).to_dict()
    if not compose(stencils[1], stencils[0]):
        assert got.composition_residuals == ["0"]


# -- splitting of two-forms on R^4 --------------------------------------------


def test_skew4_validation():
    with pytest.raises(ValueError):
        SkewMat4(((F(0),),))
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[0][1] = F(1)
    with pytest.raises(ValueError):
        SkewMat4(tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("index,error", [
    (0, ValueError), (5, ValueError), (True, TypeError), (1.0, TypeError),
])
def test_skew4_indices_are_ints_from_1_to_4(index, error):
    """random_skew4(0).entry(0, 1) once returned the entry (4, 1), and
    entry(5, 1) raised IndexError."""
    omega = random_skew4(0)
    with pytest.raises(error, match="index must be"):
        omega.entry(index, 1)
    with pytest.raises(error, match="index must be"):
        omega.entry(1, index)
    assert [[omega.entry(i, j) for j in (1, 2, 3, 4)] for i in (1, 2, 3, 4)] == \
        [list(row) for row in omega.entries]


def test_wedge_and_interior_product_small_cases():
    omega = SkewMat4.from_wedge((1, 0, 0, 0), (0, 1, 0, 0))
    assert omega.entry(1, 2) == 1 and omega.entry(2, 1) == -1
    assert interior_product((1, 0, 0, 0), omega) == (0, 1, 0, 0)
    three_form = wedge_with_vector((0, 0, 1, 0), omega)
    assert three_form[(1, 2, 3)] == 1
    assert all(v == 0 for key, v in three_form.items() if key != (1, 2, 3))


_VEC4_ENTRIES = {
    "SkewMat4.from_wedge(v, a)": lambda v: SkewMat4.from_wedge(v, (0, 1, 0, 0)),
    "SkewMat4.from_wedge(a, v)": lambda v: SkewMat4.from_wedge((0, 1, 0, 0), v),
    "interior_product": lambda v: interior_product(v, random_skew4(0)),
    "wedge_with_vector": lambda v: wedge_with_vector(v, random_skew4(0)),
    "lambda2_split": lambda v: lambda2_split(v, random_skew4(0)),
}


@pytest.mark.parametrize("v", [(1, 0, 0), (1, 0, 0, 0, 5)], ids=["len3", "len5"])
@pytest.mark.parametrize("entry", sorted(_VEC4_ENTRIES))
def test_vector_entries_take_four_entries_only(entry, v):
    """A fifth entry is not dropped, nor a missing fourth an IndexError."""
    with pytest.raises(ValueError, match=f"4 entries, got {len(v)}"):
        _VEC4_ENTRIES[entry](v)


def test_vector_products_return_canonical_scalars():
    omega = random_skew4(0)
    assert [type(c) for c in interior_product((1, 0, 0, 0), omega)] == \
        [int, int, Fraction, int]
    assert [type(c) for c in wedge_with_vector((1, 0, 0, 0), omega).values()] == \
        [Fraction, int, Fraction, int]
    assert all(type(c) is int for c in interior_product((3, 0, 0, 0), omega))


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
