"""The integer representation of operator matrices.

A `LinOpMatrix` holds int numerator columns and one positive denominator in
lowest terms.  These tests compare what it computes with plain dense
Fraction matrices, and check that no Fraction is ever stored.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from strainkit import exactlin
from strainkit.complexes import (ChainComplex, GradedSpace, LinOpMatrix, Slot,
                                 derive_elasticity, schur_reduce)
from strainkit.errors import SingularBlockError
from strainkit.poly import monomials_up_to

F = Fraction

# Ints and Fractions with denominators up to 6, zero included.
values = st.one_of(st.integers(-6, 6),
                   st.builds(F, st.integers(-12, 12), st.integers(1, 6)))
nonzero_values = values.filter(bool)


def space(prefix: str, n: int) -> GradedSpace:
    """n scalar slots of bound 0: a space of dimension n."""
    return GradedSpace([Slot(f"{prefix}{k}", "scalar", 0) for k in range(n)])


def matrix(dense, dom: GradedSpace, cod: GradedSpace, den: int = 1) -> LinOpMatrix:
    cols = [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(dom.dim)]
    return LinOpMatrix(dom, cod, cols, den=den)


def dense_of(m: LinOpMatrix):
    nrows, ncols = m.shape
    return [[m.entry(i, j) for j in range(ncols)] for i in range(nrows)]


def dense_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = F(rows[r][col]) / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_inverse(rows):
    """Gauss-Jordan inverse of an invertible square Fraction matrix."""
    n = len(rows)
    aug = [[F(v) for v in row] + [F(int(i == k)) for k in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def dense_proportionality(a, b):
    """The single lambda with a = lambda * b, or None."""
    pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    if all(y == 0 for _, y in pairs):
        return F(1) if all(x == 0 for x, _ in pairs) else None
    x0, y0 = next((x, y) for x, y in pairs if y)
    lam = F(x0) / y0
    return lam if lam and all(x == lam * y for x, y in pairs) else None


def assert_int_lowest_terms(m: LinOpMatrix) -> None:
    nums = [v for col in m.cols for v in col.values()]
    assert all(type(v) is int for v in nums)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *nums) == 1


@st.composite
def dense_matrices(draw, nrows=None, ncols=None):
    nrows = draw(st.integers(1, 5)) if nrows is None else nrows
    ncols = draw(st.integers(1, 5)) if ncols is None else ncols
    return [[draw(values) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_matrix_ops_match_dense_fraction_reference(data):
    a = data.draw(dense_matrices())
    n, m = len(a), len(a[0])
    den_a = data.draw(st.integers(1, 6))
    mat_a = matrix(a, space("m", m), space("n", n), den_a)
    want_a = [[F(v) / den_a for v in row] for row in a]
    assert_int_lowest_terms(mat_a)
    assert dense_of(mat_a) == want_a
    assert all(type(v) is F for row in dense_of(mat_a) for v in row)
    assert mat_a.rank() == dense_rank(want_a)

    b = data.draw(dense_matrices(ncols=n))
    den_b = data.draw(st.integers(1, 6))
    mat_b = matrix(b, space("n", n), space("p", len(b)), den_b)
    product = mat_b.compose(mat_a)
    assert_int_lowest_terms(product)
    assert dense_of(product) == dense_mul([[F(v) / den_b for v in row] for row in b],
                                          want_a)

    x = data.draw(st.lists(values, min_size=m, max_size=m))
    got = mat_a.apply_coords({j: v for j, v in enumerate(x) if v})
    want = dense_mul(want_a, [[v] for v in x])
    assert got == {i: row[0] for i, row in enumerate(want) if row[0]}

    # Proportional partners, a dented one and an unrelated one.
    lam = data.draw(nonzero_values)
    scaled = [[lam * v for v in row] for row in want_a]
    dented = [list(row) for row in scaled]
    dented[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, m - 1))] += 1
    other = data.draw(dense_matrices(nrows=n, ncols=m))
    for partner in (scaled, dented, other):
        mat_p = matrix(partner, mat_a.domain, mat_a.codomain)
        assert_int_lowest_terms(mat_p)
        assert mat_a.proportionality(mat_p) == dense_proportionality(want_a, partner)
        assert mat_p.proportionality(mat_a) == dense_proportionality(partner, want_a)


def test_proportionality_cases_match_dense_reference():
    """A negative factor, mixed dens, and self with an entry outside other's
    support: lambda is read from the values entry / den, not the numerators."""
    dom, cod = space("m", 2), space("n", 2)
    other = [[F(2), F(0)], [F(-4), F(6)]]
    mat_o = matrix(other, dom, cod, den=3)  # values other / 3
    want_o = [[v / 3 for v in row] for row in other]
    # -5/4 times mat_o, held as numerators over den 8.
    scaled = [[F(-5, 4) * v * 8 for v in row] for row in want_o]
    mat_s = matrix(scaled, dom, cod, den=8)
    assert mat_s.den != mat_o.den
    assert mat_s.proportionality(mat_o) == F(-5, 4) == \
        dense_proportionality(dense_of(mat_s), want_o)
    assert mat_o.proportionality(mat_s) == F(-4, 5) == \
        dense_proportionality(want_o, dense_of(mat_s))
    outside = [list(row) for row in scaled]
    outside[0][1] = F(7)  # other is zero there
    mat_x = matrix(outside, dom, cod, den=8)
    assert mat_x.proportionality(mat_o) is None
    assert dense_proportionality(dense_of(mat_x), want_o) is None
    assert mat_o.proportionality(mat_x) is None
    assert dense_proportionality(want_o, dense_of(mat_x)) is None


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_proportionality_matches_dense_reference(data):
    other = data.draw(dense_matrices())
    n, m = len(other), len(other[0])
    dom, cod = space("m", m), space("n", n)
    den_o, den_s = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    mat_o = matrix(other, dom, cod, den_o)
    want_o = dense_of(mat_o)
    lam = data.draw(nonzero_values)
    scaled = [[lam * v * den_s for v in row] for row in want_o]
    mat_s = matrix(scaled, dom, cod, den_s)
    want = lam if any(v for row in want_o for v in row) else F(1)
    assert mat_s.proportionality(mat_o) == want == \
        dense_proportionality(dense_of(mat_s), want_o)
    # An entry of self where other is zero.
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
    other[i][j] = 0
    scaled[i][j] = data.draw(nonzero_values)
    mat_o, mat_s = matrix(other, dom, cod, den_o), matrix(scaled, dom, cod, den_s)
    assert mat_s.proportionality(mat_o) is None
    assert dense_proportionality(dense_of(mat_s), dense_of(mat_o)) is None


@st.composite
def non_unimodular_blocks(draw):
    """An invertible int matrix with |det| >= 2: a diagonal of +-2, +-3 under a
    few row operations with int multipliers.  Its inverse is not integral."""
    n = draw(st.integers(1, 4))
    diag = draw(st.lists(st.sampled_from((2, -2, 3, -3)), min_size=n, max_size=n))
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    ids = st.integers(0, n - 1)
    for t, s, c in draw(st.lists(st.tuples(ids, ids, st.integers(-3, 3)), max_size=2 * n)):
        if t != s:
            rows[t] = [x + c * y for x, y in zip(rows[t], rows[s])]
    return rows


# Slot kinds for the cancelled blocks, as (component count, kind).
_KINDS = ((1, "scalar"), (3, "vec"), (3, "skew"))


def draw_slots(data, prefix: str, ncomp: int, bound: int) -> list[Slot]:
    """Slots of one bound whose component counts add up to ncomp."""
    slots = []
    while ncomp:
        take, kind = data.draw(st.sampled_from([k for k in _KINDS if k[0] <= ncomp]))
        slots.append(Slot(f"{prefix}{len(slots)}", kind, bound))
        ncomp -= take
    return slots


def kron_identity(phi, n_mono: int):
    """Dense Phi (x) I_N on component-major positions (component, monomial)."""
    n = len(phi)
    return [[F(phi[r][c]) if k == j else F(0) for c in range(n) for j in range(n_mono)]
            for r in range(n) for k in range(n_mono)]


def derivative_matrix(bound: int, axis: int):
    """Dense matrix of d/dx_axis on the monomials of degree <= bound."""
    monos = monomials_up_to(bound)
    pos = {e: k for k, e in enumerate(monos)}
    rows = [[0] * len(monos) for _ in monos]
    for j, e in enumerate(monos):
        if e[axis]:
            rows[pos[e[:axis] + (e[axis] - 1,) + e[axis + 1:]]][j] = e[axis]
    return rows


def solve_calls(monkeypatch) -> list[tuple[int, int]]:
    """(block size, right-hand side count) of each `exactlin.solve_square`
    call from now on."""
    calls = []
    solve = exactlin.solve_square

    def recording(phi_cols, rhs_cols):
        calls.append((len(phi_cols), len(rhs_cols)))
        return solve(phi_cols, rhs_cols)

    monkeypatch.setattr(exactlin, "solve_square", recording)
    return calls


def reduce_against_dense(data, phi, b_slots: list[Slot],
                         c_slots: list[Slot]) -> tuple[list[tuple[int, int]], int]:
    """Reduce [[phi, c], [b, a]] with c = [I | c'] and compare the surviving
    map with the dense complement a - b phi^-1 c.  Z = phi^-1 c then has
    non-integer entries when phi^-1 does.  The cancelled slots b_slots and
    c_slots span phi; the surviving domain repeats b_slots and adds scalar
    slots, the surviving codomain has scalar slots.  Returns the
    `solve_calls` record and the column count of c."""
    size = len(phi)
    p, q = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    c = [[F(int(i == k)) for k in range(size)] + row
         for i, row in enumerate(data.draw(dense_matrices(nrows=size, ncols=q)))]
    b = data.draw(dense_matrices(nrows=p, ncols=size)) if p else []
    a = data.draw(dense_matrices(nrows=p, ncols=size + q)) if p else []
    den = data.draw(st.integers(1, 6))
    full = [phi_row + c_row for phi_row, c_row in zip(phi, c)] + \
        [b_row + a_row for b_row, a_row in zip(b, a)]
    dom = GradedSpace(b_slots + [Slot("u" + s.label, s.kind, s.bound) for s in b_slots]
                      + [Slot(f"u{k}", "scalar", 0) for k in range(q)])
    cod = GradedSpace(c_slots + [Slot(f"v{k}", "scalar", 0) for k in range(p)])
    cx = ChainComplex(name="block", spaces=[dom, cod], maps=[matrix(full, dom, cod, den)])
    with pytest.MonkeyPatch.context() as mp:
        calls = solve_calls(mp)
        reduced = schur_reduce(cx, 0, [s.label for s in b_slots], [s.label for s in c_slots])

    z = dense_mul(dense_inverse(phi), c)
    assert any(v.denominator > 1 for row in z for v in row)
    if p:
        bz = dense_mul(b, z)
        want = [[(F(a[i][j]) - bz[i][j]) / den for j in range(size + q)]
                for i in range(p)]
    else:
        want = []
    got = reduced.maps[0]
    assert got.shape == (p, size + q)
    assert_int_lowest_terms(got)
    assert dense_of(got) == want
    return calls, size + q


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_schur_reduce_matches_dense_complement(data):
    """phi = Phi (x) I_N on cancelled slots of one bound 0 to 2.  At bound 1
    or 2 the solve runs on the constant Phi alone, against the identity; at
    bound 0, N = 1 and phi = Phi is solved against c."""
    phi = data.draw(non_unimodular_blocks())
    bound = data.draw(st.integers(0, 2))
    b_slots = draw_slots(data, "b", len(phi), bound)
    c_slots = draw_slots(data, "c", len(phi), bound)
    kron = kron_identity(phi, len(monomials_up_to(bound)))
    calls, n_rhs = reduce_against_dense(data, kron, b_slots, c_slots)
    assert calls == [(len(phi), len(phi) if bound else n_rhs)]


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_schur_reduce_with_a_derivative_term_matches_dense_complement(data):
    """phi = Phi (x) I_N + f E_rc (x) d/dx_i is not Phi (x) I_N, so the whole
    phi is solved.  It stays invertible: phi = (Phi (x) I_N)(1 + n) with
    n = f Phi^-1 E_rc (x) d/dx_i nilpotent, as d/dx_i is."""
    phi = data.draw(non_unimodular_blocks())
    n = len(phi)
    bound = data.draw(st.integers(1, 2))
    n_mono = len(monomials_up_to(bound))
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    f = data.draw(st.integers(-3, 3).filter(bool))
    deriv = derivative_matrix(bound, data.draw(st.integers(0, 2)))
    block = kron_identity(phi, n_mono)
    for k in range(n_mono):
        for j in range(n_mono):
            block[r * n_mono + k][c * n_mono + j] += f * deriv[k][j]
    b_slots = draw_slots(data, "b", n, bound)
    c_slots = draw_slots(data, "c", n, bound)
    calls, n_rhs = reduce_against_dense(data, block, b_slots, c_slots)
    assert calls == [(n * n_mono, n_rhs)]


@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
@pytest.mark.parametrize("case", ["shift", "mixed bounds"])
def test_blocks_not_of_kronecker_form_are_solved_whole(case, data):
    """Two invertible blocks with phi = 2 I + s that `schur_reduce` must solve
    whole.  "shift": s steps each position of component 0 one down, the last
    into component 1, so every column of a component repeats its first one
    shifted and only the row positions of that first column rule out
    Phi (x) I_4.  "mixed bounds": s = 0 on cancelled slots of bounds 1 and 0."""
    if case == "shift":
        b_slots = [Slot("b0", "scalar", 1), Slot("b1", "scalar", 1)]
        c_slots = [Slot("c0", "scalar", 1), Slot("c1", "scalar", 1)]
    else:
        b_slots = [Slot("b0", "scalar", 1), Slot("b1", "scalar", 0)]
        c_slots = [Slot(f"c{k}", "scalar", 0) for k in range(5)]
    size = sum(s.dim for s in b_slots)
    shift = case == "shift"
    block = [[F(2 * (i == j) + (shift and i == j + 1 and j < 4)) for j in range(size)]
             for i in range(size)]
    calls, n_rhs = reduce_against_dense(data, block, b_slots, c_slots)
    assert calls == [(size, n_rhs)]


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_singular_constant_factor_reports_the_rank_of_phi(data):
    """A singular Phi in phi = Phi (x) I_N with N >= 2: the error names the
    rank of phi, N rank(Phi), as solving phi itself would."""
    n = data.draw(st.integers(2, 4))
    ints = st.integers(-3, 3)
    phi = [data.draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(n - 1)]
    mult = data.draw(st.lists(ints, min_size=n - 1, max_size=n - 1))
    phi.append([sum(m * row[j] for m, row in zip(mult, phi)) for j in range(n)])
    bound = data.draw(st.integers(1, 2))
    n_mono = len(monomials_up_to(bound))
    size = n * n_mono
    b_slots = draw_slots(data, "b", n, bound)
    c_slots = draw_slots(data, "c", n, bound)
    dom, cod = GradedSpace(b_slots), GradedSpace(c_slots)
    block = matrix(kron_identity(phi, n_mono), dom, cod)
    rank = exactlin.sparse_rank(block.cols, size)
    assert rank == n_mono * dense_rank(phi) < size
    cx = ChainComplex(name="singular", spaces=[dom, cod], maps=[block])
    with pytest.MonkeyPatch.context() as mp:
        calls = solve_calls(mp)
        with pytest.raises(SingularBlockError) as info:
            schur_reduce(cx, 0, [s.label for s in b_slots], [s.label for s in c_slots])
    assert str(info.value) == f"selected block is not invertible (rank {rank} of {size})"
    assert (info.value.rank, info.value.size) == (rank, size)
    assert calls == [(n, n)]


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_derived_maps_hold_ints_in_lowest_terms(degree):
    result = derive_elasticity(degree)
    for cx in (result.full, result.halfway, result.reduced, result.hand_coded):
        for m in cx.maps:
            assert_int_lowest_terms(m)


def test_singular_block_is_eliminated_once(monkeypatch):
    calls = []
    reduce = exactlin._reduce

    def counting(vectors):
        calls.append(len(vectors))
        return reduce(vectors)

    monkeypatch.setattr(exactlin, "_reduce", counting)
    dom, cod = space("a", 2), space("c", 2)
    # The block [[1, 2], [2, 4]], rank 1.
    cx = ChainComplex(name="singular", spaces=[dom, cod],
                      maps=[LinOpMatrix(dom, cod, [{0: 1, 1: 2}, {0: 2, 1: 4}])])
    with pytest.raises(SingularBlockError) as info:
        schur_reduce(cx, 0, ["a0", "a1"], ["c0", "c1"])
    assert str(info.value) == "selected block is not invertible (rank 1 of 2)"
    assert (info.value.rank, info.value.size) == (1, 2)
    assert calls == [2]


def test_explicit_zero_entries_are_dropped():
    one = space("a", 1)
    zero = LinOpMatrix(one, one, [{0: 0}])
    assert zero.cols == [{}] and zero.den == 1
    assert zero.is_zero()
    assert zero.proportionality(LinOpMatrix(one, one, [{}])) == 1
    assert LinOpMatrix(one, one, [{0: 3}]).proportionality(zero) is None
    mixed = LinOpMatrix(space("b", 2), space("c", 2), [{0: F(0), 1: F(2, 3)}, {0: 0}])
    assert mixed.cols == [{1: 2}, {}] and mixed.den == 3


def test_den_must_be_a_positive_int():
    one = space("a", 1)
    for bad in (0, -2, F(1, 2), 1.0, True):
        with pytest.raises(ValueError, match="positive int"):
            LinOpMatrix(one, one, [{0: 1}], den=bad)
