import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from strainkit import exactlin


def dense_rank(rows):
    """Reference rank for cross-checking, independent of exactlin.

    Each row is scaled to integers by the lcm of its denominators, then
    fraction-free (Bareiss) elimination runs on the integer rows.  Every
    entry stays a minor of the scaled matrix, so each division by the
    previous pivot is exact and no Fraction is built.
    """
    if not rows:
        return 0
    m = []
    for r in rows:
        den = lcm(*(v.denominator for v in r))
        m.append([v.numerator * (den // v.denominator) for v in r])
    nrows, ncols = len(m), len(m[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        pv = top[col]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[col]
            m[r] = row[:col] + [(pv * row[c] - f * top[c]) // prev for c in range(col, ncols)]
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def cols_from_dense(rows):
    cols = []
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
        col = {}
        for i, row in enumerate(rows):
            if row[j] != 0:
                col[i] = Fraction(row[j])
        cols.append(col)
    return cols


def rank(cols, nrows):
    """`sparse_rank` of Fraction columns, cleared to ints as one matrix:
    scaling the matrix leaves its rank unchanged."""
    return exactlin.sparse_rank(exactlin.lowest_terms(cols)[0], nrows)


def solve(phi, rhs):
    """`solve_square` of Fraction columns, with phi and rhs cleared to ints
    together: scaling both by one factor leaves the solution unchanged."""
    cols = exactlin.lowest_terms(phi + rhs)[0]
    return exactlin.solve_square(cols[:len(phi)], cols[len(phi):])


def random_dense(rng, nrows, ncols, density=0.6):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]


def test_rank_known_cases():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(cols_from_dense(ident), 3) == 3
    singular = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank(cols_from_dense(singular), 3) == 2
    assert exactlin.sparse_rank([], 5) == 0
    assert exactlin.sparse_rank([{}, {}], 4) == 0


def test_rank_hands_back_the_largest_index_of_each_pivot():
    # The second column reduces to zero against the first; the third is
    # stored at row 1, its largest index, and the fourth at row 0.
    lows = {7}
    cols = [{0: 1, 2: 3}, {0: -2, 2: -6}, {0: 5, 1: 1}, {0: 4}]
    assert exactlin.sparse_rank(cols, 3, lows) == 3
    assert lows == {7, 2, 1, 0}


def test_rank_matches_dense_reference():
    rng = random.Random(71)
    for _ in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = random_dense(rng, nrows, ncols)
        assert rank(cols_from_dense(rows), nrows) == dense_rank(rows)


def test_rank_with_huge_fractions():
    # gcd control must survive deliberately awkward denominators
    rows = [[Fraction(10 ** 12 + 1, 7), Fraction(1, 10 ** 9)],
            [Fraction(3), Fraction(10 ** 15, 11)]]
    assert rank(cols_from_dense(rows), 2) == 2


def test_solve_square_round_trip():
    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(1, 6)
        while True:
            rows = random_dense(rng, n, n, density=0.8)
            if dense_rank(rows) == n:
                break
        phi = cols_from_dense(rows)
        rhs_dense = random_dense(rng, n, rng.randint(1, 3), density=0.9)
        rhs = cols_from_dense(rhs_dense)
        cols, den = solve(phi, rhs)
        sols = [{j: Fraction(v, den) for j, v in col.items()} for col in cols]
        # verify phi * solution == rhs exactly
        for sol, want in zip(sols, rhs):
            acc = {}
            for j, c in sol.items():
                for i, v in phi[j].items():
                    acc[i] = acc.get(i, Fraction(0)) + c * v
            acc = {i: v for i, v in acc.items() if v != 0}
            assert acc == want


def test_solve_square_rejects_singular():
    rows = [[1, 2], [2, 4]]
    with pytest.raises(ValueError):
        solve(cols_from_dense(rows), [{0: Fraction(1)}])


def test_mul_cols_is_matrix_product():
    rng = random.Random(79)
    for _ in range(15):
        n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = random_dense(rng, n, m)
        b = random_dense(rng, m, k)
        product = [[sum(a[i][l] * b[l][j] for l in range(m)) for j in range(k)]
                   for i in range(n)]
        a_cols, a_den = exactlin.lowest_terms(cols_from_dense(a))
        b_cols, b_den = exactlin.lowest_terms(cols_from_dense(b))
        got = exactlin.mul_cols(a_cols, b_cols)
        assert [{i: Fraction(v, a_den * b_den) for i, v in col.items()} for col in got] == [
            {i: v for i, v in enumerate(col) if v != 0}
            for col in ([[product[i][j] for i in range(n)] for j in range(k)])
        ]


def test_cols_are_zero():
    assert exactlin.cols_are_zero([{}, {}])
    assert exactlin.cols_are_zero([])
    assert not exactlin.cols_are_zero([{}, {3: 2}])


# -- properties over sparse matrices up to 40 x 40 -----------------------------

# The nonzero rationals in [-6, 6] with denominator at most 3, simplest first
# so that shrinking moves towards small integers.  Drawing from this list is
# much cheaper than st.fractions, whose draws dominated the time a failing
# property took to shrink.
nonzero = st.sampled_from(sorted(
    {Fraction(p, q) for q in (1, 2, 3) for p in range(-6 * q, 6 * q + 1) if p},
    key=lambda v: (v.denominator, abs(v), v < 0)))


@st.composite
def sparse_dense(draw, nrows=None, max_dim=40):
    """A dense Fraction matrix with at most five nonzeros per row, planted
    dependent rows and some rows and columns forced to zero."""
    if nrows is None:
        nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    row_ids, col_ids = st.integers(0, nrows - 1), st.integers(0, ncols - 1)
    rows = []
    for _ in range(nrows):
        entries = draw(st.dictionaries(col_ids, nonzero, max_size=5))
        rows.append([entries.get(j, Fraction(0)) for j in range(ncols)])
    # row t := a * row s + b * row u
    for t, s, u, a, b in draw(st.lists(
            st.tuples(row_ids, row_ids, row_ids, nonzero, nonzero),
            max_size=nrows // 3)):
        rows[t] = [a * x + b * y for x, y in zip(rows[s], rows[u])]
    for i in draw(st.sets(row_ids, max_size=3)):
        rows[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(col_ids, max_size=3)):
        for row in rows:
            row[j] = Fraction(0)
    return rows


@st.composite
def invertible_dense(draw, max_dim=40):
    """A sparse invertible matrix: a scaled permutation under a few row
    operations row t += c * row s."""
    n = draw(st.integers(1, max_dim))
    perm = draw(st.permutations(range(n)))
    scale = draw(st.lists(nonzero, min_size=n, max_size=n))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = scale[i]
    ids = st.integers(0, n - 1)
    for t, s, c in draw(st.lists(st.tuples(ids, ids, nonzero), max_size=2 * n)):
        if t != s:
            rows[t] = [x + c * y for x, y in zip(rows[t], rows[s])]
    return rows


def apply_cols(phi, sol):
    acc = {}
    for j, c in sol.items():
        for i, v in phi[j].items():
            acc[i] = acc.get(i, Fraction(0)) + c * v
    return {i: v for i, v in acc.items() if v != 0}


@settings(max_examples=60, deadline=None, database=None)
@given(rows=sparse_dense())
def test_sparse_rank_matches_dense_rank(rows):
    assert rank(cols_from_dense(rows), len(rows)) == dense_rank(rows)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_solve_square_round_trips(data):
    rows = data.draw(invertible_dense())
    rhs = cols_from_dense(data.draw(sparse_dense(nrows=len(rows), max_dim=6)))
    phi = cols_from_dense(rows)
    cols, den = solve(phi, rhs)
    sols = [{j: Fraction(v, den) for j, v in col.items()} for col in cols]
    assert [apply_cols(phi, sol) for sol in sols] == rhs


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_solve_square_returns_int_columns_in_lowest_terms(data):
    """X = N / den with int numerators and den >= 1 sharing no factor, and
    phi N == den rhs holds exactly, with no Fraction on the left."""
    rows = data.draw(invertible_dense())
    rhs = cols_from_dense(data.draw(sparse_dense(nrows=len(rows), max_dim=6)))
    phi = cols_from_dense(rows)
    num, den = solve(phi, rhs)
    values = [v for col in num for v in col.values()]
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in values)
    assert gcd(den, *values) == 1
    assert len(num) == len(rhs)
    assert [apply_cols(phi, col) for col in num] == \
        [{i: den * v for i, v in col.items()} for col in rhs]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_solve_square_singular_names_dense_rank(data):
    rows = data.draw(invertible_dense())
    n = len(rows)
    t = data.draw(st.integers(0, n - 1))
    s = data.draw(st.integers(0, n - 1))
    a = data.draw(nonzero)
    # Row t becomes a multiple of row s, or zero when t == s.
    rows[t] = [a * x for x in rows[s]] if s != t else [Fraction(0)] * n
    want = dense_rank(rows)
    assert want < n
    with pytest.raises(ValueError, match=fr"^singular block: rank {want} of {n}$"):
        solve(cols_from_dense(rows), [{0: Fraction(1)}])


# -- invariants of the reduction over int and Fraction matrices ----------------

@st.composite
def int_or_fraction_dense(draw):
    """A `sparse_dense` matrix, or the int matrix of its numerators."""
    rows = draw(sparse_dense(max_dim=25))
    if draw(st.booleans()):
        rows = [[v.numerator for v in row] for row in rows]
    return rows


def typed_cols(rows):
    """Sparse columns that keep the type of each entry."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(len(rows[0]))]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_rank_is_invariant_under_transpose_permutation_and_scaling(data):
    rows = data.draw(int_or_fraction_dense())
    nrows, ncols = len(rows), len(rows[0])
    got = rank(typed_cols(rows), nrows)
    transpose = [list(col) for col in zip(*rows)]
    assert rank(typed_cols(transpose), ncols) == got
    perm = data.draw(st.permutations(range(ncols)))
    scale = data.draw(st.lists(nonzero | st.integers(-5, 5).filter(bool),
                               min_size=ncols, max_size=ncols))
    moved = [[scale[j] * row[j] for j in perm] for row in rows]
    assert rank(typed_cols(moved), nrows) == got


@settings(max_examples=60, deadline=None, database=None)
@given(rows=int_or_fraction_dense())
def test_every_updated_pivot_is_primitive(rows):
    """The gcd division after each update bounds coefficient growth: a
    pivot is either a column stored as it came in, or primitive."""
    cols = exactlin.lowest_terms(typed_cols(rows))[0]
    pivots, _ = exactlin._reduce(cols)
    assert len(pivots) == dense_rank([[Fraction(v) for v in row] for row in rows])
    for low, pivot in pivots.items():
        assert all(type(v) is int and v for v in pivot.values())
        assert max(pivot) == low
        assert gcd(*pivot.values()) == 1 or pivot in cols
