"""Exact sparse linear algebra over the rationals.

Matrices live as lists of sparse columns ({row: value}) of ints with no
zero entries; a `LinOpMatrix` keeps one denominator beside them.  Rational
columns become ints in one place, `lowest_terms`; nothing else checks its
input.  One fraction-free reduction, `_reduce`, serves rank and solve.  It
takes vectors one at a time, copies each once and reduces it against the
pivots found so far: while a pivot is stored at the vector's largest index,
the vector becomes ``a*vector - b*pivot``, divided by the gcd of its
entries.  A vector that reaches an index no pivot holds is stored there as
a new pivot, and one that vanishes is dropped.  This is the column
reduction of persistent homology (Edelsbrunner, Letscher and Zomorodian
2002), kept fraction-free as in Bareiss (1968).  The rank is the number of
pivots.

`sparse_rank` reduces the columns as they are, with no transpose, and can
hand back the largest index of each pivot.  A pivot is a combination of
the columns with a nonzero entry at that index, so when the columns are a
map d_k with d_{k+1} d_k = 0, the pivot lies in the kernel of d_{k+1} and
the column of d_{k+1} at that index is a combination of its earlier
columns.  Ranking d_{k+1} without those columns is the "clearing" of Chen
and Kerber (Persistent homology computation with a twist, EuroCG 2011);
`complexes.verify_complex` applies it.

`solve_square` reduces the rows of [phi | rhs], keyed on the phi part only,
then back-substitutes in ascending pivot index on integer numerators, one
lcm and one gcd per pivot, and returns int columns over one den in lowest
terms.

Operator matrices are stencil matrices whose columns come in graded-lex
monomial order, so most columns meet few pivots: over the maps of the three
complexes the reduction makes 1892 steps at degree 5 and 4809 at degree 7,
and 329 and 849 with clearing (`test_elimination_row_updates_frozen` pins
the counts).  The order changes the work, never the answer: the number of
pivots is the rank whatever the order, and an invertible block has one
solution.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Iterable

from .poly import Scalar, _canonical

# Operator matrices and solutions: ints, no zero entries.
Column = dict[int, int]
# Field coordinates: exact rationals, cleared to a Column by `lowest_terms`.
Coords = dict[int, Scalar]


def lowest_terms(cols: list[Coords], den: int = 1) -> tuple[list[Column], int]:
    """(int columns, den) in lowest terms for the matrix cols / den.

    Zero entries are kept; a bool or a float entry raises TypeError.
    """
    values = chain.from_iterable(map(dict.values, cols))
    if not {int}.issuperset(map(type, values)):  # some entry is not an int
        # _canonical rejects a bool or a float entry with TypeError.
        scale = lcm(*(_canonical(v).denominator for col in cols for v in col.values()))
        cols = [{i: v.numerator * (scale // v.denominator) for i, v in col.items()}
                for col in cols]
        den *= scale
    return cancel_den(cols, den)


def cancel_den(cols: list[Column], den: int) -> tuple[list[Column], int]:
    """Int columns over den with the gcd of den and every entry divided out."""
    g = gcd(den, *chain.from_iterable(map(dict.values, cols))) if den > 1 else 1
    if g > 1:
        cols = [{i: v // g for i, v in col.items()} for col in cols]
        den //= g
    return cols, den


def accumulate(acc: Column, factor, col: Column) -> None:
    """acc += factor * col in place; entries that become zero are dropped."""
    for i, v in col.items():
        old = acc.get(i)
        if old is None:
            p = factor * v
            if p:
                acc[i] = p
        else:
            s = old + factor * v
            if s:
                acc[i] = s
            else:
                del acc[i]


def _reduce(vectors: Iterable[Column]) -> tuple[dict[int, Column], int]:
    """Reduce each vector against the pivots found so far.

    Every vector must hold ints with no zero entries; nothing checks it.
    Returns (pivots, steps): pivots maps each pivot's largest index to the
    pivot, and steps counts the updates ``a*vector - b*pivot``.  A vector's
    negative indices never key a pivot; one whose other entries all vanish
    is dropped.  Every pivot that an update made is primitive (the gcd of
    its entries is 1); a vector stored with no update keeps its content.
    """
    pivots: dict[int, Column] = {}
    steps = 0
    for given in vectors:
        vec = dict(given)
        while vec:
            low = max(vec)
            if low < 0:
                break
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = vec
                break
            steps += 1
            a, b = pivot[low], vec[low]
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for i in vec:
                    vec[i] *= a
            # The entry at low cancels: a*vec[low] == b*pivot[low].
            for i, v in pivot.items():
                s = vec.get(i, 0) - b * v
                if s:
                    vec[i] = s
                else:
                    del vec[i]
            if vec:
                g = gcd(*vec.values())
                if g > 1:
                    for i in vec:
                        vec[i] //= g
    return pivots, steps


def sparse_rank(cols: list[Column], nrows: int, lows: set[int] | None = None) -> int:
    """Exact rank: the number of pivots the reduction of the columns finds.

    When `lows` is given, the largest index of each pivot is added to it.
    """
    pivots = _reduce(cols)[0]
    if lows is not None:
        lows.update(pivots)
    return len(pivots)


def solve_square(phi_cols: list[Column], rhs_cols: list[Column]) -> tuple[list[Column], int]:
    """Solve phi * X = rhs column by column, exactly; phi is square.

    Returns (int columns, den) in lowest terms with X = columns / den.
    Raises ValueError when phi is singular, with the pivot count as its
    `rank`; callers wrap this into a domain error.
    """
    # The rows of [phi | rhs], with right-hand side k at index ~k < 0, so
    # that the reduction keys each row on its phi part.
    rows: dict[int, Column] = {}
    for j, col in enumerate(phi_cols):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    for k, col in enumerate(rhs_cols):
        for i, v in col.items():
            if i in rows:  # a row with no phi entry holds no pivot
                rows[i][~k] = v
    pivots = _reduce(rows.values())[0]
    size = len(phi_cols)
    if len(pivots) < size:
        exc = ValueError(f"singular block: rank {len(pivots)} of {size}")
        exc.rank = len(pivots)
        raise exc

    # Back-substitute in ascending pivot index: the other phi entries of the
    # pivot at j lie below j, so their solutions x[i] = num[i] / den[i] are
    # already known.  Each step brings its terms to the lcm of their dens
    # and cancels one gcd, so every solution is in lowest terms.
    num: dict[int, Column] = {}
    den: dict[int, int] = {}
    for j in range(size):
        pivot = pivots[j]
        terms = [(i, a) for i, a in pivot.items() if 0 <= i < j]
        scale = lcm(*(den[i] for i, _ in terms))
        acc = {~i: scale * v for i, v in pivot.items() if i < 0}
        for i, a in terms:
            accumulate(acc, -a * (scale // den[i]), num[i])
        d = scale * pivot[j]
        g = gcd(d, *acc.values())
        if d < 0:
            g = -g
        if g != 1:
            acc = {k: v // g for k, v in acc.items()}
        num[j], den[j] = acc, d // g
    # One den for all columns; each num[j] / den[j] is in lowest terms, so
    # the scaled numerators over their lcm are too.
    common = lcm(*den.values())
    solutions: list[Column] = [dict() for _ in rhs_cols]
    for j in range(size):
        f = common // den[j]
        for k, v in num[j].items():
            solutions[k][j] = v * f
    return solutions, common


def mul_cols(a_cols: list[Column], b_cols: list[Column]) -> list[Column]:
    """Sparse product: columns of A o B, where B's values index A's columns."""
    out: list[Column] = []
    for bcol in b_cols:
        acc: Column = {}
        for k, coeff in bcol.items():
            accumulate(acc, coeff, a_cols[k])
        out.append(acc)
    return out


def cols_are_zero(cols: list[Column]) -> bool:
    return all(not col for col in cols)
