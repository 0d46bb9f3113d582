"""Exact sparse linear algebra over the rationals.

Matrices live as lists of sparse columns ({row: value}).  Operator matrices
hold ints (a `LinOpMatrix` keeps one denominator beside them); Fractions
enter only through field coordinates.  One fraction-free elimination serves
rank and solve: rows are scaled to integers, each update
``row = a*row - b*pivot_row`` keeps them integral, and a gcd division after
every update bounds coefficient growth.  The rank is the number of pivots.
`solve_square` eliminates the rows of [phi | rhs], then back-substitutes in
reverse pivot order on integer numerators, one lcm and one gcd per pivot,
and returns int columns over one den in lowest terms.

Columns are eliminated in ascending index order, each on the shortest row
that holds it and has not been a pivot row; there is no pivot search.
Operator matrices are stencil matrices whose columns come in graded-lex
monomial order, and in that order the elimination makes as few row updates
as a Markowitz-style search, within 0.2 % on the maps of the three
complexes (`test_elimination_row_updates_frozen` pins the counts).  A map
from each column to the rows holding it lets a step touch only the rows its
column names, so no step rescans the matrix.

The pivot order changes the work, never the answer: the number of pivots is
the rank whatever their order, and an invertible block has one solution.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .poly import _canonical

# Ints in operator matrices and solutions; Fractions in field coordinates.
Column = dict[int, int | Fraction]


def lowest_terms(cols: list[Column], den: int = 1) -> tuple[list[dict[int, int]], int]:
    """(int columns, den) in lowest terms for the matrix cols / den."""
    values = chain.from_iterable(map(dict.values, cols))
    if not {int}.issuperset(map(type, values)):  # some entry is not an int
        # _canonical rejects a bool or a float entry with TypeError.
        scale = lcm(*(_canonical(v).denominator for col in cols for v in col.values()))
        cols = [{i: v.numerator * (scale // v.denominator) for i, v in col.items()}
                for col in cols]
        den *= scale
    return cancel_den(cols, den)


def cancel_den(cols: list[dict[int, int]], den: int) -> tuple[list[dict[int, int]], int]:
    """Int columns over den with the gcd of den and every entry divided out."""
    g = gcd(den, *chain.from_iterable(map(dict.values, cols))) if den > 1 else 1
    if g > 1:
        cols = [{i: v // g for i, v in col.items()} for col in cols]
        den //= g
    return cols, den


def columns_to_int_rows(cols: list[Column]) -> list[dict[int, int]]:
    """Transpose sparse columns, cleared of denominators by `lowest_terms`,
    into integer rows; `_eliminate` divides each row it updates by its gcd."""
    rows: dict[int, dict[int, int]] = {}
    for j, col in enumerate(lowest_terms(cols)[0]):
        for i, value in col.items():
            if value:
                rows.setdefault(i, {})[j] = value
    return list(rows.values())


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


def _subtract(row: dict, i: int, factor, pivot_items: list, holders: dict) -> None:
    """row i -= factor * pivot row, keeping `holders` current.

    The pivot column is not in `pivot_items`; the caller has popped it.
    """
    for j, v in pivot_items:
        old = row.get(j)
        if old is None:
            row[j] = -factor * v
            holders[j].append(i)
        else:
            s = old - factor * v
            if s:
                row[j] = s
            else:
                del row[j]
                holders[j].remove(i)


def _eliminate(rows: dict[int, dict[int, int]],
               rhs: dict[int, dict[int, int]]) -> list[tuple]:
    """Eliminate integer rows in place, and their right-hand sides in rhs.

    Returns the pivots in order as (column, value, rest of the pivot row,
    row index).  A pivot row holds no column pivoted before it.
    """
    holders: dict[int, list[int]] = {}
    for i, row in rows.items():
        for j in row:
            holders.setdefault(j, []).append(i)
    pivots = []
    for pcol in sorted(holders):
        held = holders.pop(pcol)
        if not held:
            continue
        p = min(held, key=lambda i: len(rows[i]))
        held.remove(p)
        pivot_row = rows.pop(p)
        pivot_val = pivot_row.pop(pcol)
        for j in pivot_row:
            holders[j].remove(p)
        pivot_items = list(pivot_row.items())
        pivots.append((pcol, pivot_val, pivot_items, p))
        for i in held:
            row = rows[i]
            factor = row.pop(pcol)
            g = gcd(pivot_val, factor)
            scale, factor = pivot_val // g, factor // g
            if scale != 1:
                for j in row:
                    row[j] *= scale
            _subtract(row, i, factor, pivot_items, holders)
            if rhs:  # the right-hand side takes the same update
                b = rhs[i]
                for k in b:
                    b[k] *= scale
                accumulate(b, -factor, rhs[p])
                g = gcd(*row.values(), *b.values())
                if g > 1:
                    for k in b:
                        b[k] //= g
            else:
                g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
    return pivots


def sparse_rank(cols: list[Column], nrows: int) -> int:
    """Exact rank: the number of pivots of the fraction-free elimination."""
    return len(_eliminate(dict(enumerate(columns_to_int_rows(cols))), {}))


def solve_square(phi_cols: list[Column], size: int,
                 rhs_cols: list[Column]) -> tuple[list[dict[int, int]], int]:
    """Solve phi * X = rhs column by column, exactly.

    Returns (int columns, den) in lowest terms with X = columns / den.
    Raises ValueError when phi is singular, with the pivot count as its
    `rank`; callers wrap this into a domain error.
    """
    rows, rhs = {}, {}
    for i, entries in enumerate(columns_to_int_rows(phi_cols + rhs_cols)):
        row = {j: v for j, v in entries.items() if j < size}
        if row:  # a row with no phi entry holds no pivot
            rows[i] = row
            rhs[i] = {j - size: v for j, v in entries.items() if j >= size}
    pivots = _eliminate(rows, rhs)
    if len(pivots) < size:
        exc = ValueError(f"singular block: rank {len(pivots)} of {size}")
        exc.rank = len(pivots)
        raise exc

    # Back-substitute in reverse pivot order: every other column of a pivot
    # row was pivoted later, so its solution x[j] = num[j] / den[j] is
    # already known.  Each step brings its terms to the lcm of their dens
    # and cancels one gcd, so every solution is in lowest terms.
    num: dict[int, dict[int, int]] = {}
    den: dict[int, int] = {}
    for pcol, pivot_val, pivot_items, p in reversed(pivots):
        scale = lcm(*(den[j] for j, _ in pivot_items))
        acc = rhs[p]
        if scale != 1:
            acc = {k: scale * v for k, v in acc.items()}
        for j, a in pivot_items:
            accumulate(acc, -a * (scale // den[j]), num[j])
        d = scale * pivot_val
        g = gcd(d, *acc.values())
        if d < 0:
            g = -g
        if g != 1:
            acc = {k: v // g for k, v in acc.items()}
        num[pcol], den[pcol] = acc, d // g
    # One den for all columns; each num[j] / den[j] is in lowest terms, so
    # the scaled numerators over their lcm are too.
    common = lcm(*den.values())
    solutions: list[dict[int, int]] = [dict() for _ in rhs_cols]
    for j in sorted(num):
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
