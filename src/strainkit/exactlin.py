"""Exact sparse linear algebra over the rationals.

Matrices live as lists of sparse columns ({row: value}).  Operator matrices
hold ints (a `LinOpMatrix` keeps one denominator beside them); Fractions
enter only through `solve_square` output and field coordinates.  One
fraction-free elimination serves rank and solve: rows are scaled to
integers, each update ``row = a*row - b*pivot_row`` keeps them integral, and
a gcd division after every update bounds coefficient growth.  The rank is
the number of pivots.  `solve_square` eliminates the rows of [phi | rhs],
then back-substitutes in reverse pivot order, dividing once per pivot.

A `_PivotIndex` lives across the elimination: for every column the rows
holding it, and the rows not yet used as pivots bucketed by length.  A step
touches only the rows listed under its pivot column, so no step rescans the
matrix.  The pivot is a shortest waiting row and, in it, the column held by
the fewest rows: a cheap Markowitz-style bound on fill.

The pivot order changes the work, never the answer: the number of pivots is
the rank whatever their order, and an invertible block has one solution.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

# Ints in operator matrices; Fractions in solutions and field coordinates.
Column = dict[int, int | Fraction]


def lowest_terms(cols: list[Column], den: int = 1) -> tuple[list[dict[int, int]], int]:
    """(int columns, den) in lowest terms for the matrix cols / den."""
    if not all(type(v) is int for col in cols for v in col.values()):
        scale = lcm(*(v.denominator for col in cols for v in col.values()))
        cols = [{i: v.numerator * (scale // v.denominator) for i, v in col.items()}
                for col in cols]
        den *= scale
    g = gcd(den, *chain.from_iterable(map(dict.values, cols))) if den > 1 else 1
    if g > 1:
        cols = [{i: v // g for i, v in col.items()} for col in cols]
        den //= g
    return cols, den


def columns_to_int_rows(cols: list[Column]) -> list[dict[int, int]]:
    """Transpose sparse columns into integer rows, each divided by its gcd."""
    rows: dict[int, dict[int, int]] = {}
    for j, col in enumerate(lowest_terms(cols)[0]):
        for i, value in col.items():
            if value:
                rows.setdefault(i, {})[j] = value
    out = []
    for ints in rows.values():
        g = gcd(*ints.values())
        if g > 1:
            ints = {j: v // g for j, v in ints.items()}
        out.append(ints)
    return out


class _PivotIndex:
    """Rows holding each column, and the waiting rows bucketed by length.

    A waiting row is one not yet used as a pivot.  Callers report every
    entry a step adds to or removes from a row (`holders`) and every row
    whose length changed (`resize`), so both maps stay exact.
    """

    __slots__ = ("rows", "holders", "by_len", "shortest", "waiting")

    def __init__(self, rows: dict[int, dict]):
        self.rows = rows
        self.holders: dict[int, list[int]] = {}
        self.by_len: dict[int, set[int]] = {}
        self.shortest = 1  # no waiting row is shorter
        self.waiting = len(rows)
        for i, row in rows.items():
            for j in row:
                if j in self.holders:
                    self.holders[j].append(i)
                else:
                    self.holders[j] = [i]
            self.by_len.setdefault(len(row), set()).add(i)

    def choose(self) -> tuple[int, int] | None:
        """A shortest waiting row and its least-held column; None if none wait."""
        if not self.waiting:
            return None
        n = self.shortest
        while not self.by_len.get(n):
            n += 1
        self.shortest = n
        i = next(iter(self.by_len[n]))
        best, fewest = -1, 0
        for j in self.rows[i]:
            held = len(self.holders[j])
            if held == 1:
                return i, j
            if best < 0 or held < fewest:
                best, fewest = j, held
        return i, best

    def retire(self, i: int) -> None:
        """Row i, as last resized, stops waiting: it is the next pivot row."""
        self.by_len[len(self.rows[i])].remove(i)
        self.waiting -= 1

    def resize(self, i: int, old: int, n: int) -> None:
        """Waiting row i went from old to n entries; at 0 it stops waiting."""
        if old == n:
            return
        self.by_len[old].remove(i)
        if not n:
            self.waiting -= 1
            return
        self.by_len.setdefault(n, set()).add(i)
        if n < self.shortest:
            self.shortest = n


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
    index = _PivotIndex(rows)
    holders = index.holders
    pivots = []
    while (pivot := index.choose()) is not None:
        p, pcol = pivot
        index.retire(p)
        pivot_row = rows.pop(p)
        for j in pivot_row:
            holders[j].remove(p)
        pivot_val = pivot_row.pop(pcol)
        pivot_items = list(pivot_row.items())
        pivots.append((pcol, pivot_val, pivot_items, p))
        for i in holders.pop(pcol):
            row = rows[i]
            old = len(row)
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
            index.resize(i, old, len(row))
    return pivots


def sparse_rank(cols: list[Column], nrows: int) -> int:
    """Exact rank: the number of pivots of the fraction-free elimination."""
    return len(_eliminate(dict(enumerate(columns_to_int_rows(cols))), {}))


def solve_square(phi_cols: list[Column], size: int,
                 rhs_cols: list[Column]) -> list[Column]:
    """Solve phi * X = rhs column by column, exactly.

    Returns the solution columns.  Raises ValueError when phi is singular,
    with the pivot count as its `rank`; callers wrap this into a domain error.
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
    # row was pivoted later, so its solution is already known.
    x: dict[int, Column] = {}
    for pcol, pivot_val, pivot_items, p in reversed(pivots):
        acc: Column = dict(rhs[p])
        for j, a in pivot_items:
            accumulate(acc, -a, x[j])
        if pivot_val != 1:
            acc = {k: Fraction(v, pivot_val) for k, v in acc.items()}
        x[pcol] = acc
    solutions: list[Column] = [dict() for _ in rhs_cols]
    for j in sorted(x):
        for k, v in x[j].items():
            solutions[k][j] = v
    return solutions


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
