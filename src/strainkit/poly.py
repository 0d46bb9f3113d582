"""Sparse polynomials in three variables over exact rationals.

A polynomial is a finite map from exponent triples (a1, a2, a3) to nonzero
rational coefficients.  A coefficient is stored as an int when it is
integral and as a Fraction with denominator > 1 otherwise; `_canonical`
enforces this form on every path that stores a coefficient, so integer
polynomials are added, multiplied and differentiated without building any
Fraction.  It also checks the exact scalars a caller passes to the point,
vector, two-form and stencil entries of the package: an int or a Fraction,
never a float or a bool.  An int compares and hashes like the equal Fraction, and
`coefficient`/`evaluate` return Fractions; `second_jets` returns the
values and first and second partials of several polynomials at a point as
integers over one common denominator.  The zero polynomial is the empty
map and has degree -1 by convention.  Monomials are ordered
graded-lexicographically with x1 > x2 > x3; display lists the leading term
first.

`Poly3` values are immutable: no code changes `.terms` once a polynomial is
built.  So an operation may return one of its operands, or the shared ZERO,
instead of a copy: p + 0, 0 + p and p - 0 return p, p * 1 returns p, and a
product with a constant polynomial takes the scalar path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Sequence, Union

Exponent = tuple[int, int, int]
Scalar = Union[int, Fraction]

ZERO_EXP: Exponent = (0, 0, 0)


def _canonical(value: Scalar) -> Scalar:
    """A rational as an int when integral, else as a Fraction with denominator > 1."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(value).__name__}")


def grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    """Sort key realising graded lex order with x1 > x2 > x3 (ascending)."""
    return (exp[0] + exp[1] + exp[2], exp)


class Poly3:
    """Sparse polynomial in x1, x2, x3 with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        cleaned: dict[Exponent, Scalar] = {}
        if terms:
            for exp, coef in terms.items():
                if len(exp) != 3:
                    raise ValueError(f"exponent needs 3 entries, got {exp!r}")
                a1, a2, a3 = exp
                if type(a1) is not int or type(a2) is not int or type(a3) is not int:
                    raise TypeError(f"exponent entries must be ints, got {exp!r}")
                if a1 < 0 or a2 < 0 or a3 < 0:
                    raise ValueError(f"negative exponent in {exp}")
                c = _canonical(coef)
                if c:
                    cleaned[(a1, a2, a3)] = c
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "Poly3":
        return cls({ZERO_EXP: value})

    @classmethod
    def variable(cls, axis: int) -> "Poly3":
        """The coordinate polynomial x_axis, axis in 1..3."""
        _check_axis(axis)
        exp = [0, 0, 0]
        exp[axis - 1] = 1
        return cls({tuple(exp): 1})

    @classmethod
    def monomial(cls, exp: Exponent, coef: Scalar = 1) -> "Poly3":
        return cls({exp: coef})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly3 | Scalar") -> "Poly3":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            s = out.get(exp, 0) + coef
            if s:
                out[exp] = s if type(s) is int else _canonical(s)
            else:
                del out[exp]
        res = Poly3.__new__(Poly3)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        res = Poly3.__new__(Poly3)
        res.terms = {exp: -coef for exp, coef in self.terms.items()}
        return res

    def __sub__(self, other: "Poly3 | Scalar") -> "Poly3":
        other = _coerce(other)
        if not other.terms:
            return self
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly3":
        return _coerce(other) - self

    def __mul__(self, other: "Poly3 | Scalar") -> "Poly3":
        if not isinstance(other, Poly3):
            return self._scaled(_canonical(other))
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        # A constant factor takes the scalar path through _scaled, not through a
        # second __mul__, so a product stays one __mul__ call (perfbench counts them).
        if len(b) == 1 and ZERO_EXP in b:
            return self._scaled(b[ZERO_EXP])
        if len(a) == 1 and ZERO_EXP in a:
            return other._scaled(a[ZERO_EXP])
        out: dict[Exponent, Scalar] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s if type(s) is int else _canonical(s)
                else:
                    del out[exp]
        res = Poly3.__new__(Poly3)
        res.terms = out
        return res

    __rmul__ = __mul__

    def _scaled(self, c: Scalar) -> "Poly3":
        """self * c for a canonical scalar c; self itself when c is 1."""
        if c == 1:
            return self
        if not c:
            return ZERO
        out = {}
        for exp, coef in self.terms.items():
            v = coef * c
            out[exp] = v if type(v) is int else _canonical(v)
        res = Poly3.__new__(Poly3)
        res.terms = out
        return res

    def __truediv__(self, other: Scalar) -> "Poly3":
        c = _canonical(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = _coerce(other)
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b + c for a, b, c in self.terms)

    def coefficient(self, exp: Exponent) -> Fraction:
        return Fraction(self.terms.get(tuple(exp), 0))

    def partial(self, axis: int) -> "Poly3":
        """Exact partial derivative with respect to x_axis (axis in 1..3)."""
        _check_axis(axis)
        i = axis - 1
        out: dict[Exponent, Scalar] = {}
        for exp, coef in self.terms.items():
            a = exp[i]
            if a == 0:
                continue
            new = list(exp)
            new[i] = a - 1
            v = coef * a
            out[tuple(new)] = v if type(v) is int else _canonical(v)
        res = Poly3.__new__(Poly3)
        res.terms = out
        return res

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (p1, p2, p3).

        Runs in integers over one common denominator (see `_int_frame`):
        the value is sum (L c) prod_i n_i^a_i d_i^(D_i - a_i) / denom.
        """
        scale, denom, (pw1, pw2, pw3) = _int_frame((self,), point, 0)
        total = 0
        for (a, b, c), coef in self.terms.items():
            total += coef.numerator * (scale // coef.denominator) * pw1[a] * pw2[b] * pw3[c]
        return Fraction(total, denom)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grlex_key, reverse=True):
            coef = self.terms[exp]
            mono = "*".join(
                f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}"
                for i, a in enumerate(exp)
                if a > 0
            )
            if not mono:
                body = str(abs(coef))
            elif abs(coef) == 1:
                body = mono
            else:
                body = f"{abs(coef)}*{mono}"
            sign = "-" if coef < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly3({self})"


def _coerce(value: "Poly3 | Scalar") -> Poly3:
    if isinstance(value, Poly3):
        return value
    return Poly3.constant(value)


def _check_axis(axis: int) -> int:
    """Return axis if it is 1, 2 or 3; raise ValueError otherwise."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    return axis


def _int_frame(polys: Sequence[Poly3], point: Sequence[Scalar],
               reach: int) -> tuple[int, int, list[dict[int, int]]]:
    """Integer power tables of a rational point, shared by a set of polynomials.

    With p_i = n_i/d_i, D_i the largest exponent of x_i in any of the
    polynomials and L the lcm of all their coefficient denominators, returns
    (L, L prod_i d_i^D_i, tables) with tables[i] = {a: n_i^a d_i^(D_i - a)}.
    A table holds the exponents the terms use and the `reach` exponents just
    below each, never a range sized by the degree: a term x1^(10^8) adds
    at most 1 + reach entries, not 10^8.
    """
    if len(point) != 3:
        raise ValueError("a point must have exactly three coordinates")
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    denom = scale
    tables = []
    for i, v in enumerate(point):
        v = _canonical(v)
        used = {exp[i] for p in polys for exp in p.terms}
        if reach:
            used |= {a - s for a in used for s in range(1, min(a, reach) + 1)}
        top = max(used, default=0)
        n, d = v.numerator, v.denominator
        tables.append({a: n ** a * d ** (top - a) for a in used})
        denom *= d ** top
    return scale, denom, tables


def second_jets(polys: Sequence[Poly3],
                point: Sequence[Scalar]) -> tuple[int, list[tuple[int, ...]]]:
    """Values, first and second partials of polynomials at a rational point.

    Returns (D, rows) where rows[k] holds the integer numerators over the one
    common denominator D > 0 of polys[k] and its partials, in the order
    p, p_1, p_2, p_3, p_11, p_12, p_13, p_22, p_23, p_33 (p_ml = d_m d_l p).
    One pass over each polynomial's terms builds all ten; no partial
    polynomial and no Fraction is formed.
    """
    scale, denom, (pw1, pw2, pw3) = _int_frame(polys, point, 2)
    rows = []
    for poly in polys:
        v = v1 = v2 = v3 = v11 = v12 = v13 = v22 = v23 = v33 = 0
        for (a, b, c), coef in poly.terms.items():
            k = coef.numerator * (scale // coef.denominator)
            x, y, z = pw1[a], pw2[b], pw3[c]
            yz = y * z
            v += k * x * yz
            if a:
                ka = k * a
                x1 = pw1[a - 1]
                v1 += ka * x1 * yz
                if a > 1:
                    v11 += ka * (a - 1) * pw1[a - 2] * yz
                if b:
                    v12 += ka * b * x1 * pw2[b - 1] * z
                if c:
                    v13 += ka * c * x1 * y * pw3[c - 1]
            if b:
                kb = k * b
                y1 = pw2[b - 1]
                v2 += kb * x * y1 * z
                if b > 1:
                    v22 += kb * (b - 1) * x * pw2[b - 2] * z
                if c:
                    v23 += kb * c * x * y1 * pw3[c - 1]
            if c:
                kc = k * c
                z1 = pw3[c - 1]
                v3 += kc * x * y * z1
                if c > 1:
                    v33 += kc * (c - 1) * x * y * pw3[c - 2]
        rows.append((v, v1, v2, v3, v11, v12, v13, v22, v23, v33))
    return denom, rows


ZERO = Poly3()
ONE = Poly3.constant(1)
X1 = Poly3.variable(1)
X2 = Poly3.variable(2)
X3 = Poly3.variable(3)


def monomials_up_to(bound: int) -> list[Exponent]:
    """All exponent triples of total degree <= bound, ascending graded lex.

    A bound of -1 denotes the zero space and yields the empty list.  The
    list is a fresh copy of `_monomial_table(bound)`.
    """
    return list(_monomial_table(bound))


# typed: a float or bool bound gets its own entry and fails or works as it
# would uncached, instead of reading the table of the equal int.
@lru_cache(maxsize=None, typed=True)
def _monomial_table(bound: int) -> tuple[Exponent, ...]:
    """The exponent triples of `monomials_up_to(bound)`, built once per bound."""
    if bound < 0:
        return ()
    exps: list[Exponent] = []
    for total in range(bound + 1):
        for a1 in range(total + 1):
            for a2 in range(total - a1 + 1):
                exps.append((a1, a2, total - a1 - a2))
    exps.sort(key=grlex_key)
    return tuple(exps)
