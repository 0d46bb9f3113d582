"""Polynomial tensor fields on R^3 and the epsilon/delta constants.

Indices are 1-based throughout the public API, matching the usual tensor
notation.  The flat metric is the identity, so no distinction is made between
upper and lower indices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .poly import Poly3, Scalar, _as_int, _check_axis, _coerce, _monomial_table

AXES = (1, 2, 3)

# Totally antisymmetric epsilon with eps(1,2,3) = 1; delta is the identity.
_EPS_NONZERO = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


def eps(i: int, j: int, k: int) -> int:
    return _EPS_NONZERO.get((i, j, k), 0)


def delta(i: int, j: int) -> int:
    return 1 if i == j else 0


class _Value:
    """Value semantics read from `__slots__`, a class's field names in
    constructor order: same-class field-wise ==, a hash of the fields and the
    repr `Name(field=value, ...)`.

    Values are frozen: `__init__` sets each field once with
    object.__setattr__, and assignment or deletion afterwards raises
    AttributeError.  A mutable record derives from `_Record` instead.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self.__slots__:
            if not getattr(self, name) == getattr(other, name):
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
                + ")")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assigning fields.
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Record(_Value):
    """A mutable record: fields may be reassigned, so it has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class _Field(_Value):
    """Linear structure shared by every field kind, written once.

    A kind declares `KIND` and `KEYS`, the file-format labels of its Poly3
    components in storage order, plus two hooks: `parts`, those components
    as a flat tuple in `KEYS` order, and `from_parts`, which rebuilds the
    field from such a tuple.  `KEYS` is the one place a component order is
    spelled; serialization and matrix coordinates read it from here.
    """

    __slots__ = ()

    KIND: str
    KEYS: tuple[str, ...]

    @classmethod
    def zero(cls):
        return cls.from_parts((Poly3(),) * len(cls.KEYS))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_parts(tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_parts(tuple(a - b for a, b in zip(self.parts, other.parts)))

    def __neg__(self):
        return self.from_parts(tuple(-a for a in self.parts))

    def scaled(self, c: Scalar):
        return self.from_parts(tuple(a * c for a in self.parts))

    def numerators(self):
        """(N, L) with self = N / L: L is the lcm of all coefficient
        denominators, so N has integer coefficients."""
        den = lcm(*(c.denominator for p in self.parts for c in p.terms.values()))
        return self.scaled(den), den

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.parts)


class VecField(_Field):
    """Vector field with three polynomial components."""

    __slots__ = ("components",)
    KIND = "vec"
    KEYS = tuple(str(i) for i in AXES)

    def __init__(self, components: Sequence[Poly3 | Scalar]) -> None:
        components = tuple(_coerce(c) for c in components)
        if len(components) != 3:
            raise ValueError("a vector field has exactly three components")
        object.__setattr__(self, "components", components)

    @classmethod
    def of(cls, c1: Poly3 | Scalar, c2: Poly3 | Scalar, c3: Poly3 | Scalar) -> "VecField":
        return cls((c1, c2, c3))

    @property
    def parts(self) -> tuple[Poly3, ...]:
        return self.components

    @classmethod
    def from_parts(cls, parts: Sequence[Poly3]) -> "VecField":
        return cls(parts)

    @classmethod
    def basis(cls, i: int) -> "VecField":
        return cls.of(*(1 if i == j else 0 for j in AXES))

    def comp(self, i: int) -> Poly3:
        return self.components[_check_axis(i) - 1]

    def evaluate(self, point: Sequence[Scalar]) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(p.evaluate(point) for p in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components) + ")"


class Mat3Field(_Field):
    """3x3 matrix of polynomials, stored row-major."""

    __slots__ = ("rows",)
    KIND = "mat"
    KEYS = tuple(f"{i}{j}" for i in AXES for j in AXES)

    def __init__(self, rows: Sequence[Sequence[Poly3 | Scalar]]) -> None:
        rows = tuple(tuple(_coerce(p) for p in row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("a matrix field has shape 3x3")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_entries(cls, entry: Callable[[int, int], Poly3 | Scalar]) -> "Mat3Field":
        return cls(tuple(tuple(entry(i, j) for j in AXES) for i in AXES))

    @property
    def parts(self) -> tuple[Poly3, ...]:
        return self.rows[0] + self.rows[1] + self.rows[2]

    @classmethod
    def from_parts(cls, parts: Sequence[Poly3]) -> "Mat3Field":
        return cls((parts[0:3], parts[3:6], parts[6:9]))

    @classmethod
    def identity(cls) -> "Mat3Field":
        return cls.from_entries(lambda i, j: delta(i, j))

    @classmethod
    def unit(cls, i: int, j: int, coef: Poly3 | Scalar = 1) -> "Mat3Field":
        return cls.from_entries(lambda a, b: coef if (a, b) == (i, j) else 0)

    def entry(self, i: int, j: int) -> Poly3:
        return self.rows[_check_axis(i) - 1][_check_axis(j) - 1]

    def row(self, i: int) -> VecField:
        return VecField(self.rows[_check_axis(i) - 1])

    def column(self, j: int) -> VecField:
        j = _check_axis(j)
        return VecField(tuple(self.rows[i - 1][j - 1] for i in AXES))

    def transpose(self) -> "Mat3Field":
        return Mat3Field.from_entries(lambda i, j: self.entry(j, i))

    def trace(self) -> Poly3:
        return self.entry(1, 1) + self.entry(2, 2) + self.entry(3, 3)

    def sym_part(self) -> "Mat3Field":
        return Mat3Field.from_entries(
            lambda i, j: (self.entry(i, j) + self.entry(j, i)) / 2)

    def skew_part(self) -> "Mat3Field":
        return Mat3Field.from_entries(
            lambda i, j: (self.entry(i, j) - self.entry(j, i)) / 2)

    def is_symmetric(self) -> bool:
        (_, m12, m13), (m21, _, m23), (m31, m32, _) = self.rows
        return m12 == m21 and m13 == m31 and m23 == m32

    def __str__(self) -> str:
        return "[" + "; ".join(str(self.row(i)) for i in AXES) + "]"


# Upper-triangle component order shared by storage and serialization.
SYM_INDEX_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
_SYM_POS = {pair: k for k, pair in enumerate(SYM_INDEX_PAIRS)}


class SymField(_Field):
    """Symmetric 2-tensor field; stores the six upper-triangle components."""

    __slots__ = ("upper",)
    KIND = "sym"
    KEYS = tuple(f"{i}{j}" for i, j in SYM_INDEX_PAIRS)

    def __init__(self, upper: Sequence[Poly3 | Scalar]) -> None:
        upper = tuple(_coerce(p) for p in upper)
        if len(upper) != 6:
            raise ValueError("a symmetric field stores six components")
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_entries(cls, entry: Callable[[int, int], Poly3 | Scalar]) -> "SymField":
        return cls(tuple(entry(i, j) for i, j in SYM_INDEX_PAIRS))

    @classmethod
    def from_matrix(cls, mat: Mat3Field) -> "SymField":
        """Repackage a symmetric Mat3Field; rejects non-symmetric input."""
        if not mat.is_symmetric():
            raise ValueError("matrix is not symmetric; refusing to symmetrize silently")
        return cls.from_entries(mat.entry)

    @property
    def parts(self) -> tuple[Poly3, ...]:
        return self.upper

    @classmethod
    def from_parts(cls, parts: Sequence[Poly3]) -> "SymField":
        return cls(parts)

    @classmethod
    def identity(cls) -> "SymField":
        return cls.from_entries(delta)

    @classmethod
    def unit(cls, i: int, j: int, coef: Poly3 | Scalar = 1) -> "SymField":
        return cls.from_entries(lambda a, b: coef if (min(i, j), max(i, j)) == (a, b) else 0)

    def entry(self, i: int, j: int) -> Poly3:
        i, j = _check_axis(i), _check_axis(j)
        return self.upper[_SYM_POS[(min(i, j), max(i, j))]]

    def as_matrix(self) -> Mat3Field:
        return Mat3Field.from_entries(self.entry)

    def trace(self) -> Poly3:
        return self.entry(1, 1) + self.entry(2, 2) + self.entry(3, 3)

    def __str__(self) -> str:
        return self.as_matrix().__str__()


def axial_vector(mat: Mat3Field) -> VecField:
    """Axial vector of the skew part: s_i = (1/2) eps_i^{jk} M_{jk}."""
    comps = []
    for i in AXES:
        total = Poly3()
        for j in AXES:
            for k in AXES:
                e = eps(i, j, k)
                if e:
                    total = total + mat.entry(j, k) * Fraction(e, 2)
        comps.append(total)
    return VecField(tuple(comps))


def skew_from_axial(vec: VecField) -> Mat3Field:
    """Inverse identification: M_{jk} = eps_{jk}^i s_i."""
    return Mat3Field.from_entries(
        lambda j, k: sum((vec.comp(i) * eps(j, k, i) for i in AXES), Poly3()))


# -- deterministic random fields ------------------------------------------

_RANDOM_TYPES = {t.KIND: t for t in (VecField, SymField, Mat3Field)}
RANDOM_KINDS = ("scalar", *_RANDOM_TYPES)
_COEF_RANGE = (-3, 3)
# randint(lo, hi) keeps the top k bits of one 32-bit generator word, k the
# bit length of the width w = hi - lo + 1, and draws a new word while they
# read w or more.  For w < 256 that is, on the top byte b of a word,
# lo + (b >> (8 - k)), rejected when b >= w << (8 - k): here lo + (b >> 5),
# rejected for b >= 224.
_COEF_SHIFT = 8 - (_COEF_RANGE[1] - _COEF_RANGE[0] + 1).bit_length()
_COEF_REJECT = (_COEF_RANGE[1] - _COEF_RANGE[0] + 1) << _COEF_SHIFT
# Numerators of random_point coordinates lie in [-_POINT_SPAN, _POINT_SPAN];
# the span is also part of the point seed material.
_POINT_SPAN = 6


def _seeded_rng(kind: str, degree: int, seed: int) -> random.Random:
    # Hash-derived seed: stable across processes, unlike hash() on strings.
    # blake2b is imported here, by its one user, to keep it out of start-up.
    # CPython's builtin _blake2 module holds the very blake2b that hashlib
    # exports (hashlib itself imports it from there), without loading
    # OpenSSL's _hashlib as `import hashlib` does.
    from _blake2 import blake2b

    material = f"{kind}:{degree}:{seed}".encode()
    digest = blake2b(material, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _random_poly(rng: random.Random, degree: int) -> Poly3:
    """One coefficient per monomial of `_monomial_table(degree)`, each the
    value rng.randint(*_COEF_RANGE) would return, leaving rng in the same state.

    The words come in batches: getrandbits(32 * n) is the next n generator
    words, word i in bytes 4i..4i+3 of its little-endian bytes, so byte 4i + 3
    is the top byte of word i.  Each rejected word costs randint one more
    word, so the next batch draws exactly as many words as were rejected.
    """
    exps = _monomial_table(degree)
    lo, shift, reject = _COEF_RANGE[0], _COEF_SHIFT, _COEF_REJECT
    coefs: list[int] = []
    need = len(exps)
    while need:
        top = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        coefs += [lo + (b >> shift) for b in top if b < reject]
        need = len(exps) - len(coefs)
    # The exponents are a monomial table's and the coefficients nonzero
    # ints, so the terms are canonical as they stand.
    return Poly3._of({exp: c for exp, c in zip(exps, coefs) if c})


def random_field(kind: str, degree: int, seed: int):
    """Deterministic pseudo-random field of the requested kind and degree.

    Every monomial of total degree <= degree receives a small integer
    coefficient, in ascending graded lex order and component by component:
    each equals what random.Random.randint(-3, 3) returns from the same
    generator state, on every supported Python.  So the same (kind, degree,
    seed) triple reproduces the exact same field in any process.  degree and
    seed are integers, never bools or floats (TypeError).
    """
    degree, seed = _as_int(degree, "degree"), _as_int(seed, "seed")
    if kind not in RANDOM_KINDS:
        raise ValueError(f"kind must be one of {RANDOM_KINDS}, got {kind!r}")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = _seeded_rng(kind, degree, seed)
    if kind == "scalar":
        return _random_poly(rng, degree)
    T = _RANDOM_TYPES[kind]
    return T.from_parts(tuple(_random_poly(rng, degree) for _ in T.KEYS))


def _random_rationals(rng: random.Random, count: int, span: int,
                      max_den: int) -> list[Fraction]:
    """`count` rationals n/d, n in [-span, span] and d in [1, max_den], each
    drawn numerator first."""
    return [Fraction(rng.randint(-span, span), rng.randint(1, max_den))
            for _ in range(count)]


def random_point(seed: int) -> tuple[Fraction, Fraction, Fraction]:
    """Deterministic rational point with small numerators and denominators."""
    rng = _seeded_rng("point", _POINT_SPAN, _as_int(seed, "seed"))
    return tuple(_random_rationals(rng, 3, _POINT_SPAN, 4))
