"""Polynomial tensor fields on R^3 and the epsilon/delta constants.

Indices are 1-based throughout the public API, matching the usual tensor
notation.  The flat metric is the identity, so no distinction is made between
upper and lower indices.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .poly import Poly3, Scalar, _check_axis, monomials_up_to

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


def _as_poly(value: Poly3 | Scalar) -> Poly3:
    if isinstance(value, Poly3):
        return value
    return Poly3.constant(value)


@dataclass(frozen=True)
class VecField:
    """Vector field with three polynomial components."""

    components: tuple[Poly3, Poly3, Poly3]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(_as_poly(c) for c in self.components))
        if len(self.components) != 3:
            raise ValueError("a vector field has exactly three components")

    @classmethod
    def of(cls, c1: Poly3 | Scalar, c2: Poly3 | Scalar, c3: Poly3 | Scalar) -> "VecField":
        return cls((_as_poly(c1), _as_poly(c2), _as_poly(c3)))

    @classmethod
    def zero(cls) -> "VecField":
        return cls.of(0, 0, 0)

    @classmethod
    def basis(cls, i: int) -> "VecField":
        return cls.of(*(1 if i == j else 0 for j in AXES))

    def comp(self, i: int) -> Poly3:
        return self.components[_check_axis(i) - 1]

    def __add__(self, other: "VecField") -> "VecField":
        return VecField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VecField") -> "VecField":
        return VecField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VecField":
        return VecField(tuple(-a for a in self.components))

    def scaled(self, c: Scalar) -> "VecField":
        return VecField(tuple(a * c for a in self.components))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.components)

    def evaluate(self, point: Sequence[Scalar]) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(p.evaluate(point) for p in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components) + ")"


@dataclass(frozen=True)
class Mat3Field:
    """3x3 matrix of polynomials, stored row-major."""

    rows: tuple[tuple[Poly3, Poly3, Poly3], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(_as_poly(p) for p in row) for row in self.rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("a matrix field has shape 3x3")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_entries(cls, entry: Callable[[int, int], Poly3 | Scalar]) -> "Mat3Field":
        return cls(tuple(tuple(_as_poly(entry(i, j)) for j in AXES) for i in AXES))

    @classmethod
    def zero(cls) -> "Mat3Field":
        return cls.from_entries(lambda i, j: 0)

    @classmethod
    def identity(cls) -> "Mat3Field":
        return cls.from_entries(lambda i, j: delta(i, j))

    @classmethod
    def unit(cls, i: int, j: int, coef: Poly3 | Scalar = 1) -> "Mat3Field":
        p = _as_poly(coef)
        return cls.from_entries(lambda a, b: p if (a, b) == (i, j) else 0)

    def entry(self, i: int, j: int) -> Poly3:
        return self.rows[_check_axis(i) - 1][_check_axis(j) - 1]

    def row(self, i: int) -> VecField:
        return VecField(self.rows[_check_axis(i) - 1])

    def column(self, j: int) -> VecField:
        _check_axis(j)
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
        return all((self.entry(i, j) - self.entry(j, i)).is_zero()
                   for i in AXES for j in AXES if i < j)

    def __add__(self, other: "Mat3Field") -> "Mat3Field":
        return Mat3Field.from_entries(lambda i, j: self.entry(i, j) + other.entry(i, j))

    def __sub__(self, other: "Mat3Field") -> "Mat3Field":
        return Mat3Field.from_entries(lambda i, j: self.entry(i, j) - other.entry(i, j))

    def __neg__(self) -> "Mat3Field":
        return Mat3Field.from_entries(lambda i, j: -self.entry(i, j))

    def scaled(self, c: Scalar) -> "Mat3Field":
        return Mat3Field.from_entries(lambda i, j: self.entry(i, j) * c)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.rows for p in row)

    @property
    def degree(self) -> int:
        return max(p.degree for row in self.rows for p in row)

    def __str__(self) -> str:
        return "[" + "; ".join(str(self.row(i)) for i in AXES) + "]"


# Upper-triangle component order shared by storage and serialization.
SYM_INDEX_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
_SYM_POS = {pair: k for k, pair in enumerate(SYM_INDEX_PAIRS)}


@dataclass(frozen=True)
class SymField:
    """Symmetric 2-tensor field; stores the six upper-triangle components."""

    upper: tuple[Poly3, Poly3, Poly3, Poly3, Poly3, Poly3]

    def __post_init__(self) -> None:
        upper = tuple(_as_poly(p) for p in self.upper)
        if len(upper) != 6:
            raise ValueError("a symmetric field stores six components")
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_entries(cls, entry: Callable[[int, int], Poly3 | Scalar]) -> "SymField":
        return cls(tuple(_as_poly(entry(i, j)) for i, j in SYM_INDEX_PAIRS))

    @classmethod
    def from_matrix(cls, mat: Mat3Field) -> "SymField":
        """Repackage a symmetric Mat3Field; rejects non-symmetric input."""
        if not mat.is_symmetric():
            raise ValueError("matrix is not symmetric; refusing to symmetrize silently")
        return cls.from_entries(mat.entry)

    @classmethod
    def zero(cls) -> "SymField":
        return cls.from_entries(lambda i, j: 0)

    @classmethod
    def identity(cls) -> "SymField":
        return cls.from_entries(delta)

    @classmethod
    def unit(cls, i: int, j: int, coef: Poly3 | Scalar = 1) -> "SymField":
        p = _as_poly(coef)
        return cls.from_entries(lambda a, b: p if (min(i, j), max(i, j)) == (a, b) else 0)

    def entry(self, i: int, j: int) -> Poly3:
        _check_axis(i), _check_axis(j)
        return self.upper[_SYM_POS[(min(i, j), max(i, j))]]

    def as_matrix(self) -> Mat3Field:
        return Mat3Field.from_entries(self.entry)

    def trace(self) -> Poly3:
        return self.entry(1, 1) + self.entry(2, 2) + self.entry(3, 3)

    def __add__(self, other: "SymField") -> "SymField":
        return SymField(tuple(a + b for a, b in zip(self.upper, other.upper)))

    def __sub__(self, other: "SymField") -> "SymField":
        return SymField(tuple(a - b for a, b in zip(self.upper, other.upper)))

    def __neg__(self) -> "SymField":
        return SymField(tuple(-a for a in self.upper))

    def scaled(self, c: Scalar) -> "SymField":
        return SymField(tuple(a * c for a in self.upper))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.upper)

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.upper)

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

RANDOM_KINDS = ("scalar", "vec", "sym", "mat")
_COEF_RANGE = (-3, 3)


def _seeded_rng(kind: str, degree: int, seed: int) -> random.Random:
    # Hash-derived seed: stable across processes, unlike hash() on strings.
    material = f"{kind}:{degree}:{seed}".encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _random_poly(rng: random.Random, degree: int) -> Poly3:
    terms = {}
    for exp in monomials_up_to(degree):
        c = rng.randint(*_COEF_RANGE)
        if c:
            terms[exp] = c
    return Poly3(terms)


def random_field(kind: str, degree: int, seed: int):
    """Deterministic pseudo-random field of the requested kind and degree.

    Every monomial of total degree <= degree receives a small integer
    coefficient; the same (kind, degree, seed) triple reproduces the exact
    same field in any process.
    """
    if kind not in RANDOM_KINDS:
        raise ValueError(f"kind must be one of {RANDOM_KINDS}, got {kind!r}")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = _seeded_rng(kind, degree, seed)
    if kind == "scalar":
        return _random_poly(rng, degree)
    if kind == "vec":
        return VecField(tuple(_random_poly(rng, degree) for _ in AXES))
    if kind == "sym":
        return SymField(tuple(_random_poly(rng, degree) for _ in SYM_INDEX_PAIRS))
    return Mat3Field(tuple(tuple(_random_poly(rng, degree) for _ in AXES) for _ in AXES))


def random_point(seed: int, span: int = 6) -> tuple[Fraction, Fraction, Fraction]:
    """Deterministic rational point with small numerators and denominators."""
    rng = _seeded_rng("point", span, seed)
    coords = []
    for _ in range(3):
        num = rng.randint(-span, span)
        den = rng.randint(1, 4)
        coords.append(Fraction(num, den))
    return tuple(coords)
