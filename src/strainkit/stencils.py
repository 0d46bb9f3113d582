"""Constant-coefficient operators as stencils: tables of terms.

Every operator of the complexes has constant coefficients and order at most
two, so it is a finite table of terms

    (input slot, input component, output slot, output component, alpha, factor)

each saying that the output component receives factor * d^alpha of the
input component.  Components follow the `KEYS` order of their slot kind:
one for a scalar, axes 1..3 for a vector or axial (skew) slot, the upper
triangle for a symmetric slot and row-major entries for a matrix slot.  The
tables below are written from the index formulas with eps and delta, summed
over their nonzero factors only, and built on first use; the hand-written
field operators of `calculus` and `connection` are kept as an independent
reference for them.

`OPERATORS` is the one place an operator is declared: its slots, the kind
of field it acts on and its reference.  Its stencil sits under the same id.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Iterable, Sequence

from . import calculus, connection
from .fields import _EPS_NONZERO, AXES, SYM_INDEX_PAIRS, Mat3Field, SymField, _Value, delta
from .poly import Exponent, Scalar, _canonical

Term = tuple[int, int, int, int, Exponent, Scalar]
Stencil = tuple[Term, ...]

_MAT_PAIRS = tuple(product(AXES, repeat=2))
# Component of entry (i, j) in a matrix slot and in a symmetric slot.
_MAT = {(i, j): Mat3Field.KEYS.index(f"{i}{j}") for i, j in _MAT_PAIRS}
_SYM = {(i, j): SymField.KEYS.index(f"{min(i, j)}{max(i, j)}") for i, j in _MAT_PAIRS}
# The six (i, j, k) with eps_ijk != 0, and that value.
_EPS = tuple(_EPS_NONZERO.items())

SlotSpec = tuple[str, str, int]


class Operator(_Value):
    """One registered operator.

    Slots are (label, kind, bound - degree).  Codomain bounds drop by the
    differential order; purely algebraic contributions keep their degree,
    which for the coupled operators means per-slot bounds (and, for the
    connection divergence, a codomain equal in bound to the domain).  The
    slot labels of a coupled operator name the summands of its field type.
    `acts_on` is the field kind the reference function takes.
    """

    __slots__ = ("domain", "codomain", "acts_on", "reference")

    def __init__(self, domain: tuple[SlotSpec, ...], codomain: tuple[SlotSpec, ...],
                 acts_on: str, reference: Callable) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "acts_on", acts_on)
        object.__setattr__(self, "reference", reference)


_W_SECTION = (("x", "vec", 0), ("y", "vec", 0))
_W_FORM = (("sigma", "mat", 0), ("xi", "mat", 0))
_W_FORM_OUT = (("sigma", "mat", 0), ("xi", "mat", -1))

OPERATORS = {
    "grad": Operator((("f", "scalar", 0),), (("v", "vec", -1),), "scalar", calculus.grad),
    "curl": Operator((("v", "vec", 0),), (("w", "vec", -1),), "vec", calculus.curl),
    "div": Operator((("v", "vec", 0),), (("f", "scalar", -1),), "vec", calculus.div),
    "sym_grad": Operator((("v", "vec", 0),), (("s", "sym", -1),), "vec", calculus.sym_grad),
    "curl_curl": Operator((("s", "sym", 0),), (("t", "sym", -2),), "sym",
                          calculus.curl_curl),
    "div_sym": Operator((("s", "sym", 0),), (("v", "vec", -1),), "sym", calculus.div_sym),
    "w_grad": Operator(_W_SECTION, _W_FORM_OUT, "w", connection.w_grad),
    "w_curl": Operator(_W_FORM, _W_FORM_OUT, "wform", connection.w_curl),
    "w_div": Operator(_W_FORM, _W_SECTION, "wform", connection.w_div),
}
OPERATOR_IDS = tuple(OPERATORS)


def _derivative_index(alpha: Sequence[int]) -> Exponent:
    """alpha as a triple, checked like the exponent of a Poly3 term."""
    alpha = tuple(alpha)
    if len(alpha) != 3:
        raise ValueError(f"derivative index needs 3 entries, got {alpha!r}")
    if not {int}.issuperset(map(type, alpha)):
        raise TypeError(f"derivative index entries must be ints, got {alpha!r}")
    if min(alpha) < 0:
        raise ValueError(f"negative derivative index in {alpha}")
    return alpha


def _merge(terms: Iterable[tuple[tuple, Scalar]]) -> Stencil:
    """Canonical stencil of (key, canonical factor) pairs: equal keys
    summed, each sum canonical (1/2 + 1/2 is the int 1), zero factors
    dropped, sorted."""
    merged: dict[tuple, Scalar] = {}
    for key, factor in terms:
        # No arithmetic for a key seen once: a canonical stencil passes
        # through without building a Fraction.
        merged[key] = _canonical(merged[key] + factor) if key in merged else factor
    return tuple((*key, f) for key, f in sorted(merged.items()) if f)


def make_stencil(terms: Iterable[Sequence]) -> Stencil:
    """Canonical stencil: equal terms merged, zero factors dropped, sorted.

    Raises ValueError for a derivative index alpha that is not three entries
    or has a negative entry, and TypeError for a non-int entry of alpha.
    """
    return _merge(((s, c, t, d, _derivative_index(alpha)), _canonical(factor))
                  for s, c, t, d, alpha, factor in terms)


def compose(outer: Iterable[Sequence], inner: Iterable[Sequence]) -> Stencil:
    """Stencil of outer o inner; with constant coefficients derivatives add.

    Each derivative index and factor of either input is checked once, as
    `make_stencil` checks them, so a negative or bool entry cannot hide in
    a sum.
    """
    after: dict[tuple[int, int], list] = {}
    for t, d, u, e, beta, g in outer:
        after.setdefault((t, d), []).append((u, e, _derivative_index(beta), _canonical(g)))
    inner = [(s, c, t, d, _derivative_index(alpha), _canonical(f))
             for s, c, t, d, alpha, f in inner]
    return _merge(((s, c, u, e, (a1 + b1, a2 + b2, a3 + b3)), _canonical(f * g))
                  for s, c, t, d, (a1, a2, a3), f in inner
                  for u, e, (b1, b2, b3), g in after.get((t, d), ()))


def _d(*axes: int) -> Exponent:
    """Multi-index of the derivative d_{axes[0]} d_{axes[1]} ..."""
    return tuple(axes.count(i) for i in AXES)


# A zero eps or delta term would only be dropped again by `make_stencil`.
@cache
def _operator_stencils() -> dict[str, Stencil]:
    pairs = _MAT_PAIRS
    d0 = _d()
    raw = {
        # v_i = d_i f
        "grad": [(0, 0, 0, i - 1, _d(i), 1) for i in AXES],
        # w_i = eps_ijk d_j v_k
        "curl": [(0, k - 1, 0, i - 1, _d(j), e) for (i, j, k), e in _EPS],
        # f = d_i v_i
        "div": [(0, i - 1, 0, 0, _d(i), 1) for i in AXES],
        # s_ij = (delta_ki delta_lj + delta_kj delta_li) d_k v_l / 2: the
        # terms (k, l) = (i, j) and (j, i), one term 1 when i = j
        "sym_grad": [(0, l - 1, 0, _SYM[i, j], _d(k), Fraction(1 + delta(i, j), 2))
                     for i, j in SYM_INDEX_PAIRS for k, l in {(i, j), (j, i)}],
        # t_ij = eps_ikm eps_jln d_k d_l s_mn, the direct double contraction
        "curl_curl": [(0, _SYM[m, n], 0, _SYM[i, j], _d(k, l), e * f)
                      for i, j in SYM_INDEX_PAIRS
                      for (i2, k, m), e in _EPS if i2 == i
                      for (j2, l, n), f in _EPS if j2 == j],
        # v_j = d_i s_ij
        "div_sym": [(0, _SYM[i, j], 0, j - 1, _d(i), 1) for i, j in pairs],
        # sigma_jl = d_j x_l - eps_jlm y_m;  xi_jl = d_j y_l
        "w_grad": [(0, l - 1, 0, _MAT[j, l], _d(j), 1) for j, l in pairs]
        + [(1, m - 1, 0, _MAT[j, l], d0, -e) for (j, l, m), e in _EPS]
        + [(1, l - 1, 1, _MAT[j, l], _d(j), 1) for j, l in pairs],
        # sigma'_il = eps_ijk d_j sigma_kl - xi_li + delta_il xi_mm;
        # xi'_il = eps_ijk d_j xi_kl
        "w_curl": [(q, _MAT[k, l], q, _MAT[i, l], _d(j), e)
                   for q in (0, 1) for (i, j, k), e in _EPS for l in AXES]
        + [(1, _MAT[l, i], 0, _MAT[i, l], d0, -1) for i, l in pairs]
        + [(1, _MAT[m, m], 0, _MAT[i, i], d0, 1) for i, m in pairs],
        # x_l = d_j sigma_jl - eps_jlm xi_jm;  y_l = d_j xi_jl
        "w_div": [(q, _MAT[j, l], q, l - 1, _d(j), 1) for q in (0, 1) for j, l in pairs]
        + [(1, _MAT[j, m], 0, l - 1, d0, -e) for (j, l, m), e in _EPS],
    }
    return {op_id: make_stencil(terms) for op_id, terms in raw.items()}


def operator_stencil(op_id: str) -> Stencil:
    """Stencil of a named operator, written from its index formula."""
    if op_id not in OPERATOR_IDS:
        raise ValueError(f"unknown operator id {op_id!r}; expected one of {OPERATOR_IDS}")
    return _operator_stencils()[op_id]


# Constant component maps (order-0 stencils) between a matrix slot and its
# axial (skew) and symmetric parts.  Arguments are slot indices.

def _keep(src: int, dst: int, ncomp: int) -> list[Term]:
    """Carry a slot over unchanged."""
    return [(src, c, dst, c, _d(), Fraction(1)) for c in range(ncomp)]


def _split(mat: int, skew: int, sym: int) -> list[Term]:
    """Axial s_a = eps_aij M_ij / 2 and symmetric S_ij = (M_ij + M_ji) / 2 of M."""
    return ([(mat, _MAT[i, j], skew, a - 1, _d(), Fraction(e, 2)) for (a, i, j), e in _EPS]
            + [(mat, _MAT[i, j], sym, _SYM[i, j], _d(), Fraction(1 + delta(i, j), 2))
               for i, j in _MAT_PAIRS])


def _unsplit(skew: int, sym: int, mat: int) -> list[Term]:
    """M_jk = eps_jka s_a + S_jk from its axial and symmetric parts."""
    return ([(skew, a - 1, mat, _MAT[j, k], _d(), Fraction(e)) for (j, k, a), e in _EPS]
            + [(sym, _SYM[j, k], mat, _MAT[j, k], _d(), Fraction(1)) for j, k in _MAT_PAIRS])


@cache
def coupled_split_stencils() -> tuple[Stencil, Stencil, Stencil]:
    """w_grad, w_curl and w_div between the split slots of the coupled complex.

    Slots: (x, y) -> (sigma_skew, sigma_sym, xi)
    -> (theta1, theta2_sym, theta2_skew) -> (z1, z2).
    """
    st = operator_stencil
    return (compose(_split(0, 0, 1) + _keep(1, 2, 9), st("w_grad")),
            compose(_keep(0, 0, 9) + _split(1, 2, 1),
                    compose(st("w_curl"), _unsplit(0, 1, 0) + _keep(2, 1, 9))),
            compose(st("w_div"), _keep(0, 0, 9) + _unsplit(2, 1, 1)))
