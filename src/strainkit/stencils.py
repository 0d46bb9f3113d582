"""Constant-coefficient operators as stencils: tables of terms.

Every operator of the complexes has constant coefficients and order at most
two, so it is a finite table of terms

    (input slot, input component, output slot, output component, alpha, factor)

each saying that the output component receives factor * d^alpha of the
input component.  Components follow the `KEYS` order of their slot kind:
one for a scalar, axes 1..3 for a vector or axial (skew) slot, the upper
triangle for a symmetric slot and row-major entries for a matrix slot.  The
tables below are written from the index formulas with eps and delta; the
hand-written field operators of `calculus` and `connection` are kept as an
independent reference for them.

`OPERATORS` is the one place an operator is declared: its slots, the kind
of field it acts on and its reference.  Its stencil sits under the same id.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Iterable, Sequence

from . import calculus, connection
from .fields import AXES, SYM_INDEX_PAIRS, Mat3Field, SymField, _Value, delta, eps
from .poly import Exponent, Scalar, _canonical

Term = tuple[int, int, int, int, Exponent, Scalar]
Stencil = tuple[Term, ...]

_MAT_PAIRS = tuple(product(AXES, repeat=2))

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


def make_stencil(terms: Iterable[Sequence]) -> Stencil:
    """Canonical stencil: equal terms merged, zero factors dropped, sorted."""
    merged: dict[tuple, Scalar] = {}
    for s, c, t, d, alpha, factor in terms:
        key = (s, c, t, d, tuple(alpha))
        merged[key] = merged.get(key, 0) + _canonical(factor)
    return tuple((*key, f) for key, f in sorted(merged.items()) if f)


def compose(outer: Iterable[Sequence], inner: Iterable[Sequence]) -> Stencil:
    """Stencil of outer o inner; with constant coefficients derivatives add."""
    after: dict[tuple[int, int], list] = {}
    for t, d, u, e, beta, g in outer:
        after.setdefault((t, d), []).append((u, e, beta, g))
    return make_stencil((s, c, u, e, tuple(a + b for a, b in zip(alpha, beta)), f * g)
                        for s, c, t, d, alpha, f in inner
                        for u, e, beta, g in after.get((t, d), ()))


def _d(*axes: int) -> Exponent:
    """Multi-index of the derivative d_{axes[0]} d_{axes[1]} ..."""
    return tuple(axes.count(i) for i in AXES)


def _m(i: int, j: int) -> int:  # component of entry (i, j) of a matrix slot
    return Mat3Field.KEYS.index(f"{i}{j}")


def _s(i: int, j: int) -> int:  # component of entry (i, j) of a symmetric slot
    return SymField.KEYS.index(f"{min(i, j)}{max(i, j)}")


@cache
def _operator_stencils() -> dict[str, Stencil]:
    pairs = list(product(AXES, repeat=2))
    triples = list(product(AXES, repeat=3))
    d0 = _d()
    raw = {
        # v_i = d_i f
        "grad": [(0, 0, 0, i - 1, _d(i), 1) for i in AXES],
        # w_i = eps_ijk d_j v_k
        "curl": [(0, k - 1, 0, i - 1, _d(j), eps(i, j, k)) for i, j, k in triples],
        # f = d_i v_i
        "div": [(0, i - 1, 0, 0, _d(i), 1) for i in AXES],
        # s_ij = (delta_ki delta_lj + delta_kj delta_li) d_k v_l / 2
        "sym_grad": [(0, l - 1, 0, _s(i, j), _d(k),
                      Fraction(delta(k, i) * delta(l, j) + delta(k, j) * delta(l, i), 2))
                     for i, j in SYM_INDEX_PAIRS for k, l in pairs],
        # t_ij = eps_ikm eps_jln d_k d_l s_mn, the direct double contraction
        "curl_curl": [(0, _s(m, n), 0, _s(i, j), _d(k, l), eps(i, k, m) * eps(j, l, n))
                      for i, j in SYM_INDEX_PAIRS
                      for k, l, m, n in product(AXES, repeat=4)],
        # v_j = d_i s_ij
        "div_sym": [(0, _s(i, j), 0, j - 1, _d(i), 1) for i, j in pairs],
        # sigma_jl = d_j x_l - eps_jlm y_m;  xi_jl = d_j y_l
        "w_grad": [(0, l - 1, 0, _m(j, l), _d(j), 1) for j, l in pairs]
        + [(1, m - 1, 0, _m(j, l), d0, -eps(j, l, m)) for j, l, m in triples]
        + [(1, l - 1, 1, _m(j, l), _d(j), 1) for j, l in pairs],
        # sigma'_il = eps_ijk d_j sigma_kl - xi_li + delta_il xi_mm;
        # xi'_il = eps_ijk d_j xi_kl
        "w_curl": [(q, _m(k, l), q, _m(i, l), _d(j), eps(i, j, k))
                   for q in (0, 1) for (i, j, k), l in product(triples, AXES)]
        + [(1, _m(l, i), 0, _m(i, l), d0, -1) for i, l in pairs]
        + [(1, _m(m, m), 0, _m(i, l), d0, delta(i, l)) for i, l, m in triples],
        # x_l = d_j sigma_jl - eps_jlm xi_jm;  y_l = d_j xi_jl
        "w_div": [(q, _m(j, l), q, l - 1, _d(j), 1) for q in (0, 1) for j, l in pairs]
        + [(1, _m(j, m), 0, l - 1, d0, -eps(j, l, m)) for j, l, m in triples],
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
    return ([(mat, _m(i, j), skew, a - 1, _d(), Fraction(eps(a, i, j), 2))
             for (i, j), a in product(_MAT_PAIRS, AXES)]
            + [(mat, _m(i, j), sym, _s(i, j), _d(), Fraction(1 + delta(i, j), 2))
               for i, j in _MAT_PAIRS])


def _unsplit(skew: int, sym: int, mat: int) -> list[Term]:
    """M_jk = eps_jka s_a + S_jk from its axial and symmetric parts."""
    return ([(skew, a - 1, mat, _m(j, k), _d(), Fraction(eps(j, k, a)))
             for (j, k), a in product(_MAT_PAIRS, AXES)]
            + [(sym, _s(j, k), mat, _m(j, k), _d(), Fraction(1)) for j, k in _MAT_PAIRS])


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
