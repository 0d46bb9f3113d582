"""Finite-dimensional truncations of operator complexes, and their reduction.

Degree-truncated polynomial fields give finite bases, so every differential
operator becomes an exact rational matrix, int columns over one denominator.
This module builds those matrices, checks complexes (compositions zero,
exactness defects), cancels invertible blocks by Schur complements, and
derives the elasticity complex from the coupled-connection complex by that
cancellation.

Bases are ordered component-major: for each slot, for each component in its
canonical order, monomials ascend in graded lex order with x1 > x2 > x3.

Every operator is given as a stencil, a table of constant-coefficient
terms (see `stencils`).  A derivative sends a monomial to a single monomial,
so `LinOpMatrix.from_operator` builds each column by index arithmetic on the
monomial positions; no field operator is applied.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import exactlin
from .errors import SingularBlockError
from .fields import (Mat3Field, SymField, VecField, _random_rationals, _seeded_rng,
                     _Value)
from .poly import Poly3, Scalar, _canonical, _monomial_table
from .stencils import (OPERATOR_IDS, OPERATORS, coupled_split_stencils,
                       make_stencil, operator_stencil)

# A skew slot holds the axial vector of a skew matrix, a VecField.
_KIND_NCOMP = {"scalar": 1, "skew": len(VecField.KEYS),
               **{t.KIND: len(t.KEYS) for t in (VecField, SymField, Mat3Field)}}


class Slot(_Value):
    """One labelled summand of a graded space: a field kind with a degree cap.

    A bound of -1 denotes the zero space (no monomials).
    """

    __slots__ = ("label", "kind", "bound")

    def __init__(self, label: str, kind: str, bound: int) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "bound", bound)
        if kind not in _KIND_NCOMP:
            raise ValueError(f"unknown slot kind {kind!r}")
        if bound < -1:
            raise ValueError("slot bound must be >= -1")

    @property
    def ncomp(self) -> int:
        return _KIND_NCOMP[self.kind]

    @property
    def dim(self) -> int:
        b = self.bound  # (b + 1)(b + 2)(b + 3)/6 monomials of degree <= b
        return self.ncomp * (b + 1) * (b + 2) * (b + 3) // 6


class GradedSpace:
    """Direct sum of slots with a deterministic monomial-tensor basis."""

    def __init__(self, slots: Sequence[Slot]):
        self.slots = tuple(slots)
        labels = [s.label for s in self.slots]
        if len(set(labels)) != len(labels):
            raise ValueError("slot labels must be unique")
        self._monos = [_monomial_table(s.bound) for s in self.slots]
        self._mono_pos = [{e: k for k, e in enumerate(ms)} for ms in self._monos]
        self.offsets = []
        total = 0
        for slot, monos in zip(self.slots, self._monos):
            self.offsets.append(total)
            total += slot.ncomp * len(monos)
        self.dim = total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedSpace) and self.slots == other.slots

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.label}:{s.kind}<= {s.bound}" for s in self.slots)
        return f"GradedSpace({inner})"

    def slot_index(self, label: str) -> int:
        for k, slot in enumerate(self.slots):
            if slot.label == label:
                return k
        raise KeyError(f"no slot labelled {label!r}")

    def slot_range(self, label: str) -> range:
        k = self.slot_index(label)
        start = self.offsets[k]
        return range(start, start + self.slots[k].dim)

    def to_coords(self, values: Sequence) -> exactlin.Column:
        """Sparse coordinates of a tuple of per-slot field values."""
        if len(values) != len(self.slots):
            raise ValueError("value tuple does not match the slot list")
        coords: exactlin.Column = {}
        for k, (slot, value) in enumerate(zip(self.slots, values)):
            base = self.offsets[k]
            nmono = len(self._monos[k])
            pos = self._mono_pos[k]
            parts = (value,) if isinstance(value, Poly3) else value.parts
            if len(parts) != slot.ncomp:
                raise ValueError(f"a {slot.kind} slot takes {slot.ncomp} components, "
                                 f"got {len(parts)} in slot {slot.label!r}")
            for c, poly in enumerate(parts):
                for exp, coef in poly.terms.items():
                    where = pos.get(exp)
                    if where is None:
                        raise ValueError(
                            f"term of degree {sum(exp)} exceeds bound {slot.bound} "
                            f"in slot {slot.label!r}")
                    coords[base + c * nmono + where] = coef
        return coords

    def describe(self) -> list[dict]:
        return [{"label": s.label, "kind": s.kind, "bound": s.bound, "dim": s.dim}
                for s in self.slots]


class LinOpMatrix:
    """Exact matrix of a linear operator between graded spaces.

    Entry (i, j) is cols[j][i] / den, held as int columns without zero
    entries and one positive int den in lowest terms; the constructor takes
    int or Fraction columns over den and drops explicit zeros.
    """

    def __init__(self, domain: GradedSpace, codomain: GradedSpace,
                 cols: list[exactlin.Column], name: str = "", den: int = 1):
        if len(cols) != domain.dim:
            raise ValueError("column count must match the domain dimension")
        if type(den) is not int or den < 1:
            raise ValueError(f"den must be a positive int, got {den!r}")
        if not all(map(all, map(dict.values, cols))):
            cols = [{i: v for i, v in col.items() if v} for col in cols]
        self.domain = domain
        self.codomain = codomain
        self.cols, self.den = exactlin.lowest_terms(cols, den)
        self.name = name

    @classmethod
    def from_operator(cls, domain: GradedSpace, codomain: GradedSpace,
                      stencil: Iterable[Sequence], name: str = "") -> "LinOpMatrix":
        """Assemble the matrix of a constant-coefficient operator from its stencil.

        Raises ValueError when a term refers to a slot or component the
        spaces lack, or lands above the bound of its codomain slot.
        """
        stencil = make_stencil(stencil)
        den = lcm(*(term[-1].denominator for term in stencil))
        by_input: dict[tuple[int, int], list] = {}
        for s, c, t, d, alpha, factor in stencil:
            if not (0 <= s < len(domain.slots) and 0 <= c < domain.slots[s].ncomp
                    and 0 <= t < len(codomain.slots)
                    and 0 <= d < codomain.slots[t].ncomp):
                raise ValueError(f"stencil term {(s, c, t, d)} does not fit "
                                 f"{domain!r} -> {codomain!r}")
            base = codomain.offsets[t] + d * len(codomain._monos[t])
            by_input.setdefault((s, c), []).append(
                (base, codomain._mono_pos[t], codomain.slots[t], alpha, int(factor * den)))
        cols: list[exactlin.Column] = []
        for k, slot in enumerate(domain.slots):
            for c in range(slot.ncomp):
                targets = by_input.get((k, c), ())
                for e in domain._monos[k]:
                    col: exactlin.Column = {}
                    for base, pos, out_slot, alpha, factor in targets:
                        # falling factorials: d^alpha x^e = n x^(e - alpha)
                        n = 1
                        for a, m in zip(e, alpha):
                            for r in range(m):
                                n *= a - r
                        if not n:
                            continue
                        where = pos.get((e[0] - alpha[0], e[1] - alpha[1],
                                         e[2] - alpha[2]))
                        if where is None:
                            raise ValueError(
                                f"term of degree {sum(e) - sum(alpha)} exceeds bound "
                                f"{out_slot.bound} in slot {out_slot.label!r}")
                        col[base + where] = factor * n if n != 1 else factor
                    cols.append(col)
        return cls(domain, codomain, cols, name=name, den=den)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.codomain.dim, self.domain.dim)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.cols[j].get(i, 0), self.den)

    def apply_coords(self, coords: exactlin.Column) -> exactlin.Column:
        out = exactlin.mul_cols(self.cols, [coords])[0]
        return out if self.den == 1 else {i: Fraction(v, self.den) for i, v in out.items()}

    def compose(self, inner: "LinOpMatrix", name: str = "") -> "LinOpMatrix":
        """self o inner."""
        if inner.codomain.dim != self.domain.dim:
            raise ValueError("composition shape mismatch")
        cols = exactlin.mul_cols(self.cols, inner.cols)
        return LinOpMatrix(inner.domain, self.codomain, cols, name, self.den * inner.den)

    def rank(self) -> int:
        return exactlin.sparse_rank(self.cols, self.codomain.dim)

    def kernel_dim(self) -> int:
        return self.domain.dim - self.rank()

    def is_zero(self) -> bool:
        return exactlin.cols_are_zero(self.cols)

    def proportionality(self, other: "LinOpMatrix") -> Fraction | None:
        """The single lambda with self = lambda * other, or None."""
        if self.shape != other.shape:
            return None
        if other.is_zero():
            return Fraction(1) if self.is_zero() else None
        lam = None
        for col_s, col_o in zip(self.cols, other.cols):
            for i, v in col_o.items():
                s = col_s.get(i, 0)
                if lam is None:
                    if s == 0:
                        return None
                    lam = Fraction(s, v)
                elif s != lam * v:
                    return None
            for i in col_s:
                if i not in col_o:
                    return None
        return lam * Fraction(other.den, self.den)


class ChainComplex(_Value):
    """Spaces and maps with the usual adjacency: maps[k]: spaces[k] -> spaces[k+1]."""

    __slots__ = ("name", "spaces", "maps")
    # A mutable record: fields may be reassigned, so it has no hash.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, spaces: list[GradedSpace],
                 maps: list[LinOpMatrix]) -> None:
        self.name, self.spaces, self.maps = name, spaces, maps
        if len(maps) != len(spaces) - 1:
            raise ValueError("a complex with n spaces has n-1 maps")
        for k, m in enumerate(maps):
            if m.domain is not spaces[k] and m.domain != spaces[k]:
                raise ValueError(f"map {k} has the wrong domain")
            if m.codomain is not spaces[k + 1] and m.codomain != spaces[k + 1]:
                raise ValueError(f"map {k} has the wrong codomain")


class ComplexReport(_Value):
    """Exact diagnostic data for one complex."""

    __slots__ = ("name", "slot_info", "ranks", "kernel_dims", "composition_residuals",
                 "defects")
    # A mutable record: fields may be reassigned, so it has no hash.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, slot_info: list[list[dict]], ranks: list[int],
                 kernel_dims: list[int], composition_residuals: list[str],
                 defects: list[int]) -> None:
        self.name, self.slot_info, self.ranks = name, slot_info, ranks
        self.kernel_dims, self.composition_residuals = kernel_dims, composition_residuals
        self.defects = defects

    @property
    def compositions_zero(self) -> bool:
        return all(r == "0" for r in self.composition_residuals)

    @property
    def is_exact_interior(self) -> bool:
        return all(d == 0 for d in self.defects)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "slots": self.slot_info,
            "ranks": self.ranks,
            "kernel_dims": self.kernel_dims,
            "composition_residuals": self.composition_residuals,
            "exactness_defects": self.defects,
        }


def verify_complex(c: ChainComplex) -> ComplexReport:
    """Check compositions and measure exactness defects, all exactly.

    The defect at an interior slot is kernel_dim(outgoing) - rank(incoming);
    zero means exact there.
    """
    residuals = []
    for k in range(len(c.maps) - 1):
        comp = c.maps[k + 1].compose(c.maps[k])
        if comp.is_zero():
            residuals.append("0")
        else:
            worst = Fraction(max(abs(v) for col in comp.cols for v in col.values()),
                             comp.den)
            residuals.append(f"nonzero composition at stage {k} (max |entry| {worst})")
    ranks = [m.rank() for m in c.maps]
    kdims = [m.domain.dim - r for m, r in zip(c.maps, ranks)]
    defects = [kdims[s] - ranks[s - 1] for s in range(1, len(c.maps))]
    return ComplexReport(
        name=c.name,
        slot_info=[s.describe() for s in c.spaces],
        ranks=ranks,
        kernel_dims=kdims,
        composition_residuals=residuals,
        defects=defects,
    )


def schur_reduce(c: ChainComplex, stage: int,
                 domain_labels: Sequence[str],
                 codomain_labels: Sequence[str]) -> ChainComplex:
    """Cancel an invertible block of one stage map by its Schur complement.

    The selected domain slots B (of spaces[stage]) and codomain slots C (of
    spaces[stage + 1]) must carry an exactly invertible block phi of the
    stage map.  Writing the map in blocks [[phi, c], [b, a]], the surviving
    stage map is a - b phi^{-1} c; the neighbouring maps are projected onto
    the surviving slots.  Compositions stay zero and homology is unchanged.
    The solve runs on numerators, as den cancels from phi Z = c; with
    Z = Zn / zden the surviving map is (zden a - b Zn) / (den zden).
    """
    if not 0 <= stage < len(c.maps):
        raise ValueError(f"stage {stage} out of range")
    dom, cod = c.spaces[stage], c.spaces[stage + 1]
    b_cols = [j for label in domain_labels for j in dom.slot_range(label)]
    c_rows = [i for label in codomain_labels for i in cod.slot_range(label)]
    b_set, c_set = set(b_cols), set(c_rows)
    u_cols = [j for j in range(dom.dim) if j not in b_set]
    v_rows = [i for i in range(cod.dim) if i not in c_set]
    if len(b_cols) != len(c_rows):
        raise SingularBlockError(
            f"selected block is not square: {len(c_rows)} x {len(b_cols)}",
            rank=-1, size=len(b_cols))

    c_pos = {i: p for p, i in enumerate(c_rows)}
    v_pos = {i: p for p, i in enumerate(v_rows)}

    def split_col(col: exactlin.Column) -> tuple[exactlin.Column, exactlin.Column]:
        top: exactlin.Column = {}
        bottom: exactlin.Column = {}
        for i, v in col.items():
            if i in c_pos:
                top[c_pos[i]] = v
            else:
                bottom[v_pos[i]] = v
        return top, bottom

    stage_map = c.maps[stage]
    split = [split_col(col) for col in stage_map.cols]
    phi_cols, b_block = [split[j][0] for j in b_cols], [split[j][1] for j in b_cols]
    c_block, a_block = [split[j][0] for j in u_cols], [split[j][1] for j in u_cols]

    try:
        z_cols = exactlin.solve_square(phi_cols, len(b_cols), c_block)
    except ValueError as exc:
        raise SingularBlockError(
            f"selected block is not invertible (rank {exc.rank} of {len(b_cols)})",
            rank=exc.rank, size=len(b_cols)) from exc
    zn_cols, zden = exactlin.lowest_terms(z_cols)

    dropped_dom, dropped_cod = set(domain_labels), set(codomain_labels)
    new_dom = GradedSpace([s for s in dom.slots if s.label not in dropped_dom])
    new_cod = GradedSpace([s for s in cod.slots if s.label not in dropped_cod])

    reduced_cols: list[exactlin.Column] = []
    for a_col, z_col in zip(a_block, zn_cols):
        acc = {i: zden * v for i, v in a_col.items()}
        for k, w in z_col.items():
            exactlin.accumulate(acc, -w, b_block[k])
        reduced_cols.append(acc)

    new_spaces = list(c.spaces)
    new_spaces[stage] = new_dom
    new_spaces[stage + 1] = new_cod
    new_maps = list(c.maps)
    new_maps[stage] = LinOpMatrix(new_dom, new_cod, reduced_cols,
                                  name=stage_map.name + "~", den=stage_map.den * zden)

    if stage > 0:
        prev = c.maps[stage - 1]
        u_pos = {j: p for p, j in enumerate(u_cols)}
        projected = [{u_pos[i]: v for i, v in col.items() if i in u_pos}
                     for col in prev.cols]
        new_maps[stage - 1] = LinOpMatrix(c.spaces[stage - 1], new_dom, projected,
                                          name=prev.name + "~", den=prev.den)
    if stage + 1 < len(c.maps):
        nxt = c.maps[stage + 1]
        new_maps[stage + 1] = LinOpMatrix(new_cod, c.spaces[stage + 2],
                                          [dict(nxt.cols[i]) for i in v_rows],
                                          name=nxt.name + "~", den=nxt.den)
    base = c.name if c.name.endswith(" (reduced)") else c.name + " (reduced)"
    return ChainComplex(name=base, spaces=new_spaces, maps=new_maps)


# -- the standard complexes -------------------------------------------------

# The least degree at which every standard complex has nonnegative bounds:
# the elasticity and coupled complexes end in bound d - 3.
MIN_COMPLEX_DEGREE = 3


def _spaces(name: str, degree: int, slot_lists) -> list[GradedSpace]:
    """Graded spaces at a degree; every bound must be at least 0."""
    least = -min(shift for slots in slot_lists for _, _, shift in slots)
    if degree < least:
        raise ValueError(f"{name} needs degree >= {least}")
    return [GradedSpace([Slot(label, kind, degree + shift) for label, kind, shift in slots])
            for slots in slot_lists]


def matrix_of(op_id: str, degree: int) -> LinOpMatrix:
    """Matrix of a named operator on fields truncated at the given degree."""
    stencil = operator_stencil(op_id)
    op = OPERATORS[op_id]
    dom, cod = _spaces(op_id, degree, (op.domain, op.codomain))
    return LinOpMatrix.from_operator(dom, cod, stencil, name=op_id)


def _chain(name: str, degree: int, slots: list, op_ids: Sequence[str],
           stencils: Sequence | None = None) -> ChainComplex:
    """Complex of the named operators; stencils default to the operator tables."""
    spaces = _spaces(f"the {name} complex", degree, slots)
    stencils = stencils or [operator_stencil(op_id) for op_id in op_ids]
    maps = [LinOpMatrix.from_operator(spaces[k], spaces[k + 1], stencil, name=op_id)
            for k, (op_id, stencil) in enumerate(zip(op_ids, stencils))]
    return ChainComplex(name=f"{name}(d={degree})", spaces=spaces, maps=maps)


def build_elasticity_complex(degree: int) -> ChainComplex:
    """displacement -> strain -> stress -> load with bounds (d+1, d, d-2, d-3)."""
    return _chain("elasticity", degree,
                  [[("displacement", "vec", 1)], [("strain", "sym", 0)],
                   [("stress", "sym", -2)], [("load", "vec", -3)]],
                  ("sym_grad", "curl_curl", "div_sym"))


def build_grad_curl_div_complex(degree: int) -> ChainComplex:
    """potential -> field -> flux -> density with bounds (d+1, d, d-1, d-2)."""
    return _chain("grad_curl_div", degree,
                  [[("potential", "scalar", 1)], [("field", "vec", 0)],
                   [("flux", "vec", -1)], [("density", "scalar", -2)]],
                  ("grad", "curl", "div"))


def build_w_complex(degree: int) -> ChainComplex:
    """The coupled-connection complex in split (skew/sym) coordinates.

    Per-summand bounds follow the grading of the connection: the headline
    degree d gives (d+1, d | d, d-1 | d-1, d-2 | d-2, d-3), which is exactly
    what makes the Schur reduction land on the elasticity complex bounds.
    The matrix slots whose cancellation drives the reduction are split into
    axial (skew) and symmetric parts so each cancellation selects whole
    slots; the split is composed into the stencils as constant maps.
    """
    return _chain("coupled", degree,
                  [[("x", "vec", 1), ("y", "vec", 0)],
                   [("sigma_skew", "skew", 0), ("sigma_sym", "sym", 0), ("xi", "mat", -1)],
                   [("theta1", "mat", -1), ("theta2_sym", "sym", -2),
                    ("theta2_skew", "skew", -2)],
                   [("z1", "vec", -2), ("z2", "vec", -3)]],
                  ("w_grad", "w_curl", "w_div"), coupled_split_stencils())


# The Schur cancellations of derive_elasticity, in order, as (stage,
# cancelled domain slots, cancelled codomain slots).  The first alone gives
# the halfway complex.
SCHUR_CANCELLATIONS = ((1, ("xi",), ("theta1",)),
                       (0, ("y",), ("sigma_skew",)),
                       (2, ("theta2_skew",), ("z1",)))


class DerivationResult(_Value):
    """Everything produced while deriving the elasticity complex."""

    __slots__ = ("full", "halfway", "reduced", "hand_coded", "stage_factors",
                 "full_report", "reduced_report")
    # A mutable record: fields may be reassigned, so it has no hash.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, full: ChainComplex, halfway: ChainComplex, reduced: ChainComplex,
                 hand_coded: ChainComplex, stage_factors: list[Fraction | None],
                 full_report: ComplexReport, reduced_report: ComplexReport) -> None:
        self.full, self.halfway, self.reduced = full, halfway, reduced
        self.hand_coded, self.stage_factors = hand_coded, stage_factors
        self.full_report, self.reduced_report = full_report, reduced_report

    @property
    def factors_ok(self) -> bool:
        return all(f is not None and f != 0 for f in self.stage_factors)

    @property
    def defects_preserved(self) -> bool:
        return (self.full_report.defects == self.reduced_report.defects
                and self.full_report.kernel_dims[0] == self.reduced_report.kernel_dims[0])

    def to_dict(self) -> dict:
        return {
            "halfway_slots": [s.describe() for s in self.halfway.spaces],
            "reduced_slots": [s.describe() for s in self.reduced.spaces],
            "stage_factors": [str(f) if f is not None else None
                              for f in self.stage_factors],
            "full": self.full_report.to_dict(),
            "reduced": self.reduced_report.to_dict(),
            "defects_preserved": self.defects_preserved,
        }


def derive_elasticity(degree: int) -> DerivationResult:
    """Cancel the coupled complex down to the elasticity complex.

    The three Schur cancellations of SCHUR_CANCELLATIONS remove the
    auxiliary rotation data: the middle matrix pair first (giving the
    halfway-house shapes), then the rotation / skew-strain pair, then the
    skew-stress / first-divergence pair.  The surviving maps are compared
    against the hand-coded operators; each stage must agree up to a single
    nonzero rational factor.
    """
    stages = [build_w_complex(degree)]
    for cancellation in SCHUR_CANCELLATIONS:
        stages.append(schur_reduce(stages[-1], *cancellation))
    full, halfway, _, reduced = stages
    hand = build_elasticity_complex(degree)
    factors = [reduced.maps[k].proportionality(hand.maps[k]) for k in range(3)]
    return DerivationResult(
        full=full,
        halfway=halfway,
        reduced=reduced,
        hand_coded=hand,
        stage_factors=factors,
        full_report=verify_complex(full),
        reduced_report=verify_complex(reduced),
    )


# -- splitting of two-forms on R^4 ------------------------------------------

_IDX4 = (1, 2, 3, 4)


class SkewMat4(_Value):
    """Skew 4x4 rational matrix; a two-form on R^4.  Entries are stored
    like Poly3 coefficients: int when integral, else Fraction."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Scalar]]) -> None:
        rows = tuple(tuple(_canonical(v) for v in row) for row in entries)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        for i in range(4):
            for j in range(4):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not skew")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_wedge(cls, v: Sequence, a: Sequence) -> "SkewMat4":
        v = [_canonical(c) for c in v]
        a = [_canonical(c) for c in a]
        return cls(tuple(tuple(v[i] * a[j] - v[j] * a[i] for j in range(4))
                         for i in range(4)))

    @classmethod
    def zero(cls) -> "SkewMat4":
        return cls(((0,) * 4,) * 4)

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i - 1][j - 1]

    def __add__(self, other: "SkewMat4") -> "SkewMat4":
        return SkewMat4(tuple(tuple(a + b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "SkewMat4") -> "SkewMat4":
        return SkewMat4(tuple(tuple(a - b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)


def interior_product(v: Sequence, omega: SkewMat4) -> tuple[Scalar, ...]:
    """(v contracted into omega)_j = sum_i v_i omega_ij."""
    v = [_canonical(c) for c in v]
    return tuple(sum(v[i] * omega.entries[i][j] for i in range(4)) for j in range(4))


def wedge_with_vector(v: Sequence, omega: SkewMat4) -> dict[tuple[int, int, int], Scalar]:
    """Components of the three-form v ^ omega, indexed by i < j < k (1-based)."""
    v = [_canonical(c) for c in v]
    out = {}
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                out[(i + 1, j + 1, k + 1)] = (
                    v[i] * omega.entries[j][k]
                    - v[j] * omega.entries[i][k]
                    + v[k] * omega.entries[i][j])
    return out


def lambda2_split(v: Sequence, omega: SkewMat4) -> tuple[SkewMat4, SkewMat4]:
    """Split a two-form against a nonzero direction v.

    Returns (alpha, beta) with omega = alpha + beta, alpha = v ^ a for
    a = (v . omega) / |v|^2, v ^ alpha = 0 and v contracted into beta = 0.
    The split does not see the sign of v.  Both postconditions are checked
    componentwise before returning.
    """
    v = [_canonical(c) for c in v]
    norm2 = sum(c * c for c in v)
    if norm2 == 0:
        raise ValueError("the direction vector must be nonzero")
    a = [Fraction(c, norm2) for c in interior_product(v, omega)]
    alpha = SkewMat4.from_wedge(v, a)
    beta = omega - alpha
    if any(c != 0 for c in interior_product(v, beta)):
        raise AssertionError("contraction of the residual part must vanish")
    if any(c != 0 for c in wedge_with_vector(v, alpha).values()):
        raise AssertionError("wedge of the aligned part must vanish")
    return alpha, beta


def random_vec4(seed: int) -> tuple[Fraction, ...]:
    """Deterministic nonzero rational 4-vector."""
    rng = _seeded_rng("vec4", 0, seed)
    while True:
        v = tuple(_random_rationals(rng, 4, 4, 3))
        if any(v):
            return v


def random_skew4(seed: int) -> SkewMat4:
    """Deterministic rational two-form on R^4."""
    draws = iter(_random_rationals(_seeded_rng("skew4", 0, seed), 6, 4, 3))
    rows = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rows[i][j] = next(draws)
            rows[j][i] = -rows[i][j]
    return SkewMat4(tuple(tuple(r) for r in rows))
