"""Finite-dimensional truncations of operator complexes, and their reduction.

Degree-truncated polynomial fields give finite bases, so every differential
operator becomes an exact rational matrix.  This module builds those
matrices, checks complexes (compositions zero, exactness defects), cancels
invertible blocks by Schur complements, and derives the elasticity complex
from the coupled-connection complex by that cancellation.

Bases are ordered component-major: for each slot, for each component in its
canonical order, monomials ascend in graded lex order with x1 > x2 > x3.

Every operator is given as a stencil, a table of constant-coefficient
terms (see `stencils`).  A derivative sends a monomial to a single monomial,
so `LinOpMatrix.from_operator` builds each column by index arithmetic on the
monomial positions; no field operator is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactlin
from .errors import SingularBlockError
from .fields import Mat3Field, SymField, VecField, _seeded_rng
from .poly import Poly3, monomials_up_to
from .stencils import (OPERATOR_IDS, OPERATORS, coupled_split_stencils,
                       make_stencil, operator_stencil)

# A skew slot holds the axial vector of a skew matrix, a VecField.
_KIND_NCOMP = {"scalar": 1, "skew": len(VecField.KEYS),
               **{t.KIND: len(t.KEYS) for t in (VecField, SymField, Mat3Field)}}


@dataclass(frozen=True)
class Slot:
    """One labelled summand of a graded space: a field kind with a degree cap.

    A bound of -1 denotes the zero space (no monomials).
    """

    label: str
    kind: str
    bound: int

    def __post_init__(self) -> None:
        if self.kind not in _KIND_NCOMP:
            raise ValueError(f"unknown slot kind {self.kind!r}")
        if self.bound < -1:
            raise ValueError("slot bound must be >= -1")

    @property
    def ncomp(self) -> int:
        return _KIND_NCOMP[self.kind]

    @property
    def dim(self) -> int:
        return self.ncomp * len(monomials_up_to(self.bound))


class GradedSpace:
    """Direct sum of slots with a deterministic monomial-tensor basis."""

    def __init__(self, slots: Sequence[Slot]):
        self.slots = tuple(slots)
        labels = [s.label for s in self.slots]
        if len(set(labels)) != len(labels):
            raise ValueError("slot labels must be unique")
        self._monos = [monomials_up_to(s.bound) for s in self.slots]
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
    """Exact matrix of a linear operator between graded spaces."""

    def __init__(self, domain: GradedSpace, codomain: GradedSpace,
                 cols: list[exactlin.Column], name: str = ""):
        if len(cols) != domain.dim:
            raise ValueError("column count must match the domain dimension")
        self.domain = domain
        self.codomain = codomain
        self.cols = cols
        self.name = name
        self._rank: int | None = None

    @classmethod
    def from_operator(cls, domain: GradedSpace, codomain: GradedSpace,
                      stencil: Iterable[Sequence], name: str = "") -> "LinOpMatrix":
        """Assemble the matrix of a constant-coefficient operator from its stencil.

        Raises ValueError when a term refers to a slot or component the
        spaces lack, or lands above the bound of its codomain slot.
        """
        by_input: dict[tuple[int, int], list] = {}
        for s, c, t, d, alpha, factor in make_stencil(stencil):
            if not (0 <= s < len(domain.slots) and 0 <= c < domain.slots[s].ncomp
                    and 0 <= t < len(codomain.slots)
                    and 0 <= d < codomain.slots[t].ncomp):
                raise ValueError(f"stencil term {(s, c, t, d)} does not fit "
                                 f"{domain!r} -> {codomain!r}")
            base = codomain.offsets[t] + d * len(codomain._monos[t])
            by_input.setdefault((s, c), []).append(
                (base, codomain._mono_pos[t], codomain.slots[t], alpha, factor))
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
        return cls(domain, codomain, cols, name=name)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.codomain.dim, self.domain.dim)

    def entry(self, i: int, j: int) -> Fraction:
        return self.cols[j].get(i, Fraction(0))

    def apply_coords(self, coords: exactlin.Column) -> exactlin.Column:
        return exactlin.mul_cols(self.cols, [coords])[0]

    def compose(self, inner: "LinOpMatrix", name: str = "") -> "LinOpMatrix":
        """self o inner."""
        if inner.codomain.dim != self.domain.dim:
            raise ValueError("composition shape mismatch")
        return LinOpMatrix(inner.domain, self.codomain,
                           exactlin.mul_cols(self.cols, inner.cols), name=name)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = exactlin.sparse_rank(self.cols, self.codomain.dim)
        return self._rank

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
                s = col_s.get(i, Fraction(0))
                if lam is None:
                    if s == 0:
                        return None
                    lam = s / v
                elif s != lam * v:
                    return None
            for i in col_s:
                if i not in col_o:
                    return None
        return lam


@dataclass
class ChainComplex:
    """Spaces and maps with the usual adjacency: maps[k]: spaces[k] -> spaces[k+1]."""

    name: str
    spaces: list[GradedSpace]
    maps: list[LinOpMatrix]

    def __post_init__(self) -> None:
        if len(self.maps) != len(self.spaces) - 1:
            raise ValueError("a complex with n spaces has n-1 maps")
        for k, m in enumerate(self.maps):
            if m.domain is not self.spaces[k] and m.domain != self.spaces[k]:
                raise ValueError(f"map {k} has the wrong domain")
            if m.codomain is not self.spaces[k + 1] and m.codomain != self.spaces[k + 1]:
                raise ValueError(f"map {k} has the wrong codomain")


@dataclass
class ComplexReport:
    """Exact diagnostic data for one complex."""

    name: str
    slot_info: list[list[dict]]
    ranks: list[int]
    kernel_dims: list[int]
    composition_residuals: list[str]
    defects: list[int]

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
            worst = max((abs(v) for col in comp.cols for v in col.values()),
                        default=Fraction(0))
            residuals.append(f"nonzero composition at stage {k} (max |entry| {worst})")
    ranks = [m.rank() for m in c.maps]
    kdims = [m.kernel_dim() for m in c.maps]
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
    """
    if not 0 <= stage < len(c.maps):
        raise ValueError(f"stage {stage} out of range")
    dom, cod = c.spaces[stage], c.spaces[stage + 1]
    b_cols: list[int] = []
    for label in domain_labels:
        b_cols.extend(dom.slot_range(label))
    c_rows: list[int] = []
    for label in codomain_labels:
        c_rows.extend(cod.slot_range(label))
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
    phi_cols, b_block = [], []
    for j in b_cols:
        top, bottom = split_col(stage_map.cols[j])
        phi_cols.append(top)
        b_block.append(bottom)
    c_block, a_block = [], []
    for j in u_cols:
        top, bottom = split_col(stage_map.cols[j])
        c_block.append(top)
        a_block.append(bottom)

    try:
        z_cols = exactlin.solve_square(phi_cols, len(b_cols), c_block)
    except ValueError as exc:
        rank = exactlin.sparse_rank(phi_cols, len(c_rows))
        raise SingularBlockError(
            f"selected block is not invertible (rank {rank} of {len(b_cols)})",
            rank=rank, size=len(b_cols)) from exc

    new_dom = GradedSpace([s for s in dom.slots if s.label not in set(domain_labels)])
    new_cod = GradedSpace([s for s in cod.slots if s.label not in set(codomain_labels)])

    reduced_cols: list[exactlin.Column] = []
    for a_col, z_col in zip(a_block, z_cols):
        acc = dict(a_col)
        for k, w in z_col.items():
            exactlin.accumulate(acc, -w, b_block[k])
        reduced_cols.append(acc)

    new_spaces = list(c.spaces)
    new_spaces[stage] = new_dom
    new_spaces[stage + 1] = new_cod
    new_maps = list(c.maps)
    new_maps[stage] = LinOpMatrix(new_dom, new_cod, reduced_cols,
                                  name=stage_map.name + "~")

    if stage > 0:
        prev = c.maps[stage - 1]
        u_pos = {j: p for p, j in enumerate(u_cols)}
        projected = []
        for col in prev.cols:
            projected.append({u_pos[i]: v for i, v in col.items() if i in u_pos})
        new_maps[stage - 1] = LinOpMatrix(c.spaces[stage - 1], new_dom, projected,
                                          name=prev.name + "~")
    if stage + 1 < len(c.maps):
        nxt = c.maps[stage + 1]
        restricted = [nxt.cols[i] for i in v_rows]
        new_maps[stage + 1] = LinOpMatrix(new_cod, c.spaces[stage + 2],
                                          [dict(col) for col in restricted],
                                          name=nxt.name + "~")
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


@dataclass
class DerivationResult:
    """Everything produced while deriving the elasticity complex."""

    full: ChainComplex
    halfway: ChainComplex
    reduced: ChainComplex
    hand_coded: ChainComplex
    stage_factors: list[Fraction | None]
    full_report: ComplexReport
    reduced_report: ComplexReport

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


@dataclass(frozen=True)
class SkewMat4:
    """Skew 4x4 rational matrix; a two-form on R^4."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        for i in range(4):
            for j in range(4):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not skew")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_wedge(cls, v: Sequence, a: Sequence) -> "SkewMat4":
        v = [Fraction(c) for c in v]
        a = [Fraction(c) for c in a]
        return cls(tuple(tuple(v[i] * a[j] - v[j] * a[i] for j in range(4))
                         for i in range(4)))

    @classmethod
    def zero(cls) -> "SkewMat4":
        return cls(tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i - 1][j - 1]

    def __add__(self, other: "SkewMat4") -> "SkewMat4":
        return SkewMat4(tuple(tuple(a + b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "SkewMat4") -> "SkewMat4":
        return SkewMat4(tuple(tuple(a - b for a, b in zip(r1, r2))
                              for r1, r2 in zip(self.entries, other.entries)))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)


def interior_product(v: Sequence, omega: SkewMat4) -> tuple[Fraction, ...]:
    """(v contracted into omega)_j = sum_i v_i omega_ij."""
    v = [Fraction(c) for c in v]
    return tuple(sum(v[i] * omega.entries[i][j] for i in range(4)) for j in range(4))


def wedge_with_vector(v: Sequence, omega: SkewMat4) -> dict[tuple[int, int, int], Fraction]:
    """Components of the three-form v ^ omega, indexed by i < j < k (1-based)."""
    v = [Fraction(c) for c in v]
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
    v = tuple(Fraction(c) for c in v)
    norm2 = sum(c * c for c in v)
    if norm2 == 0:
        raise ValueError("the direction vector must be nonzero")
    a = [c / norm2 for c in interior_product(v, omega)]
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
        v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        if any(v):
            return v


def random_skew4(seed: int) -> SkewMat4:
    """Deterministic rational two-form on R^4."""
    rng = _seeded_rng("skew4", 0, seed)
    vals = {}
    for i in range(4):
        for j in range(i + 1, 4):
            vals[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in vals.items():
        rows[i][j] = v
        rows[j][i] = -v
    return SkewMat4(tuple(tuple(r) for r in rows))
