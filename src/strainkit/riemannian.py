"""Curvature of perturbed and polynomial metrics, in exact arithmetic.

Two regimes are covered.  First-order jets handle metrics delta + eps*Sigma
with eps^2 = 0: every curvature quantity is computed in truncated jet
arithmetic and the quadratic Christoffel terms are asserted (not assumed) to
vanish.  Pointwise evaluation handles honest polynomial metrics at a rational
point, with the full nonlinear curvature formula.

Sign convention: the Ricci tensor is

    R_ij = d_i Gamma_jk^k - d_k Gamma_ij^k + Gamma_ik^m Gamma_jm^k
                                           - Gamma_ij^m Gamma_mk^k,

chosen so that the first-order Einstein tensor of delta + eps*Sigma equals
the compatibility operator curl_curl(Sigma) exactly.  The Einstein tensor is
scalar * g - 2 * Ricci throughout.

Each intermediate is formed once per call.  A jet curvature call builds one
inverse, the 27 derivative jets d_m g_ij, the 27 brackets
d_i g_jl + d_j g_il - d_l g_ij and the 3 traces Gamma_jk^k, and still runs
every check: the two-sided inverse product, symmetric Gamma (all 27 symbols
are computed), vanishing quadratic terms and einstein = scalar * g - 2 * ricci.
Pointwise evaluation forms and evaluates each distinct derivative of each
distinct metric entry once, using g_ij = g_ji and d_m d_l = d_l d_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .calculus import curl_curl, div_sym
from .errors import SingularMetricError
from .fields import AXES, Mat3Field, SymField, delta
from .poly import Poly3, Scalar, _coerce


@dataclass(frozen=True)
class JetPoly:
    """First-order jet p0 + eps*p1 with eps^2 = 0."""

    p0: Poly3
    p1: Poly3

    def __post_init__(self) -> None:
        object.__setattr__(self, "p0", _coerce(self.p0))
        object.__setattr__(self, "p1", _coerce(self.p1))

    @classmethod
    def constant(cls, c: Scalar) -> "JetPoly":
        return cls(Poly3.constant(c), Poly3())

    def __add__(self, other: "JetPoly") -> "JetPoly":
        return JetPoly(self.p0 + other.p0, self.p1 + other.p1)

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return JetPoly(self.p0 - other.p0, self.p1 - other.p1)

    def __neg__(self) -> "JetPoly":
        return JetPoly(-self.p0, -self.p1)

    def __mul__(self, other: "JetPoly | Scalar") -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            return JetPoly(self.p0 * other, self.p1 * other)
        # eps^2 truncates: only the mixed terms survive at first order.
        return JetPoly(self.p0 * other.p0, self.p0 * other.p1 + self.p1 * other.p0)

    __rmul__ = __mul__

    def partial(self, axis: int) -> "JetPoly":
        return JetPoly(self.p0.partial(axis), self.p1.partial(axis))

    def is_zero(self) -> bool:
        return self.p0.is_zero() and self.p1.is_zero()

    def __str__(self) -> str:
        return f"({self.p0}) + eps*({self.p1})"


JetMatrix = tuple[tuple[JetPoly, ...], ...]


def _jet_zero() -> JetPoly:
    return JetPoly(Poly3(), Poly3())


def _mat3(entry):
    """3x3 tuple matrix of entry(i, j), 1-based; entries are jets or numbers."""
    return tuple(tuple(entry(i, j) for j in AXES) for i in AXES)


def _mat3_mul(a, b):
    """Matrix product; summing from the first term needs no zero of the entry type."""
    return _mat3(lambda i, j: a[i - 1][0] * b[0][j - 1] + a[i - 1][1] * b[1][j - 1]
                 + a[i - 1][2] * b[2][j - 1])


@dataclass(frozen=True)
class MetricJet:
    """Metric jet delta + eps*Sigma; the eps^0 part must be exactly delta."""

    entries: JetMatrix

    def __post_init__(self) -> None:
        entries = _mat3(lambda i, j: self.entries[i - 1][j - 1])
        object.__setattr__(self, "entries", entries)
        for i in AXES:
            for j in AXES:
                e = entries[i - 1][j - 1]
                if e.p0 != Poly3.constant(delta(i, j)):
                    raise ValueError("background part of a metric jet must be the identity")
                if not (e.p1 - entries[j - 1][i - 1].p1).is_zero():
                    raise ValueError("metric jet must be symmetric")

    @classmethod
    def from_strain(cls, sigma: SymField) -> "MetricJet":
        return cls(_mat3(
            lambda i, j: JetPoly(Poly3.constant(delta(i, j)), sigma.entry(i, j))))

    def entry(self, i: int, j: int) -> JetPoly:
        return self.entries[i - 1][j - 1]

    def strain(self) -> SymField:
        return SymField.from_entries(lambda i, j: self.entry(i, j).p1)


def jet_inverse(g: MetricJet) -> MetricJet:
    """Inverse metric jet: delta - eps*Sigma, verified by multiplication."""
    inv = MetricJet(_mat3(
        lambda i, j: JetPoly(Poly3.constant(delta(i, j)), -g.entry(i, j).p1)))
    ident = _mat3(lambda i, j: JetPoly.constant(delta(i, j)))
    for prod in (_mat3_mul(inv.entries, g.entries), _mat3_mul(g.entries, inv.entries)):
        for i in AXES:
            for j in AXES:
                if not (prod[i - 1][j - 1] - ident[i - 1][j - 1]).is_zero():
                    raise AssertionError("jet inverse failed its product check")
    return inv


@dataclass(frozen=True)
class ChristoffelJet:
    """Christoffel symbols Gamma_ij^k as jets, with vanishing background."""

    gamma: tuple[tuple[tuple[JetPoly, ...], ...], ...]

    def __post_init__(self) -> None:
        for i in AXES:
            for j in AXES:
                for k in AXES:
                    g = self.entry(i, j, k)
                    if not g.p0.is_zero():
                        raise ValueError("Christoffel jets of delta + eps*Sigma have no "
                                         "background part")
                    if not (g.p1 - self.entry(j, i, k).p1).is_zero():
                        raise ValueError("Christoffel symbols must be symmetric in the "
                                         "lower indices")

    def entry(self, i: int, j: int, k: int) -> JetPoly:
        return self.gamma[i - 1][j - 1][k - 1]


def christoffel_jet(g: MetricJet) -> ChristoffelJet:
    """Gamma_ij^k = (1/2) g^{kl} [d_i g_jl + d_j g_il - d_l g_ij] in jets."""
    return _christoffel(g, jet_inverse(g))


def _christoffel(g: MetricJet, ginv: MetricJet) -> ChristoffelJet:
    """Christoffel jets from g and its verified inverse.

    Each derivative jet d_m g_ij and each of the 27 brackets is formed once;
    Gamma_ij^k is still computed for all 27 (i, j, k), so the symmetry check
    in ChristoffelJet compares two computed values.
    """
    triples = [(i, j, l) for i in AXES for j in AXES for l in AXES]
    dg = {(m, i, j): g.entry(i, j).partial(m) for m, i, j in triples}
    bracket = {(i, j, l): dg[i, j, l] + dg[j, i, l] - dg[l, i, j] for i, j, l in triples}

    def gamma(i: int, j: int, k: int) -> JetPoly:
        total = _jet_zero()
        for l in AXES:
            total = total + ginv.entry(k, l) * bracket[i, j, l]
        return total * Fraction(1, 2)

    return ChristoffelJet(tuple(
        tuple(tuple(gamma(i, j, k) for k in AXES) for j in AXES) for i in AXES))


@dataclass(frozen=True)
class CurvatureJet:
    """Ricci, scalar and Einstein jets of a metric jet.

    The defining relation einstein = scalar * g - 2 * ricci is re-checked on
    construction.
    """

    metric: MetricJet
    ricci: JetMatrix
    scalar: JetPoly
    einstein: JetMatrix

    def __post_init__(self) -> None:
        for i in AXES:
            for j in AXES:
                expect = self.scalar * self.metric.entry(i, j) \
                    - self.ricci[i - 1][j - 1] * 2
                if not (self.einstein[i - 1][j - 1] - expect).is_zero():
                    raise ValueError("einstein jet must equal scalar*g - 2*ricci")


def ricci_jet(g: MetricJet) -> CurvatureJet:
    """Curvature jets of delta + eps*Sigma.

    One inverse (with its two-sided product check) serves the Christoffel
    jets and the scalar, and the three traces Gamma_jk^k are formed once.
    The two quadratic Christoffel sums are computed in jet arithmetic and
    asserted to vanish; at first order only the derivative terms survive.
    """
    ginv = jet_inverse(g)
    gamma = _christoffel(g, ginv)
    # Gamma_jk^k summed over k.
    trace = {j: sum((gamma.entry(j, k, k) for k in AXES), _jet_zero()) for j in AXES}

    def quad_terms(i: int, j: int) -> JetPoly:
        plus = sum((gamma.entry(i, k, m) * gamma.entry(j, m, k)
                    for k in AXES for m in AXES), _jet_zero())
        minus = sum((gamma.entry(i, j, m) * trace[m] for m in AXES), _jet_zero())
        q = plus - minus
        if not q.is_zero():
            raise AssertionError("quadratic Christoffel terms must vanish at first order")
        return q

    def ricci_entry(i: int, j: int) -> JetPoly:
        lead = trace[j].partial(i) - sum(
            (gamma.entry(i, j, k).partial(k) for k in AXES), _jet_zero())
        return lead + quad_terms(i, j)

    ricci = _mat3(ricci_entry)
    scalar = sum((ginv.entry(k, l) * ricci[k - 1][l - 1]
                  for k in AXES for l in AXES), _jet_zero())
    einstein = _mat3(
        lambda i, j: scalar * g.entry(i, j) - ricci[i - 1][j - 1] * 2)
    return CurvatureJet(metric=g, ricci=ricci, scalar=scalar, einstein=einstein)


def linearized_einstein(sigma: SymField) -> SymField:
    """First-order Einstein tensor of delta + eps*Sigma, as a symmetric field.

    Agrees exactly with curl_curl(sigma); that identity is the module's
    central verification target.
    """
    curvature = ricci_jet(MetricJet.from_strain(sigma))
    for i in AXES:
        for j in AXES:
            if not curvature.einstein[i - 1][j - 1].p0.is_zero():
                raise AssertionError("einstein jet of a perturbed flat metric has no "
                                     "background part")
    return SymField.from_entries(lambda i, j: curvature.einstein[i - 1][j - 1].p1)


def bianchi_check(sigma: SymField):
    """Divergence of the compatibility operator; identically zero.

    Returns the residual vector field div_sym(curl_curl(sigma)) so callers
    can assert its exact vanishing (the linearized contracted Bianchi
    identity for the flat background).
    """
    return div_sym(curl_curl(sigma))


# -- pointwise curvature of polynomial metrics ------------------------------

Mat3Q = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class PolyMetric:
    """Symmetric polynomial metric, evaluated exactly where needed."""

    entries: SymField

    @classmethod
    def from_matrix(cls, mat: Mat3Field) -> "PolyMetric":
        return cls(SymField.from_matrix(mat))

    @classmethod
    def euclidean(cls) -> "PolyMetric":
        return cls(SymField.identity())

    @classmethod
    def from_map_jacobian(cls, phi: Sequence[Poly3]) -> "PolyMetric":
        """Pullback of the flat metric by a polynomial map: g = J^T J."""
        if len(phi) != 3:
            raise ValueError("a polynomial map has three components")
        jac = Mat3Field.from_entries(lambda i, j: phi[j - 1].partial(i))
        product = Mat3Field.from_entries(lambda i, j: sum(
            (jac.entry(i, k) * jac.entry(j, k) for k in AXES), Poly3()))
        return cls.from_matrix(product)

    def entry(self, i: int, j: int) -> Poly3:
        return self.entries.entry(i, j)


@dataclass(frozen=True)
class CurvatureValues:
    """Exact curvature data of a metric at a single rational point."""

    ricci: Mat3Q
    scalar: Fraction
    einstein: Mat3Q

    def ricci_is_zero(self) -> bool:
        return all(v == 0 for row in self.ricci for v in row)


def _inverse3(m: Mat3Q) -> Mat3Q:
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    if det == 0:
        raise SingularMetricError("metric is singular at the evaluation point")
    cof = [[Fraction(0)] * 3 for _ in range(3)]
    idx = (0, 1, 2)
    for r in idx:
        for c in idx:
            rr = [v for v in idx if v != r]
            cc = [v for v in idx if v != c]
            minor = m[rr[0]][cc[0]] * m[rr[1]][cc[1]] - m[rr[0]][cc[1]] * m[rr[1]][cc[0]]
            cof[c][r] = (-1) ** (r + c) * minor / det
    return tuple(tuple(row) for row in cof)


def pointwise_curvature(metric: PolyMetric, point: Sequence[Scalar]) -> CurvatureValues:
    """Ricci, scalar and Einstein values of a polynomial metric at a point.

    Works entirely with exact evaluations: the 6 distinct metric entries,
    their 18 first and 36 distinct second derivatives are evaluated at the
    point (60 evaluations, 54 derivatives), the inverse metric is
    computed exactly, and derivatives of the inverse use
    d(g^{-1}) = -g^{-1} (dg) g^{-1}.  The full nonlinear Ricci formula is
    used, in the package's sign convention.
    """
    p = tuple(Fraction(v) for v in point)
    # g_ij = g_ji and d_m d_l = d_l d_m: each distinct derivative of each
    # distinct entry is formed and evaluated once, keyed by sorted indices.
    value, d1, d2 = {}, {}, {}
    for i, j in ((i, j) for i in AXES for j in AXES if i <= j):
        entry = metric.entry(i, j)
        value[i, j] = entry.evaluate(p)
        for m in AXES:
            dm = entry.partial(m)
            d1[m, i, j] = dm.evaluate(p)
            for l in AXES[m - 1:]:
                d2[m, l, i, j] = dm.partial(l).evaluate(p)
    g = _mat3(lambda i, j: value[min(i, j), max(i, j)])
    dg = {m: _mat3(lambda i, j: d1[m, min(i, j), max(i, j)]) for m in AXES}
    ddg = {(m, l): _mat3(lambda i, j: d2[min(m, l), max(m, l), min(i, j), max(i, j)])
           for m in AXES for l in AXES}
    ginv = _inverse3(g)
    dginv = {}
    for m in AXES:
        inner = _mat3_mul(_mat3_mul(ginv, dg[m]), ginv)
        dginv[m] = _mat3(lambda i, j: -inner[i - 1][j - 1])

    # The brackets d_i g_jl + d_j g_il - d_l g_ij and their derivatives, then
    # Gamma_ij^k and d_m Gamma_ij^k: each value is computed once per point.
    triples = [(i, j, l) for i in AXES for j in AXES for l in AXES]
    bracket = {(i, j, l): dg[i][j - 1][l - 1] + dg[j][i - 1][l - 1] - dg[l][i - 1][j - 1]
               for i, j, l in triples}
    dbracket = {(m, i, j, l): (ddg[m, i][j - 1][l - 1] + ddg[m, j][i - 1][l - 1]
                               - ddg[m, l][i - 1][j - 1])
                for m in AXES for i, j, l in triples}
    gamma = {(i, j, k): sum(ginv[k - 1][l - 1] * bracket[i, j, l] for l in AXES) / 2
             for i, j, k in triples}
    dgamma = {(m, i, j, k): sum(dginv[m][k - 1][l - 1] * bracket[i, j, l]
                                + ginv[k - 1][l - 1] * dbracket[m, i, j, l]
                                for l in AXES) / 2
              for m in AXES for i, j, k in triples}

    def ricci_entry(i: int, j: int) -> Fraction:
        lead = sum(dgamma[i, j, k, k] - dgamma[k, i, j, k] for k in AXES)
        quad = sum(gamma[i, k, m] * gamma[j, m, k] for k in AXES for m in AXES) \
            - sum(gamma[i, j, m] * gamma[m, k, k] for k in AXES for m in AXES)
        return lead + quad

    ricci = _mat3(ricci_entry)
    scalar = sum(ginv[k - 1][l - 1] * ricci[k - 1][l - 1] for k in AXES for l in AXES)
    einstein = _mat3(lambda i, j: scalar * g[i - 1][j - 1] - 2 * ricci[i - 1][j - 1])
    return CurvatureValues(ricci=ricci, scalar=scalar, einstein=einstein)
