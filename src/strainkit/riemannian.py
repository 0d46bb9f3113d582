"""Curvature of perturbed and polynomial metrics, in exact arithmetic.

Two regimes are covered.  First-order jets handle metrics delta + eps*Sigma
with eps^2 = 0: every curvature quantity is computed in truncated jet
arithmetic, and the two quadratic Christoffel sums are asserted (not
assumed) to be equal, so they cancel and are never added into Ricci.
Pointwise evaluation handles honest polynomial metrics at a rational point,
with the full nonlinear curvature formula.

Sign convention: the Ricci tensor is

    R_ij = d_i Gamma_jk^k - d_k Gamma_ij^k + Gamma_ik^m Gamma_jm^k
                                           - Gamma_ij^m Gamma_mk^k,

chosen so that the first-order Einstein tensor of delta + eps*Sigma equals
the compatibility operator curl_curl(Sigma) exactly.  The Einstein tensor is
scalar * g - 2 * Ricci throughout.

Each intermediate is formed once per call.  A jet curvature call builds one
inverse, the 27 derivative jets d_m g_ij, the 27 brackets
d_i g_jl + d_j g_il - d_l g_ij and the 3 traces Gamma_jk^k, and still runs
its checks: symmetric Gamma (all 27 symbols are computed) and cancelling
quadratic terms.  Each check compares canonical values with ==, which
builds no difference.  The inverse delta - eps*Sigma is not multiplied
back: the MetricJet door admits only the background delta and a symmetric
Sigma, which make it exact.  The jet route carries 2 Gamma and 4 Ricci,
integer jets when Sigma is, and runs the Gamma and quadratic-term checks on
these numerators, which scaling by a nonzero constant leaves equivalent.
Einstein is built as
scalar * g - 2 * ricci on the numerators 4 S and 4 R, and Ricci, scalar
and Einstein are each scaled by 1/4 once at the end; `christoffel_jet`
halves 2 Gamma.  The derivative, Christoffel and
curvature jets all have an empty background (delta is constant), so jet
arithmetic skips the Poly3 work on those backgrounds: a sum, difference,
scalar multiple or partial derivative computes only the eps part, a product
with an empty background on either side is one Poly3 product, and the
product of two such jets (the quadratic Christoffel terms) is the shared
zero jet by the jet rule eps^2 = 0, which a sum passes over.  The
quadratic-term check still compares the two sums.

Pointwise evaluation builds no Fraction between reading the point and
returning its 19 results (9 Ricci, 1 scalar, 9 Einstein values).  One
integer pass over the terms of each of the 6 distinct metric entries
(`poly.second_jets`) gives the value, 3 first and 6 distinct second partials
as numerators G, dG_m, ddG_ml over one common denominator D; its per-axis
power tables {a: n^a d^(top-a)} hold only the exponents the terms use and
the two below each, never a range sized by the degree.  With A = adj G and
Delta = det G the metric is singular iff Delta = 0, and the numerators of
Gamma, d_m Gamma, Ricci, scalar and Einstein are integers over 2 Delta,
2 Delta^2, 4 Delta^2, 4 Delta^3 and 4 Delta^3 D.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add
from typing import Sequence

from .calculus import curl_curl, div_sym
from .errors import SingularMetricError
from .fields import AXES, Mat3Field, SymField, _Value, delta
from .poly import ONE, ZERO, ZERO_EXP, Poly3, Scalar, _check_axis, _coerce, second_jets


class JetPoly(_Value):
    """First-order jet p0 + eps*p1 with eps^2 = 0.

    The public constructor coerces scalar parts to Poly3; arithmetic builds
    its results with `_of` from parts that are Poly3 already.  Every
    derivative, Christoffel and curvature jet of delta + eps*Sigma has an
    empty background, so arithmetic reads the background before it works on
    it: +, - and scalar * with an empty background (partial with a constant
    one) only compute p1, a product with one empty background is one Poly3
    product, a product of two is the shared zero jet by eps^2 = 0, and a sum
    with that zero jet returns the other operand.
    """

    __slots__ = ("p0", "p1")

    def __init__(self, p0: Poly3 | Scalar, p1: Poly3 | Scalar) -> None:
        object.__setattr__(self, "p0", _coerce(p0))
        object.__setattr__(self, "p1", _coerce(p1))

    @classmethod
    def _of(cls, p0: Poly3, p1: Poly3) -> "JetPoly":
        """The jet p0 + eps*p1 from two Poly3 parts, without coercion."""
        jet = object.__new__(cls)
        object.__setattr__(jet, "p0", p0)
        object.__setattr__(jet, "p1", p1)
        return jet

    @classmethod
    def constant(cls, c: Scalar) -> "JetPoly":
        return cls(Poly3.constant(c), Poly3())

    def __add__(self, other: "JetPoly") -> "JetPoly":
        if type(other) is not JetPoly:
            return NotImplemented
        if other is _JET_ZERO:
            return self
        if self is _JET_ZERO:
            return other
        a0, b0 = self.p0, other.p0
        if not b0.terms:
            return JetPoly._of(a0, self.p1 + other.p1)
        if not a0.terms:
            return JetPoly._of(b0, self.p1 + other.p1)
        return JetPoly._of(a0 + b0, self.p1 + other.p1)

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        if type(other) is not JetPoly:
            return NotImplemented
        a0, b0 = self.p0, other.p0
        return JetPoly._of(a0 - b0 if b0.terms else a0, self.p1 - other.p1)

    def __neg__(self) -> "JetPoly":
        return JetPoly._of(-self.p0, -self.p1)

    def __mul__(self, other: "JetPoly | Scalar") -> "JetPoly":
        if type(other) is JetPoly:
            # eps^2 truncates: only the mixed terms survive at first order.  With
            # one background empty, (a0 + eps a1)(b0 + eps b1) is a single
            # product, eps a1 b0 or eps a0 b1; with both empty it is
            # eps^2 a1 b1 = 0, the shared zero jet.
            a0, b0 = self.p0, other.p0
            if not a0.terms:
                if not b0.terms:
                    return _JET_ZERO
                return JetPoly._of(ZERO, self.p1 * b0)
            if not b0.terms:
                return JetPoly._of(ZERO, a0 * other.p1)
            return JetPoly._of(a0 * b0, a0 * other.p1 + self.p1 * b0)
        if isinstance(other, (int, Fraction)):
            a0 = self.p0
            return JetPoly._of(a0 * other if a0.terms else a0, self.p1 * other)
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, axis: int) -> "JetPoly":
        """d/dx_axis of both parts; a constant background differentiates to ZERO."""
        a0 = self.p0.terms
        if not a0 or (len(a0) == 1 and ZERO_EXP in a0):
            return JetPoly._of(ZERO, self.p1.partial(axis))
        return JetPoly._of(self.p0.partial(axis), self.p1.partial(axis))

    def is_zero(self) -> bool:
        return self.p0.is_zero() and self.p1.is_zero()

    def __str__(self) -> str:
        return f"({self.p0}) + eps*({self.p1})"


_JET_ZERO = JetPoly._of(ZERO, ZERO)

JetMatrix = tuple[tuple[JetPoly, ...], ...]


def _mat3(entry):
    """3x3 tuple matrix of entry(i, j), 1-based; entries are jets or numbers."""
    return tuple(tuple(entry(i, j) for j in AXES) for i in AXES)


class MetricJet(_Value):
    """Metric jet delta + eps*Sigma; the eps^0 part must be exactly delta."""

    __slots__ = ("entries",)

    def __init__(self, entries: JetMatrix) -> None:
        rows = _mat3(lambda i, j: entries[i - 1][j - 1])
        object.__setattr__(self, "entries", rows)
        for i in AXES:
            for j in AXES:
                e = rows[i - 1][j - 1]
                if e.p0 != (ONE if i == j else ZERO):
                    raise ValueError("background part of a metric jet must be the identity")
                if e.p1 != rows[j - 1][i - 1].p1:
                    raise ValueError("metric jet must be symmetric")

    @classmethod
    def from_strain(cls, sigma: SymField) -> "MetricJet":
        return cls(_mat3(
            lambda i, j: JetPoly(Poly3.constant(delta(i, j)), sigma.entry(i, j))))

    def entry(self, i: int, j: int) -> JetPoly:
        return self.entries[_check_axis(i) - 1][_check_axis(j) - 1]

    def strain(self) -> SymField:
        return SymField.from_entries(lambda i, j: self.entries[i - 1][j - 1].p1)


def jet_inverse(g: MetricJet) -> MetricJet:
    """Inverse metric jet delta - eps*Sigma.

    MetricJet admits only a background of exactly delta and a symmetric
    Sigma, so (delta + eps*Sigma)(delta - eps*Sigma) = delta by eps^2 = 0 on
    either side; no product is formed to confirm it.
    """
    return MetricJet(_mat3(
        lambda i, j: JetPoly(Poly3.constant(delta(i, j)), -g.entries[i - 1][j - 1].p1)))


class ChristoffelJet(_Value):
    """Christoffel symbols Gamma_ij^k as jets, with vanishing background."""

    __slots__ = ("gamma",)

    def __init__(self, gamma: tuple[tuple[tuple[JetPoly, ...], ...], ...]) -> None:
        object.__setattr__(self, "gamma", gamma)
        for i in AXES:
            for j in AXES:
                for k in AXES:
                    g = gamma[i - 1][j - 1][k - 1]
                    if not g.p0.is_zero():
                        raise ValueError("Christoffel jets of delta + eps*Sigma have no "
                                         "background part")
                    if g.p1 != gamma[j - 1][i - 1][k - 1].p1:
                        raise ValueError("Christoffel symbols must be symmetric in the "
                                         "lower indices")

    def entry(self, i: int, j: int, k: int) -> JetPoly:
        return self.gamma[_check_axis(i) - 1][_check_axis(j) - 1][_check_axis(k) - 1]


def christoffel_jet(g: MetricJet) -> ChristoffelJet:
    """Gamma_ij^k = (1/2) g^{kl} [d_i g_jl + d_j g_il - d_l g_ij] in jets."""
    doubled = _christoffel(g, jet_inverse(g))
    half = Fraction(1, 2)
    return ChristoffelJet(tuple(tuple(tuple(v * half for v in row) for row in plane)
                                for plane in doubled.gamma))


def _christoffel(g: MetricJet, ginv: MetricJet) -> ChristoffelJet:
    """Doubled Christoffel jets 2 Gamma_ij^k = g^{kl} [bracket] from g and its
    inverse, integer when Sigma is.

    Each derivative jet d_m g_ij and each of the 27 brackets is formed once;
    2 Gamma_ij^k is still computed for all 27 (i, j, k), so the symmetry and
    background checks in ChristoffelJet, which doubling leaves equivalent,
    compare computed values.
    """
    triples = [(i, j, l) for i in AXES for j in AXES for l in AXES]
    dg = {(m, i, j): g.entries[i - 1][j - 1].partial(m) for m, i, j in triples}
    bracket = {(i, j, l): dg[i, j, l] + dg[j, i, l] - dg[l, i, j] for i, j, l in triples}

    def gamma(i: int, j: int, k: int) -> JetPoly:
        row = ginv.entries[k - 1]
        return (row[0] * bracket[i, j, 1] + row[1] * bracket[i, j, 2]
                + row[2] * bracket[i, j, 3])

    return ChristoffelJet(tuple(
        tuple(tuple(gamma(i, j, k) for k in AXES) for j in AXES) for i in AXES))


class CurvatureJet(_Value):
    """Ricci, scalar and Einstein jets of a metric jet.

    The public constructor checks the defining relation
    einstein = scalar * g - 2 * ricci entry by entry on its input;
    `ricci_jet`, which builds Einstein by that relation, uses `_of`.
    """

    __slots__ = ("metric", "ricci", "scalar", "einstein")

    def __init__(self, metric: MetricJet, ricci: JetMatrix, scalar: JetPoly,
                 einstein: JetMatrix) -> None:
        for i in AXES:
            for j in AXES:
                expect = scalar * metric.entries[i - 1][j - 1] - ricci[i - 1][j - 1] * 2
                if einstein[i - 1][j - 1] != expect:
                    raise ValueError("einstein jet must equal scalar*g - 2*ricci")
        self._set(metric, ricci, scalar, einstein)

    @classmethod
    def _of(cls, metric: MetricJet, ricci: JetMatrix, scalar: JetPoly,
            einstein: JetMatrix) -> "CurvatureJet":
        """The curvature jets as given, whose relation the caller has checked."""
        curvature = object.__new__(cls)
        curvature._set(metric, ricci, scalar, einstein)
        return curvature

    def _set(self, metric, ricci, scalar, einstein) -> None:
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "ricci", ricci)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "einstein", einstein)


def ricci_jet(g: MetricJet) -> CurvatureJet:
    """Curvature jets of delta + eps*Sigma.

    One inverse serves the Christoffel jets and the scalar, and the three
    traces Gamma_jk^k are formed once.  Nothing returned depends on the
    inverse's eps part: Gamma multiplies it by brackets with no background,
    the scalar multiplies it by Ricci with no background, and eps^2 = 0.
    The route carries 2 Gamma and 4 Ricci, integer jets when Sigma is
    integer: 4 R_ij = 2 (d_i (2 Gamma)_jk^k - d_k (2 Gamma)_ij^k).  The two
    quadratic sums of 2 Gamma are computed in jet arithmetic and asserted
    equal, so they cancel at first order and are not added.
    The scalar and Einstein jets follow as 4 S and 4 G = 4 S g - 2 (4 R).
    Ricci, scalar and Einstein are then each scaled by 1/4 once and built
    through the trusted `CurvatureJet._of`.
    """
    ginv = jet_inverse(g)
    # gamma[i - 1][j - 1][k - 1] is 2 Gamma_ij^k; trace[j - 1] sums 2 Gamma_jk^k over k.
    gamma = _christoffel(g, ginv).gamma
    trace = [reduce(add, [row[k] for k, row in enumerate(plane)]) for plane in gamma]

    def ricci_entry(i: int, j: int) -> JetPoly:
        gi, gj = gamma[i - 1], gamma[j - 1]
        plus = reduce(add, [gi[k][m] * gj[m][k] for k in range(3) for m in range(3)])
        minus = reduce(add, [v * t for v, t in zip(gi[j - 1], trace)])
        if plus != minus:
            raise AssertionError("quadratic Christoffel terms must vanish at first order")
        lead = trace[j - 1].partial(i) - reduce(
            add, [v.partial(k) for k, v in zip(AXES, gi[j - 1])])
        return lead * 2

    ricci = _mat3(ricci_entry)
    scalar = reduce(add, [v * r for vs, rs in zip(ginv.entries, ricci)
                          for v, r in zip(vs, rs)])
    einstein = _mat3(
        lambda i, j: scalar * g.entries[i - 1][j - 1] - ricci[i - 1][j - 1] * 2)
    quarter = Fraction(1, 4)
    return CurvatureJet._of(
        g, _mat3(lambda i, j: ricci[i - 1][j - 1] * quarter), scalar * quarter,
        _mat3(lambda i, j: einstein[i - 1][j - 1] * quarter))


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


class PolyMetric(_Value):
    """Symmetric polynomial metric, evaluated exactly where needed."""

    __slots__ = ("entries",)

    def __init__(self, entries: SymField) -> None:
        object.__setattr__(self, "entries", entries)

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


class CurvatureValues(_Value):
    """Exact curvature data of a metric at a single rational point."""

    __slots__ = ("ricci", "scalar", "einstein")

    def __init__(self, ricci: Mat3Q, scalar: Fraction, einstein: Mat3Q) -> None:
        object.__setattr__(self, "ricci", ricci)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "einstein", einstein)

    def ricci_is_zero(self) -> bool:
        return all(v == 0 for row in self.ricci for v in row)


def _dot(u, v) -> int:
    """Dot product of two integer 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def pointwise_curvature(metric: PolyMetric, point: Sequence[Scalar]) -> CurvatureValues:
    """Ricci, scalar and Einstein values of a polynomial metric at a point.

    One integer pass per distinct metric entry (`second_jets`) gives G, dG_m
    and ddG_ml with g = G/D, d_m g = dG_m/D and d_m d_l g = ddG_ml/D.  With
    A = adj G and Delta = det G (g^{-1} = D A/Delta), the full nonlinear
    formula runs in integers: brackets B, Gamma = A B/(2 Delta),
    d_m Gamma = (Delta A dB_m - (A dG_m A) B)/(2 Delta^2),
    Ricci = N/(4 Delta^2), scalar = D sum A o N/(4 Delta^3) and
    Einstein = (S G - 2 Delta D N)/(4 Delta^3 D).  Only the 19 results are
    Fractions.
    """
    r = range(3)
    # g_ij = g_ji: one jet row per distinct entry, shared by both positions.
    pairs = [(i, j) for i in r for j in r if i <= j]
    denom, rows = second_jets([metric.entry(i + 1, j + 1) for i, j in pairs], point)
    jet = dict(zip(pairs, rows))
    entry = [[jet[min(i, j), max(i, j)] for j in r] for i in r]
    g = [[entry[i][j][0] for j in r] for i in r]
    dg = [[[entry[i][j][1 + m] for j in r] for i in r] for m in r]
    # d_m d_l = d_l d_m: column of p_ml in a jet row.
    second = ((4, 5, 6), (5, 7, 8), (6, 8, 9))
    ddg = [[[[entry[i][j][second[m][l]] for j in r] for i in r] for l in r] for m in r]

    adj = [[g[(j + 1) % 3][(i + 1) % 3] * g[(j + 2) % 3][(i + 2) % 3]
            - g[(j + 1) % 3][(i + 2) % 3] * g[(j + 2) % 3][(i + 1) % 3]
            for j in r] for i in r]
    det = g[0][0] * adj[0][0] + g[0][1] * adj[1][0] + g[0][2] * adj[2][0]
    if det == 0:
        raise SingularMetricError("metric is singular at the evaluation point")
    # A dG_m A (all three factors symmetric): d_m g^{-1} = -D A dG_m A / Delta^2.
    adg = [[[_dot(adj[i], dg[m][b]) for b in r] for i in r] for m in r]
    ada = [[[_dot(adg[m][i], adj[j]) for j in r] for i in r] for m in r]

    # Brackets d_i g_jl + d_j g_il - d_l g_ij and their derivatives, over D,
    # as vectors over l; Gamma_ij^k over 2 Delta.
    bracket = [[[dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in r] for j in r]
               for i in r]
    dbracket = [[[[ddg[m][i][j][l] + ddg[m][j][i][l] - ddg[m][l][i][j] for l in r]
                  for j in r] for i in r] for m in r]
    gamma = [[[_dot(adj[k], bracket[i][j]) for k in r] for j in r] for i in r]
    trace = [gamma[j][0][0] + gamma[j][1][1] + gamma[j][2][2] for j in r]

    def ricci_entry(i: int, j: int) -> int:
        """R_ij over 4 Delta^2.

        d_m Gamma_ij^k is Delta (A dB_mij)_k - (A dG_m A B_ij)_k over
        2 Delta^2; lead sums d_i Gamma_jk^k - d_k Gamma_ij^k over k.
        """
        lead = sum(det * (_dot(adj[k], dbracket[i][j][k]) - _dot(adj[k], dbracket[k][i][j]))
                   - _dot(ada[i][k], bracket[j][k]) + _dot(ada[k][k], bracket[i][j])
                   for k in r)
        quad = sum(gamma[i][k][m] * gamma[j][m][k] for k in r for m in r) \
            - _dot(gamma[i][j], trace)
        return 2 * lead + quad

    # Numerators N of Ricci and S of the scalar.
    ricci = [[ricci_entry(i, j) for j in r] for i in r]
    scalar = denom * sum(adj[k][l] * ricci[k][l] for k in r for l in r)
    den_ricci = 4 * det * det
    den_scalar = den_ricci * det
    den_einstein = den_scalar * denom
    return CurvatureValues(
        ricci=_mat3(lambda i, j: Fraction(ricci[i - 1][j - 1], den_ricci)),
        scalar=Fraction(scalar, den_scalar),
        einstein=_mat3(lambda i, j: Fraction(
            scalar * g[i - 1][j - 1] - 2 * det * denom * ricci[i - 1][j - 1],
            den_einstein)))
