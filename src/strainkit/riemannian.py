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
The jet route carries 2 Gamma and 4 Ricci, integer jets when Sigma is, and
runs the Gamma and quadratic-term checks on these numerators, which scaling
by a nonzero constant leaves equivalent; Ricci, scalar and Einstein are
scaled by 1/4 once at the end, before their relation is checked, and
`christoffel_jet` halves 2 Gamma.

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
from typing import Sequence

from .calculus import curl_curl, div_sym
from .errors import SingularMetricError
from .fields import AXES, Mat3Field, SymField, _Value, delta
from .poly import ZERO, Poly3, Scalar, _coerce, second_jets


class JetPoly(_Value):
    """First-order jet p0 + eps*p1 with eps^2 = 0.

    The public constructor coerces scalar parts to Poly3; arithmetic builds
    its results with `_of` from parts that are Poly3 already.
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
        return JetPoly._of(self.p0 + other.p0, self.p1 + other.p1)

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return JetPoly._of(self.p0 - other.p0, self.p1 - other.p1)

    def __neg__(self) -> "JetPoly":
        return JetPoly._of(-self.p0, -self.p1)

    def __mul__(self, other: "JetPoly | Scalar") -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            return JetPoly._of(self.p0 * other, self.p1 * other)
        # eps^2 truncates: only the mixed terms survive at first order.
        return JetPoly._of(self.p0 * other.p0, self.p0 * other.p1 + self.p1 * other.p0)

    __rmul__ = __mul__

    def partial(self, axis: int) -> "JetPoly":
        return JetPoly._of(self.p0.partial(axis), self.p1.partial(axis))

    def is_zero(self) -> bool:
        return self.p0.is_zero() and self.p1.is_zero()

    def __str__(self) -> str:
        return f"({self.p0}) + eps*({self.p1})"


JetMatrix = tuple[tuple[JetPoly, ...], ...]


def _jet_zero() -> JetPoly:
    return JetPoly._of(ZERO, ZERO)


def _mat3(entry):
    """3x3 tuple matrix of entry(i, j), 1-based; entries are jets or numbers."""
    return tuple(tuple(entry(i, j) for j in AXES) for i in AXES)


def _mat3_mul(a, b):
    """Matrix product; summing from the first term needs no zero of the entry type."""
    return _mat3(lambda i, j: a[i - 1][0] * b[0][j - 1] + a[i - 1][1] * b[1][j - 1]
                 + a[i - 1][2] * b[2][j - 1])


class MetricJet(_Value):
    """Metric jet delta + eps*Sigma; the eps^0 part must be exactly delta."""

    __slots__ = ("entries",)

    def __init__(self, entries: JetMatrix) -> None:
        rows = _mat3(lambda i, j: entries[i - 1][j - 1])
        object.__setattr__(self, "entries", rows)
        for i in AXES:
            for j in AXES:
                e = rows[i - 1][j - 1]
                if e.p0 != Poly3.constant(delta(i, j)):
                    raise ValueError("background part of a metric jet must be the identity")
                if not (e.p1 - rows[j - 1][i - 1].p1).is_zero():
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


class ChristoffelJet(_Value):
    """Christoffel symbols Gamma_ij^k as jets, with vanishing background."""

    __slots__ = ("gamma",)

    def __init__(self, gamma: tuple[tuple[tuple[JetPoly, ...], ...], ...]) -> None:
        object.__setattr__(self, "gamma", gamma)
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
    doubled = _christoffel(g, jet_inverse(g))
    half = Fraction(1, 2)
    return ChristoffelJet(tuple(
        tuple(tuple(doubled.entry(i, j, k) * half for k in AXES) for j in AXES)
        for i in AXES))


def _christoffel(g: MetricJet, ginv: MetricJet) -> ChristoffelJet:
    """Doubled Christoffel jets 2 Gamma_ij^k = g^{kl} [bracket] from g and its
    verified inverse, integer when Sigma is.

    Each derivative jet d_m g_ij and each of the 27 brackets is formed once;
    2 Gamma_ij^k is still computed for all 27 (i, j, k), so the symmetry and
    background checks in ChristoffelJet, which doubling leaves equivalent,
    compare computed values.
    """
    triples = [(i, j, l) for i in AXES for j in AXES for l in AXES]
    dg = {(m, i, j): g.entry(i, j).partial(m) for m, i, j in triples}
    bracket = {(i, j, l): dg[i, j, l] + dg[j, i, l] - dg[l, i, j] for i, j, l in triples}

    def gamma(i: int, j: int, k: int) -> JetPoly:
        total = _jet_zero()
        for l in AXES:
            total = total + ginv.entry(k, l) * bracket[i, j, l]
        return total

    return ChristoffelJet(tuple(
        tuple(tuple(gamma(i, j, k) for k in AXES) for j in AXES) for i in AXES))


class CurvatureJet(_Value):
    """Ricci, scalar and Einstein jets of a metric jet.

    The defining relation einstein = scalar * g - 2 * ricci is re-checked on
    construction.
    """

    __slots__ = ("metric", "ricci", "scalar", "einstein")

    def __init__(self, metric: MetricJet, ricci: JetMatrix, scalar: JetPoly,
                 einstein: JetMatrix) -> None:
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "ricci", ricci)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "einstein", einstein)
        for i in AXES:
            for j in AXES:
                expect = scalar * metric.entry(i, j) - ricci[i - 1][j - 1] * 2
                if not (einstein[i - 1][j - 1] - expect).is_zero():
                    raise ValueError("einstein jet must equal scalar*g - 2*ricci")


def ricci_jet(g: MetricJet) -> CurvatureJet:
    """Curvature jets of delta + eps*Sigma.

    One inverse (with its two-sided product check) serves the Christoffel
    jets and the scalar, and the three traces Gamma_jk^k are formed once.
    The route carries 2 Gamma and 4 Ricci, integer jets when Sigma is
    integer: 4 R_ij = 2 (d_i (2 Gamma)_jk^k - d_k (2 Gamma)_ij^k) plus the
    quadratic sums of 2 Gamma, which are computed in jet arithmetic and
    asserted to vanish; at first order only the derivative terms survive.
    The scalar and Einstein jets follow as 4 S and 4 G, and Ricci, scalar and
    Einstein are each scaled by 1/4 once at the end; CurvatureJet then checks
    the defining relation on them.
    """
    ginv = jet_inverse(g)
    gamma = _christoffel(g, ginv)
    # 2 Gamma_jk^k summed over k.
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
        return lead * 2 + quad_terms(i, j)

    ricci = _mat3(ricci_entry)
    scalar = sum((ginv.entry(k, l) * ricci[k - 1][l - 1]
                  for k in AXES for l in AXES), _jet_zero())
    einstein = _mat3(
        lambda i, j: scalar * g.entry(i, j) - ricci[i - 1][j - 1] * 2)
    quarter = Fraction(1, 4)
    return CurvatureJet(
        metric=g, ricci=_mat3(lambda i, j: ricci[i - 1][j - 1] * quarter),
        scalar=scalar * quarter,
        einstein=_mat3(lambda i, j: einstein[i - 1][j - 1] * quarter))


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
