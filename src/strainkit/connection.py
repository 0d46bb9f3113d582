"""A coupled flat connection on the rank-6 bundle R^3 (+) R^3.

Sections pair a displacement-like vector field X with an auxiliary rotation
field Y.  The connection couples the two summands through the alternating
tensor; its flat sections are exactly the infinitesimal rigid motions
a + b x x (in the X component).  Inverting the connection gradient recovers a
displacement field from a compatible strain.

`saint_venant_reconstruct` and `w_poincare` work on integer numerators:
the input is read as N / L with L the lcm of its coefficient denominators,
and curl_curl, the connection curl and both integrations run on N.
`saint_venant_reconstruct` takes curl_curl and the connection curl once
each: the curl of its one-form, checked slot by slot against the
compatibility residual, is the closedness proof.  It then integrates through
the same private helper as `w_poincare`, which still checks that each of the
6 columns it integrates is curl-free (6 vector `curl`s per reconstruction,
on numerators; a nonzero scale leaves each check equivalent).  Each column
potential comes as m times the potential (see
`calculus._potential_numerator`), so each output coefficient is divided
once.  A CompatibilityError carries the residual of the caller's own input,
divided back by L.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .calculus import _potential_numerator, curl_curl, curl_row
from .errors import CompatibilityError
from .fields import (AXES, Mat3Field, SymField, VecField, _Field, delta, eps,
                     random_field)
from .poly import Poly3, _canonical


class WField(_Field):
    """Section (X, Y) of the coupled bundle."""

    __slots__ = ("x", "y")
    KIND = "w"
    KEYS = tuple("x" + k for k in VecField.KEYS) + tuple("y" + k for k in VecField.KEYS)

    def __init__(self, x: VecField, y: VecField) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def parts(self) -> tuple[Poly3, ...]:
        return self.x.parts + self.y.parts

    @classmethod
    def from_parts(cls, parts) -> "WField":
        return cls(VecField.from_parts(parts[:3]), VecField.from_parts(parts[3:]))


class WOneForm(_Field):
    """Bundle-valued one-form: matrices (sigma, xi).

    Entry (j, l) carries form index j (the direction of differentiation) and
    bundle index l, i.e. rows are form indices and columns bundle indices.
    """

    __slots__ = ("sigma", "xi")
    KIND = "wform"
    KEYS = (tuple("sigma" + k for k in Mat3Field.KEYS)
            + tuple("xi" + k for k in Mat3Field.KEYS))

    def __init__(self, sigma: Mat3Field, xi: Mat3Field) -> None:
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "xi", xi)

    @property
    def parts(self) -> tuple[Poly3, ...]:
        return self.sigma.parts + self.xi.parts

    @classmethod
    def from_parts(cls, parts) -> "WOneForm":
        return cls(Mat3Field.from_parts(parts[:9]), Mat3Field.from_parts(parts[9:]))


def w_grad(f: WField) -> WOneForm:
    """Connection gradient: (d_j X_l - eps_{jl}^m Y_m ; d_j Y_l)."""
    sigma = Mat3Field.from_entries(
        lambda j, l: f.x.comp(l).partial(j)
        - sum((f.y.comp(m) * eps(j, l, m) for m in AXES), Poly3()))
    xi = Mat3Field.from_entries(lambda j, l: f.y.comp(l).partial(j))
    return WOneForm(sigma, xi)


def w_curl(psi: WOneForm) -> WOneForm:
    """Connection curl of a one-form.

    First slot: eps_i^{jk} d_j Sigma_{kl} - Xi_{li} + delta_{il} tr(Xi); in
    matrix terms curl_row(Sigma) - Xi^T + delta tr(Xi).  Second slot:
    curl_row(Xi).
    """
    tr = psi.xi.trace()
    slot1 = curl_row(psi.sigma) - psi.xi.transpose() \
        + Mat3Field.from_entries(lambda i, l: tr * delta(i, l))
    slot2 = curl_row(psi.xi)
    return WOneForm(slot1, slot2)


def w_div(theta: WOneForm) -> WField:
    """Connection divergence: (d^j T1_{jl} - eps^j_l^m T2_{jm} ; d^j T2_{jl})."""
    slot1 = VecField(tuple(
        sum((theta.sigma.entry(j, l).partial(j) for j in AXES), Poly3())
        - sum((theta.xi.entry(j, m) * eps(j, l, m) for j in AXES for m in AXES), Poly3())
        for l in AXES))
    slot2 = VecField(tuple(
        sum((theta.xi.entry(j, l).partial(j) for j in AXES), Poly3())
        for l in AXES))
    return WField(slot1, slot2)


# e_1, e_2, e_3: unit vectors, and the exponents of x1, x2, x3.
_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def rigid_motion(a, b) -> VecField:
    """The infinitesimal rigid motion x -> a + b x x with rational a, b."""
    a1, a2, a3 = map(_canonical, a)
    b1, b2, b3 = map(_canonical, b)
    x1, x2, x3 = (Poly3.variable(i) for i in AXES)
    return VecField.of(a1 + b2 * x3 - b3 * x2, a2 + b3 * x1 - b1 * x3,
                       a3 + b1 * x2 - b2 * x1)


def flat_sections_basis() -> list[WField]:
    """Six flat sections: three translations, then three rotations.

    Translation m: X = e_m, Y = 0.  Rotation m: X = e_m x x (that is,
    rigid_motion(0, e_m)), Y = e_m.  Together their X components span all
    rigid motions.
    """
    return ([WField(VecField.basis(m), VecField.zero()) for m in AXES]
            + [WField(rigid_motion((0, 0, 0), _UNIT[m - 1]), VecField.basis(m))
               for m in AXES])


def w_poincare(psi: WOneForm) -> WField:
    """Primitive of a connection-closed one-form, vanishing at the origin.

    Requires w_curl(psi) = 0 exactly; the curl is taken on the integer
    numerators of psi, and a CompatibilityError carries the residual of psi
    itself.  The Y component is recovered first by integrating the columns
    of xi; the X component then comes from the columns of A = sigma + eps . Y,
    which the closedness condition makes curl-free.
    """
    form, den = psi.numerators()
    residual = w_curl(form)
    if not residual.is_zero():
        raise CompatibilityError("one-form is not connection-closed",
                                 residual=residual.scaled(Fraction(1, den)))
    x, y, y_den = _integrate_closed(form, den)
    return WField(x, y.scaled(Fraction(1, y_den)))


def _column_potentials(mat: Mat3Field) -> tuple[VecField, int]:
    """(m F, m): the potentials F_l of the columns of mat over one common m."""
    pairs = [_potential_numerator(mat.column(l)) for l in AXES]
    m = lcm(*(k for _, k in pairs))
    return VecField(tuple(f * (m // k) for f, k in pairs)), m


def _integrate_closed(psi: WOneForm, den: int) -> tuple[VecField, VecField, int]:
    """Primitive (x, Y / n) of psi / den, whose closedness the caller has
    just proved, from its integer numerators psi.

    The column potentials of psi.xi give Y = n y with n = den m1.  The
    corrected matrix m1 psi.sigma + eps . Y is n A, and its column
    potentials are m2 n x, so x is divided once, by den m1 m2.  Y is
    returned undivided, for a caller that needs y to divide.
    """
    y, m1 = _column_potentials(psi.xi)
    corrected = Mat3Field.from_entries(
        lambda j, l: psi.sigma.entry(j, l) * m1
        + sum((y.comp(m) * eps(j, l, m) for m in AXES), Poly3()))
    x, m2 = _column_potentials(corrected)
    return x.scaled(Fraction(1, den * m1 * m2)), y, den * m1


def saint_venant_reconstruct(sigma: SymField) -> VecField:
    """Displacement field whose symmetrized gradient is the given strain.

    Requires the compatibility condition curl_curl(sigma) = 0; on failure a
    CompatibilityError carrying that exact residual is raised.  The work runs
    on the integer numerators S = L sigma, L the lcm of sigma's coefficient
    denominators: S is paired with the derived rotation-gradient matrix to
    form a one-form whose connection curl is taken once: its first slot must
    vanish and its second must equal the (zero) residual, which proves the
    one-form closed.  Integrating it still curls each of the 6 columns it
    integrates (see `calculus._potential_numerator`), and each output
    coefficient is divided once.  The result vanishes at the origin and has symmetric
    Jacobian there.
    """
    numerators, den = sigma.numerators()
    residual = curl_curl(numerators)
    if not residual.is_zero():
        raise CompatibilityError("strain violates the compatibility equations",
                                 residual=residual.scaled(Fraction(1, den)))
    strain = numerators.as_matrix()
    # xi_{jl} = eps_l^{im} d_i Sigma_{mj}, the transposed row-curl.
    psi = WOneForm(strain, curl_row(strain).transpose())
    check = w_curl(psi)
    if not check.sigma.is_zero():
        raise AssertionError("first curl slot must vanish for symmetric input")
    if not (check.xi - residual.as_matrix()).is_zero():
        raise AssertionError("second curl slot must equal the compatibility residual")
    return _integrate_closed(psi, den)[0]


def normalize_rigid(x: VecField) -> VecField:
    """Remove the rigid-motion part: zero value and skew Jacobian at origin.

    Two fields with the same symmetrized gradient differ by a rigid motion,
    so this fixes a canonical representative without changing sym_grad.
    The gauge is read from coefficients: X_j(0) is the constant coefficient
    of X_j and d_i X_j(0) its x_i coefficient, so nothing is differentiated
    or evaluated.
    """
    def d(i: int, j: int) -> Fraction:
        return x.comp(j).coefficient(_UNIT[i - 1])

    # Axial vector of the skew Jacobian: b1 = (d_2 X_3 - d_3 X_2)/2 etc.
    b = [(d(j, k) - d(k, j)) / 2 for j, k in ((2, 3), (3, 1), (1, 2))]
    return x - rigid_motion([p.coefficient((0, 0, 0)) for p in x.components], b)


def random_w_field(degree: int, seed: int) -> WField:
    """Deterministic random section, built from two seeded vector fields."""
    return WField(random_field("vec", degree, seed * 2 + 1),
                  random_field("vec", degree, seed * 2 + 2))


def random_w_one_form(degree: int, seed: int) -> WOneForm:
    """Deterministic random one-form, built from two seeded matrix fields."""
    return WOneForm(random_field("mat", degree, seed * 2 + 1),
                    random_field("mat", degree, seed * 2 + 2))
