"""First- and second-order differential operators on polynomial fields.

All operators are exact: coefficients stay rational and no truncation ever
occurs.  The second-order compatibility operator on symmetric fields is
computed by two distinct routes (an iterated first-order recipe and a direct
double-contraction formula); their agreement is a test target, so the two
implementations are deliberately kept independent.
"""

from __future__ import annotations

from math import lcm

from .errors import CompatibilityError
from .fields import AXES, Mat3Field, SymField, VecField, eps
from .poly import Exponent, Poly3, Scalar, _canonical


def grad(f: Poly3) -> VecField:
    """Gradient of a scalar field."""
    return VecField(tuple(f.partial(i) for i in AXES))


# The six nonzero terms eps_i^{jk} d_j X_k of curl X, as (k, j, i, eps_i^{jk})
# with 0-based indices: component X_k, its axis of differentiation j, the
# target component i and the sign.
_CURL_TERMS = ((2, 1, 0, 1), (1, 2, 0, -1), (0, 2, 1, 1), (2, 0, 1, -1),
               (1, 0, 2, 1), (0, 1, 2, -1))


def curl(x: VecField) -> VecField:
    """(curl X)_i = eps_i^{jk} d_j X_k.

    One pass over the terms of the three components: each term c x^e of X_k
    adds eps_i^{jk} e_j c x^(e - 1_j) to component i for the two (j, i) of
    `_CURL_TERMS`, so no partial or difference polynomial is formed.  The
    result is canonical as `Poly3` arithmetic leaves it: int coefficients
    stay ints and a term that cancels is removed.  The loop body is spelled
    once per axis, so the lowered exponent is built from unpacked entries.
    """
    comps = [p.terms for p in x.components]
    outs: tuple[dict[Exponent, Scalar], ...] = ({}, {}, {})
    for k, j, i, sign in _CURL_TERMS:
        out = outs[i]
        get = out.get
        if j == 0:
            for (a, b, c), coef in comps[k].items():
                if a:
                    exp = (a - 1, b, c)
                    s = get(exp, 0) + coef * (sign * a)
                    if s:
                        out[exp] = s if type(s) is int else _canonical(s)
                    else:
                        del out[exp]
        elif j == 1:
            for (a, b, c), coef in comps[k].items():
                if b:
                    exp = (a, b - 1, c)
                    s = get(exp, 0) + coef * (sign * b)
                    if s:
                        out[exp] = s if type(s) is int else _canonical(s)
                    else:
                        del out[exp]
        else:
            for (a, b, c), coef in comps[k].items():
                if c:
                    exp = (a, b, c - 1)
                    s = get(exp, 0) + coef * (sign * c)
                    if s:
                        out[exp] = s if type(s) is int else _canonical(s)
                    else:
                        del out[exp]
    return VecField([Poly3._of(out) for out in outs])


def div(x: VecField) -> Poly3:
    return x.comp(1).partial(1) + x.comp(2).partial(2) + x.comp(3).partial(3)


def sym_grad(x: VecField) -> SymField:
    """Symmetrized gradient: Sigma_ij = (d_i X_j + d_j X_i) / 2."""
    return SymField.from_entries(
        lambda i, j: (x.comp(j).partial(i) + x.comp(i).partial(j)) / 2)


def curl_row(m: Mat3Field) -> Mat3Field:
    """Curl applied along rows: treat each column as a vector field.

    (curl_row M)_{il} = eps_i^{jk} d_j M_{kl}.
    """
    cols = [curl(m.column(l)) for l in AXES]
    return Mat3Field.from_entries(lambda i, l: cols[l - 1].comp(i))


def curl_col(m: Mat3Field) -> Mat3Field:
    """Curl applied along columns: treat each row as a vector field.

    (curl_col M)_{il} = eps_l^{jk} d_j M_{ik}.
    """
    rows = [curl(m.row(i)) for i in AXES]
    return Mat3Field.from_entries(lambda i, l: rows[i - 1].comp(l))


def curl_curl(sigma: SymField) -> SymField:
    """Row-curl followed by column-curl of a symmetric field.

    The intermediate matrix is generally not symmetric, but the final result
    must be; that is asserted rather than assumed.
    """
    return curl_curl_with_row(sigma)[0]


def curl_curl_with_row(sigma: SymField) -> tuple[SymField, Mat3Field]:
    """(curl_curl(sigma), curl_row(sigma)): the compatibility tensor and the
    row curl it is taken through, for a caller that needs both.  The
    symmetry of the result is asserted as in `curl_curl`."""
    row = curl_row(sigma.as_matrix())
    out = curl_col(row)
    if not out.is_symmetric():
        raise AssertionError("curl_col(curl_row(.)) of a symmetric field must be symmetric")
    return SymField.from_entries(out.entry), row


def curl_curl_direct(sigma: SymField) -> SymField:
    """Direct double contraction: eps_i^{km} eps_j^{ln} d_k d_l Sigma_{mn}.

    Kept separate from curl_curl on purpose; exact agreement of the two
    routes is a verification target, not an implementation shortcut.
    """
    def entry(i: int, j: int) -> Poly3:
        total = Poly3()
        for k in AXES:
            for m in AXES:
                e1 = eps(i, k, m)
                if not e1:
                    continue
                for l in AXES:
                    for n in AXES:
                        e2 = eps(j, l, n)
                        if not e2:
                            continue
                        total = total + sigma.entry(m, n).partial(k).partial(l) * (e1 * e2)
        return total

    return SymField.from_entries(entry)


def div_sym(s: SymField) -> VecField:
    """Row divergence of a symmetric field: component j is d^i S_{ij}."""
    return VecField(tuple(
        sum((s.entry(i, j).partial(i) for i in AXES), Poly3()) for j in AXES))


def homotopy_antiderivative(x: VecField) -> Poly3:
    """Scalar potential of a curl-free field, vanishing at the origin.

    Implements the radial homotopy f(x) = Int_0^1 sum_i x_i X_i(t x) dt in
    numerator/denominator form: `_potential_numerator` returns m f and m,
    and each coefficient is divided by m once.  Requires curl X = 0 exactly,
    checked on X as given; otherwise a CompatibilityError carrying the curl
    residual is raised.  The connection's integrations call the helper on
    integer numerators, so there the column curl checks run on numerators.
    """
    f, m = _potential_numerator(x)
    return f / m


def _potential_numerator(x: VecField) -> tuple[Poly3, int]:
    """(m f, m) for the potential f of a curl-free field (see
    `homotopy_antiderivative`).

    A term c x^e of X_i contributes (c / d) x^e x_i to f, with d = |e| + 1.
    m is the lcm of the values d that occur in the field, not of 1..degree+1,
    so m f has the coefficients c (m / d), integers when the c are, and a
    sparse field with a few huge exponents does not grow m by its degree.
    The curl is checked on x as given: callers that pass integer numerators
    check the scaled field, which is curl-free exactly when the field is.
    """
    residual = curl(x)
    if not residual.is_zero():
        raise CompatibilityError("field is not curl-free", residual=residual)
    comps = [p.terms for p in x.components]
    m = lcm(*{a + b + c + 1 for terms in comps for a, b, c in terms})
    out: dict[Exponent, Scalar] = {}
    for axis, terms in enumerate(comps):
        for exp, coef in terms.items():
            lifted = exp[:axis] + (exp[axis] + 1,) + exp[axis + 1:]
            s = out.get(lifted, 0) + coef * (m // (exp[0] + exp[1] + exp[2] + 1))
            if s:
                out[lifted] = s if type(s) is int else _canonical(s)
            else:
                del out[lifted]
    return Poly3._of(out), m
