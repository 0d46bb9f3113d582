"""Named identity-check suites with exact residual reporting.

Every check computes an exact residual: the string "0" means the identity
held on every trial, anything else is an exact description of the first
failure.  No tolerances anywhere.  Check names are stable identifiers used
by the command-line runner and by reports.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import cache

from . import exactlin, fieldio
from .calculus import (curl, curl_curl, curl_curl_direct, div, div_sym, grad,
                       homotopy_antiderivative, sym_grad)
from .complexes import (MIN_COMPLEX_DEGREE, ComplexReport, DerivationResult,
                        GradedSpace, Slot, SkewMat4, build_grad_curl_div_complex,
                        derive_elasticity, lambda2_split, matrix_of,
                        random_skew4, random_vec4, verify_complex,
                        wedge_with_vector, interior_product)
from .connection import (WField, WOneForm, flat_sections_basis,
                         normalize_rigid, random_w_field, random_w_one_form,
                         rigid_motion, saint_venant_reconstruct, w_curl,
                         w_div, w_grad, w_poincare)
from .errors import CompatibilityError
from .fields import (AXES, Mat3Field, SymField, VecField, _Value, delta, eps,
                     random_field, random_point)
from .poly import Poly3
from .riemannian import (MetricJet, PolyMetric, bianchi_check, jet_inverse,
                         linearized_einstein, pointwise_curvature, ricci_jet)
from .stencils import OPERATORS

SUITE_NAMES = ("calculus", "connection", "riemannian", "complex")
# Smallest accepted field degree and trial count of a run; checks on
# complexes raise the degree to MIN_COMPLEX_DEGREE.
MIN_DEGREE = 1
MIN_TRIALS = 1


class SuiteConfig(_Value):
    """Parameters of one verification run."""

    __slots__ = ("suite", "degree", "trials", "seed", "corrupt")

    def __init__(self, suite: str = "all", degree: int = 3, trials: int = 2,
                 seed: int = 0, corrupt: str | None = None) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "corrupt", corrupt)


class CheckRecord(_Value):
    __slots__ = ("name", "status", "residual", "elapsed")

    def __init__(self, name: str, status: str, residual: str, elapsed: float) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "elapsed", elapsed)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "residual": self.residual, "elapsed": self.elapsed}


class VerificationReport(_Value):
    """Outcome of a suite run; records are sorted by check name."""

    __slots__ = ("config", "records")
    # A mutable record: fields may be reassigned, so it has no hash.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, config: SuiteConfig, records: list[CheckRecord] | None = None) -> None:
        self.config = config
        self.records = [] if records is None else records

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_dict(self) -> dict:
        return {
            "suite": self.config.suite,
            "degree": self.config.degree,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _trial_seed(cfg: SuiteConfig, salt: int, trial: int) -> int:
    return cfg.seed * 1009 + salt * 101 + trial


def residual_text(value) -> str:
    """Exact, human-readable residual text for any field-like value."""
    if isinstance(value, Poly3):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, VecField):
        return "(" + "; ".join(str(c) for c in value.components) + ")"
    if isinstance(value, (SymField, Mat3Field)):
        parts = [f"[{key}] {p}" for key, p in zip(value.KEYS, value.parts)
                 if not p.is_zero()]
        return "; ".join(parts) if parts else "0"
    if isinstance(value, WField):
        return f"X: {residual_text(value.x)}; Y: {residual_text(value.y)}"
    if isinstance(value, WOneForm):
        return f"sigma: {residual_text(value.sigma)}; xi: {residual_text(value.xi)}"
    if isinstance(value, SkewMat4):
        parts = [f"[{i}{j}] {value.entry(i, j)}" for i in range(1, 5)
                 for j in range(i + 1, 5) if value.entry(i, j) != 0]
        return "; ".join(parts) if parts else "0"
    return str(value)


_ORIGIN = (Fraction(0), Fraction(0), Fraction(0))
_SAMPLERS = {"w": random_w_field, "wform": random_w_one_form,
             "point": lambda degree, seed: random_point(seed)}


def _random(kind: str, degree: int, seed: int):
    """Seeded random field of any kind, the coupled kinds included; kind
    "point" draws a rational point and ignores the degree."""
    sampler = _SAMPLERS.get(kind)
    return sampler(degree, seed) if sampler else random_field(kind, degree, seed)


def _is_zero(value) -> bool:
    return value == 0 if isinstance(value, Fraction) else value.is_zero()


def _trials(draws, residuals):
    """Check that every residual vanishes on seeded random draws per trial.

    Each trial draws one value per (kind, degree_shift, salt) of draws, in
    order, at degree d + degree_shift; residuals(*values) yields Poly3,
    field or Fraction values.  The check reports the exact text of the first
    nonzero one.
    """
    def check(cfg: SuiteConfig) -> str:
        for t in range(cfg.trials):
            values = [_random(kind, cfg.degree + shift, _trial_seed(cfg, salt, t))
                      for kind, shift, salt in draws]
            for r in residuals(*values):
                if not _is_zero(r):
                    return residual_text(r)
        return "0"
    return check


def _identity(kind: str, degree_shift: int, salt: int, residual_fn):
    """Check that residual_fn vanishes on one seeded random field per trial."""
    return _trials(((kind, degree_shift, salt),), lambda f: (residual_fn(f),))


def _rejects(kind: str, least_degree: int, salt: int, obstruction, integrate,
             mismatch_text: str, missing_text: str):
    """Check that integrate refuses fields whose obstruction is nonzero.

    Each trial draws a field of the kind at degree max(d, least_degree),
    redrawing with the seed advanced by 17 until obstruction(field) is
    nonzero.  integrate must raise a CompatibilityError whose residual, if
    it carries one, is that obstruction; otherwise the check reports
    missing_text, or mismatch_text formatted with the reported residual.
    """
    def check(cfg: SuiteConfig) -> str:
        degree = max(cfg.degree, least_degree)
        for t in range(cfg.trials):
            seed = _trial_seed(cfg, salt, t)
            x = _random(kind, degree, seed)
            while (residual := obstruction(x)).is_zero():
                seed += 17
                x = _random(kind, degree, seed)
            try:
                integrate(x)
            except CompatibilityError as exc:
                if exc.residual is None or (exc.residual - residual).is_zero():
                    continue
                return mismatch_text.format(residual_text(exc.residual))
            return missing_text
        return "0"
    return check


# -- calculus suite ----------------------------------------------------------

def _epsilon_delta_residuals(xi: Mat3Field):
    """eps_ijk eps_jlm xi_km - (xi_li - delta_il tr xi) for every (i, l)."""
    tr = xi.trace()
    for i in AXES:
        for l in AXES:
            lhs = sum((eps(i, j, k) * eps(j, l, m) * xi.entry(k, m)
                       for j in AXES for k in AXES for m in AXES), Poly3())
            yield lhs - (xi.entry(l, i) - delta(i, l) * tr)


def _evaluation_residuals(f: Poly3, g: Poly3, p):
    yield (f * g).evaluate(p) - f.evaluate(p) * g.evaluate(p)
    yield (f + g).evaluate(p) - f.evaluate(p) - g.evaluate(p)


def _check_random_field_deterministic(cfg: SuiteConfig) -> str:
    for kind in ("scalar", "vec", "sym", "mat"):
        a = random_field(kind, cfg.degree, cfg.seed)
        b = random_field(kind, cfg.degree, cfg.seed)
        if not (a - b).is_zero():
            return f"kind {kind!r} not reproducible at seed {cfg.seed}"
    return "0"


def _check_serialization_round_trip(cfg: SuiteConfig) -> str:
    for kind in ("scalar", "vec", "sym", "mat"):
        f = random_field(kind, cfg.degree, _trial_seed(cfg, 15, 0))
        text = fieldio.dumps(f)
        back = fieldio.loads(text, expect_kind=kind)
        if back != f:
            return f"kind {kind!r} did not round-trip"
        if fieldio.dumps(back) != text:
            return f"kind {kind!r} serialization not canonical"
    w = random_w_field(cfg.degree, _trial_seed(cfg, 15, 1))
    if fieldio.loads(fieldio.dumps(w), expect_kind="w") != w:
        return "kind 'w' did not round-trip"
    psi = random_w_one_form(cfg.degree, _trial_seed(cfg, 15, 2))
    if fieldio.loads(fieldio.dumps(psi), expect_kind="wform") != psi:
        return "kind 'wform' did not round-trip"
    return "0"


# -- connection suite --------------------------------------------------------

def _saint_venant_round_trip(u: VecField) -> SymField:
    strain = sym_grad(u)
    return sym_grad(saint_venant_reconstruct(strain)) - strain


def _check_flat_sections_in_kernel(cfg: SuiteConfig) -> str:
    for k, section in enumerate(flat_sections_basis()):
        r = w_grad(section)
        if not r.is_zero():
            return f"section {k}: " + residual_text(r)
    return "0"


def _check_flat_sections_independent(cfg: SuiteConfig) -> str:
    space = GradedSpace([Slot("x", "vec", 1), Slot("y", "vec", 0)])
    cols = [space.to_coords((s.x, s.y)) for s in flat_sections_basis()]
    rank = exactlin.sparse_rank(cols, space.dim)
    if rank != 6:
        return f"rank {rank} of 6"
    return "0"


def _check_poincare_inverts(cfg: SuiteConfig) -> str:
    for t in range(cfg.trials):
        f = random_w_field(cfg.degree, _trial_seed(cfg, 23, t))
        form = w_grad(f)
        g = w_poincare(form)
        back = w_grad(g)
        r_sigma = back.sigma - form.sigma
        r_xi = back.xi - form.xi
        if not (r_sigma.is_zero() and r_xi.is_zero()):
            return residual_text(WOneForm(r_sigma, r_xi))
        residual = f - g
        if residual.y.degree > 0 or not sym_grad(residual.x).is_zero():
            return "potential differs by a non-flat section: " + residual_text(residual)
    return "0"


def _check_normalize_rigid_gauge(cfg: SuiteConfig) -> str:
    for t in range(cfg.trials):
        u = random_field("vec", cfg.degree + 1, _trial_seed(cfg, 27, t))
        shift = rigid_motion((Fraction(1, 2), Fraction(-3), Fraction(t + 1)),
                             (Fraction(2), Fraction(1, 3), Fraction(-t - 1)))
        v = normalize_rigid(u + shift)
        if any(c != 0 for c in v.evaluate(_ORIGIN)):
            return "value at the origin: " + str(v.evaluate(_ORIGIN))
        jac = Mat3Field.from_entries(lambda i, j: v.comp(j).partial(i))
        skew0 = jac.skew_part()
        vals = [skew0.entry(i, j).evaluate(_ORIGIN) for i in AXES for j in AXES]
        if any(vals):
            return "skew Jacobian at the origin: " + str(vals)
        r = sym_grad(v) - sym_grad(u)
        if not r.is_zero():
            return residual_text(r)
    return "0"


# -- riemannian suite --------------------------------------------------------

def _einstein_trace_residual(sigma: SymField):
    curvature = ricci_jet(MetricJet.from_strain(sigma))
    trace = sum((curvature.einstein[k][k] for k in range(3)),
                curvature.scalar - curvature.scalar)
    # on a three-dimensional background, tr(R g - 2 Ric) = 3R - 2R = R
    return trace - curvature.scalar


def _check_metric_jet_inverse(cfg: SuiteConfig) -> str:
    for t in range(cfg.trials):
        sigma = random_field("sym", cfg.degree, _trial_seed(cfg, 31, t))
        g = MetricJet.from_strain(sigma)
        ginv = jet_inverse(g)
        for i in AXES:
            for j in AXES:
                prod = sum((g.entry(i, k) * ginv.entry(k, j) for k in AXES),
                           g.entry(1, 1) - g.entry(1, 1))
                want_p0 = Poly3.constant(1) if i == j else Poly3()
                if prod.p0 != want_p0 or not prod.p1.is_zero():
                    return f"entry ({i},{j}): {prod}"
    return "0"


@cache
def _flat_test_maps() -> tuple[list[Poly3], ...]:
    x1, x2, x3 = Poly3.variable(1), Poly3.variable(2), Poly3.variable(3)
    return (
        [x1 + x2 * x2, x2, x3],
        [x1, x2 + x1 * x3, x3],
        [x1 + x2 * x3, x2 + x3 * x3 * x3, x3],
        [x1, x2, x3 + x1 * x1 * x2],
        [x1 + Fraction(1, 2) * x2 * x2 + x3, x2 - 2 * x3 * x3, x3],
    )


def _check_flat_pullback_pointwise(cfg: SuiteConfig) -> str:
    for k, phi in enumerate(_flat_test_maps()):
        metric = PolyMetric.from_map_jacobian(phi)
        for t in range(max(cfg.trials, 2)):
            point = random_point(_trial_seed(cfg, 36 + k, t))
            values = pointwise_curvature(metric, point)
            if not values.ricci_is_zero():
                return (f"map {k} at {tuple(str(c) for c in point)}: ricci "
                        + str([[str(v) for v in row] for row in values.ricci]))
    return "0"


def _check_curvature_example(cfg: SuiteConfig) -> str:
    one = Poly3.constant(1)
    x1 = Poly3.variable(1)
    metric = PolyMetric.from_matrix(Mat3Field.from_entries(
        lambda i, j: one + x1 * x1 if i == j == 3 else (one if i == j else Poly3())))
    values = pointwise_curvature(
        metric, (Fraction(0), Fraction(0), Fraction(0)))
    want_ricci = ((Fraction(1), Fraction(0), Fraction(0)),
                  (Fraction(0), Fraction(0), Fraction(0)),
                  (Fraction(0), Fraction(0), Fraction(1)))
    want_einstein = ((Fraction(0), Fraction(0), Fraction(0)),
                     (Fraction(0), Fraction(2), Fraction(0)),
                     (Fraction(0), Fraction(0), Fraction(0)))
    if values.ricci != want_ricci:
        return "ricci " + str([[str(v) for v in row] for row in values.ricci])
    if values.scalar != 2:
        return "scalar " + str(values.scalar)
    if values.einstein != want_einstein:
        return "einstein " + str([[str(v) for v in row] for row in values.einstein])
    return "0"


# -- complex suite -----------------------------------------------------------

def _complex_degree(cfg: SuiteConfig) -> int:
    return max(cfg.degree, MIN_COMPLEX_DEGREE)


def _report_residual(report) -> str:
    bad = [r for r in report.composition_residuals if r != "0"]
    if bad:
        return bad[0]
    if not report.is_exact_interior:
        return f"exactness defects {report.defects}"
    return "0"


# The derivation and the elasticity report of a degree are shared by the
# rows of one run_suite call, which clears both caches when it ends: they
# hold mutable complexes, so no later call may see them.
@cache
def _derivation(degree: int) -> DerivationResult:
    return derive_elasticity(degree)


@cache
def _elasticity_report(degree: int) -> ComplexReport:
    return verify_complex(_derivation(degree).hand_coded)


def _check_derivation(cfg: SuiteConfig) -> str:
    result = _derivation(_complex_degree(cfg))
    if not result.factors_ok:
        return f"stage factors {result.stage_factors}"
    if not result.reduced_report.compositions_zero:
        return _report_residual(result.reduced_report)
    if not result.defects_preserved:
        return (f"defects changed: {result.full_report.defects} -> "
                f"{result.reduced_report.defects}")
    return "0"


def _exact(report):
    """Check that the complex of report(d) composes to zero and is exact."""
    return lambda cfg: _report_residual(report(_complex_degree(cfg)))


def _rigid_kernel(report):
    """Check that the first map of the complex of report(d) has the
    six-dimensional kernel."""
    def check(cfg: SuiteConfig) -> str:
        k = report(_complex_degree(cfg)).kernel_dims[0]
        return "0" if k == 6 else f"kernel dimension {k} of 6"
    return check


def _coords(space: GradedSpace, value) -> exactlin.Column:
    """Coordinates of a field; a coupled field fills the slots named after its summands."""
    if len(space.slots) == 1:
        return space.to_coords((value,))
    return space.to_coords([getattr(value, slot.label) for slot in space.slots])


def _check_matrix_operator_agreement(cfg: SuiteConfig) -> str:
    d = _complex_degree(cfg)
    matrices = {op_id: matrix_of(op_id, d) for op_id in OPERATORS}
    for t in range(cfg.trials):
        seed = _trial_seed(cfg, 41, t)
        for op_id, m in matrices.items():
            op = OPERATORS[op_id]
            f = _random(op.acts_on, d, seed)
            if m.apply_coords(_coords(m.domain, f)) != _coords(m.codomain, op.reference(f)):
                return f"operator {op_id!r} disagrees with its matrix"
    return "0"


def _check_lambda2_split(cfg: SuiteConfig) -> str:
    for t in range(max(cfg.trials, 3)):
        v = random_vec4(_trial_seed(cfg, 42, t))
        omega = random_skew4(_trial_seed(cfg, 43, t))
        alpha, beta = lambda2_split(v, omega)
        r = alpha + beta - omega
        if not r.is_zero():
            return residual_text(r)
        if any(c != 0 for c in interior_product(v, beta)):
            return "contraction of beta: " + str(interior_product(v, beta))
        if any(c != 0 for c in wedge_with_vector(v, alpha).values()):
            return "wedge of alpha nonzero"
        neg = tuple(-c for c in v)
        alpha2, beta2 = lambda2_split(neg, omega)
        if not ((alpha - alpha2).is_zero() and (beta - beta2).is_zero()):
            return "split depends on the sign of the direction"
        u = random_vec4(_trial_seed(cfg, 44, t))
        wedge = SkewMat4.from_wedge(v, u)
        _, beta3 = lambda2_split(v, wedge)
        if not beta3.is_zero():
            return "decomposable form has a nonzero residual part: " + residual_text(beta3)
    return "0"


# Rows look their callees up when they run, inside a lambda or a function of
# this module, so a callee rebound here (as perfbench/spans.py does to trace
# it) is the one a check calls.
_CHECKS: dict[str, list[tuple[str, callable]]] = {
    "calculus": [
        ("calculus.mixed_partials",
         _trials((("scalar", 0, 1),),
                 lambda f: (f.partial(i).partial(j) - f.partial(j).partial(i)
                            for i in AXES for j in AXES))),
        ("calculus.product_rule",
         _trials((("scalar", 0, 2), ("scalar", 0, 3)),
                 lambda f, g: ((f * g).partial(i) - f * g.partial(i) - g * f.partial(i)
                               for i in AXES))),
        ("calculus.evaluation_homomorphism",
         _trials((("scalar", 0, 4), ("scalar", 0, 5), ("point", 0, 6)),
                 _evaluation_residuals)),
        ("calculus.epsilon_delta_contraction",
         _trials((("mat", 0, 7),), _epsilon_delta_residuals)),
        ("calculus.curl_of_grad", _identity("scalar", 1, 8, lambda f: curl(grad(f)))),
        ("calculus.div_of_curl", _identity("vec", 1, 9, lambda x: div(curl(x)))),
        ("calculus.compat_kills_strains",
         _identity("vec", 1, 10, lambda x: curl_curl(sym_grad(x)))),
        ("calculus.div_after_compat",
         _identity("sym", 1, 11, lambda s: div_sym(curl_curl(s)))),
        ("calculus.compat_two_routes",
         _identity("sym", 0, 12, lambda s: curl_curl(s) - curl_curl_direct(s))),
        ("calculus.homotopy_inverts_grad",
         _identity("scalar", 0, 13, lambda f: homotopy_antiderivative(grad(f))
                   - (f - f.evaluate(_ORIGIN)))),
        ("calculus.homotopy_rejects_incompatible",
         _rejects("vec", 1, 14, lambda x: curl(x), lambda x: homotopy_antiderivative(x),
                  "reported residual differs from curl: {}",
                  "no compatibility error for a field with nonzero curl")),
        ("calculus.random_field_deterministic", _check_random_field_deterministic),
        ("calculus.serialization_round_trip", _check_serialization_round_trip),
    ],
    "connection": [
        ("connection.curl_after_grad", _identity("w", 0, 21, lambda f: w_curl(w_grad(f)))),
        ("connection.div_after_curl",
         _identity("wform", 0, 22, lambda psi: w_div(w_curl(psi)))),
        ("connection.flat_sections_in_kernel", _check_flat_sections_in_kernel),
        ("connection.flat_sections_independent", _check_flat_sections_independent),
        ("connection.poincare_inverts_grad", _check_poincare_inverts),
        ("connection.poincare_rejects_incompatible",
         _rejects("wform", 1, 24, lambda psi: w_curl(psi), lambda psi: w_poincare(psi),
                  "reported residual differs from w_curl: {}",
                  "no compatibility error for a non-closed form")),
        ("connection.saint_venant_round_trip",
         _identity("vec", 1, 25, _saint_venant_round_trip)),
        ("connection.saint_venant_rejects_incompatible",
         _rejects("sym", 2, 26, lambda s: curl_curl(s), lambda s: saint_venant_reconstruct(s),
                  "reported residual differs from the compatibility tensor",
                  "no compatibility error for an incompatible strain")),
        ("connection.normalize_rigid_gauge", _check_normalize_rigid_gauge),
        ("connection.rigid_motions_are_flat",
         _trials((("point", 0, 28), ("point", 0, 29)),
                 lambda a, b: (sym_grad(rigid_motion(a, b)),))),
    ],
    "riemannian": [
        ("riemannian.metric_jet_inverse", _check_metric_jet_inverse),
        ("riemannian.einstein_matches_compat",
         _identity("sym", 0, 32, lambda s: linearized_einstein(s) - curl_curl(s))),
        ("riemannian.einstein_kills_strains",
         _identity("vec", 1, 33, lambda u: linearized_einstein(sym_grad(u)))),
        ("riemannian.bianchi_linearized",
         _identity("sym", 1, 34, lambda s: bianchi_check(s))),
        ("riemannian.einstein_trace_identity",
         _identity("sym", 0, 35, _einstein_trace_residual)),
        ("riemannian.flat_pullback_pointwise", _check_flat_pullback_pointwise),
        ("riemannian.curvature_example", _check_curvature_example),
    ],
    "complex": [
        ("complex.grad_curl_div_exact",
         _exact(lambda d: verify_complex(build_grad_curl_div_complex(d)))),
        ("complex.elasticity_exact", _exact(lambda d: _elasticity_report(d))),
        ("complex.elasticity_kernel_rigid",
         _rigid_kernel(lambda d: _elasticity_report(d))),
        # The derivation's full complex is build_w_complex(d).
        ("complex.coupled_exact", _exact(lambda d: _derivation(d).full_report)),
        ("complex.coupled_kernel_flat",
         _rigid_kernel(lambda d: _derivation(d).full_report)),
        ("complex.derivation_matches_hand_coded", _check_derivation),
        ("complex.matrix_operator_agreement", _check_matrix_operator_agreement),
        ("complex.lambda2_split", _check_lambda2_split),
    ],
}


def check_names(suite: str = "all") -> list[str]:
    suites = SUITE_NAMES if suite == "all" else (suite,)
    names = []
    for s in suites:
        names.extend(name for name, _ in _CHECKS[s])
    return sorted(names)


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run every check of the configured suite and collect exact residuals."""
    if config.suite != "all" and config.suite not in _CHECKS:
        raise ValueError(f"unknown suite {config.suite!r}; expected one of "
                         f"{SUITE_NAMES + ('all',)}")
    if config.degree < MIN_DEGREE:
        raise ValueError(f"degree must be >= {MIN_DEGREE}")
    if config.trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}")
    suites = SUITE_NAMES if config.suite == "all" else (config.suite,)
    pairs = []
    for s in suites:
        pairs.extend(_CHECKS[s])
    pairs.sort(key=lambda item: item[0])
    if config.corrupt is not None and config.corrupt not in check_names(config.suite):
        raise ValueError(f"{config.corrupt!r} is not a check of suite {config.suite!r}")

    # A record's elapsed time includes building any shared complex that its
    # check is the first to need.
    records = []
    try:
        for name, fn in pairs:
            start = time.perf_counter()
            residual = fn(config)
            if config.corrupt == name and residual == "0":
                residual = "1 (forced by the corruption hook)"
            elapsed = time.perf_counter() - start
            status = "pass" if residual == "0" else "fail"
            records.append(CheckRecord(name=name, status=status,
                                       residual=residual, elapsed=elapsed))
    finally:
        _derivation.cache_clear()
        _elasticity_report.cache_clear()
    return VerificationReport(config=config, records=records)
