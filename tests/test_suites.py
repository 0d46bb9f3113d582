"""Frozen draws, report bodies and residual texts of the check suites."""

import hashlib
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from strainkit import complexes, exactlin, fieldio, fields, stencils, suites
from strainkit.calculus import curl
from strainkit.complexes import ChainComplex, LinOpMatrix, SkewMat4
from strainkit.connection import WField, WOneForm, w_curl
from strainkit.errors import CompatibilityError
from strainkit.fields import Mat3Field, SymField, VecField
from strainkit.poly import Poly3
from strainkit.riemannian import CurvatureValues
from strainkit.suites import SuiteConfig, residual_text, run_suite

# sha256 of the (kind, degree, seed) triples every suite passes to the
# seeded generators, and of its report body with `elapsed` removed.  Any
# change to a check's salt, degree shift, trial loop or name moves them.
_FROZEN = {
    ("calculus", 3, 2, 5): (
        "33f80839843a66e9ae7e246ba780f3385a66621787ad1eb998c78ed566bdd6bb",
        "3f0658f18615090eedb0888c9dbb53729746c1f6cb65338a778997c76d46e845"),
    ("calculus", 4, 1, 0): (
        "d222f803a6607efb54cc0c4d93ab92a1ae1b1b4ba99efd843e1a8bca11c45a6b",
        "812a7c0c1fb637e564ff6e4afe131ac402690b967c31ac0c852c7194c635b146"),
    ("connection", 3, 2, 5): (
        "4792ebdae8b8b79bfef02d740efb7bff7abf1c0fe857955082dc05037754dc03",
        "b984586a25c13baa008239ea87587e99b3058044800292d162325d0f5449fad2"),
    ("connection", 4, 1, 0): (
        "682b2f875a024a2a00705bc0cbb5c42b4e92d13df0b81bc49793b19d2202230c",
        "8cdd67b95557b645ac4defb831e6b6a1a33b1bedda2419bed225a25f6fa6e2ac"),
    ("riemannian", 3, 2, 5): (
        "add116948eb706fbd13254c6d699b063605917f8cc1538b93cc24c6b63da42b0",
        "ceb66e3f08acaec64dac3d9e2974ae17d573da626853f3377f9c26aaf99f7b1f"),
    ("riemannian", 4, 1, 0): (
        "164b52e8e3db886f8a7171f5b39551fffbff9615bbc0fd8d51118304451cbfca",
        "ed03bc2aed8e847efe0c1536238fe6a1bcc5a4eea584107aaa87f26c7820a371"),
    ("complex", 3, 2, 5): (
        "86fb3cba3f6268fa937325782d38143d7857956ec9a00121b78b0fd389883b26",
        "72ad583843d606ae304bfa5490b8490a7f1796f1a09ad2adb177627eaaa30f0f"),
    ("complex", 4, 1, 0): (
        "83c00b3facc822f2c8ae6a8244e87ccc40181c8d7acdce3369e3c8fa337a746f",
        "54f5d6f5edee64998fb94c44b8321b79ecbc72558410083fac9f3d091f1ad00e"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite,degree,trials,seed", sorted(_FROZEN))
def test_suite_draws_and_body_are_frozen(monkeypatch, suite, degree, trials, seed):
    seen = []
    real = fields._seeded_rng

    def recording(kind, d, s):
        seen.append((kind, d, s))
        return real(kind, d, s)

    monkeypatch.setattr(fields, "_seeded_rng", recording)
    monkeypatch.setattr(complexes, "_seeded_rng", recording)
    body = run_suite(SuiteConfig(suite=suite, degree=degree, trials=trials,
                                 seed=seed)).to_dict()
    for check in body["checks"]:
        check.pop("elapsed")
    assert body["passed"]
    assert (_sha(repr(seen)), _sha(json.dumps(body, sort_keys=True))) == \
        _FROZEN[(suite, degree, trials, seed)]


_x1, _x2, _x3 = (Poly3.variable(i) for i in (1, 2, 3))


@pytest.mark.parametrize("value,text", [
    (_x1 * _x2 - Fraction(3, 2) * _x3 * _x3 + 4, "x1*x2 - 3/2*x3^2 + 4"),
    (Poly3(), "0"),
    (Fraction(-7, 3), "-7/3"),
    (Fraction(0), "0"),
    (VecField.of(_x1, 0, Fraction(1, 2) * _x2 * _x3), "(x1; 0; 1/2*x2*x3)"),
    (SymField.unit(1, 2, _x3) + SymField.unit(3, 3, -2 * _x1), "[12] x3; [33] -2*x1"),
    (SymField.zero(), "0"),
    (Mat3Field.unit(2, 1, _x2 * _x2) + Mat3Field.unit(3, 3, Fraction(5, 4)),
     "[21] x2^2; [33] 5/4"),
    (Mat3Field.zero(), "0"),
    (WField(VecField.of(_x1, 0, 0), VecField.of(0, 0, _x3 - 1)),
     "X: (x1; 0; 0); Y: (0; 0; x3 - 1)"),
    (WField.zero(), "X: (0; 0; 0); Y: (0; 0; 0)"),
    (WOneForm(Mat3Field.unit(1, 3, _x2), SymField.unit(2, 3, 1).as_matrix()),
     "sigma: [13] x2; xi: [23] 1; [32] 1"),
    (WOneForm.zero(), "sigma: 0; xi: 0"),
    (SkewMat4.from_wedge((1, 0, 2, 0), (0, Fraction(1, 3), 0, -1)),
     "[12] 1/3; [14] -1; [23] -2/3; [34] -2"),
    (SkewMat4.zero(), "0"),
])
def test_residual_text_is_frozen(value, text):
    assert residual_text(value) == text


def test_first_failure_renders_the_first_nonzero_residual():
    zeros = [Poly3(), Fraction(0), SymField.zero(), WOneForm.zero(), SkewMat4.zero()]
    assert suites._first_failure(iter(zeros)) == "0"
    assert suites._first_failure(iter(zeros + [Fraction(-7, 3), "later"])) == "-7/3"
    assert suites._first_failure(iter(zeros + ["a failure text", _x1])) == "a failure text"
    assert suites._first_failure(iter([Poly3(), _x1 - 1, Fraction(1)])) == "x1 - 1"

    def residuals():
        yield SkewMat4.from_wedge((1, 0, 0, 0), (0, 1, 0, 0))
        raise AssertionError("resumed after the first failure")
    assert suites._first_failure(residuals()) == "[12] 1"


def _failures(config: SuiteConfig) -> dict[str, str]:
    return {r.name: r.residual for r in run_suite(config).failures}


def test_identity_row_reports_the_residual_of_its_callee(monkeypatch):
    extra = SymField.unit(1, 2, _x3)
    real = suites.linearized_einstein
    monkeypatch.setattr(suites, "linearized_einstein", lambda s: real(s) + extra)
    assert _failures(SuiteConfig(suite="riemannian", trials=1)) == {
        "riemannian.einstein_kills_strains": "[12] x3",
        "riemannian.einstein_matches_compat": "[12] x3",
    }


def test_agreement_check_reports_a_wrong_reference(monkeypatch):
    op = stencils.OPERATORS["w_curl"]
    monkeypatch.setitem(stencils.OPERATORS, "w_curl",
                        stencils.Operator(op.domain, op.codomain, op.acts_on,
                                          reference=lambda psi: -w_curl(psi)))
    assert _failures(SuiteConfig(suite="complex", trials=1)) == {
        "complex.matrix_operator_agreement": "operator 'w_curl' disagrees with its matrix",
    }


def test_poincare_rejects_check_compares_the_reported_residual(monkeypatch):
    real = suites.w_poincare

    def wrong_residual(psi):
        residual = w_curl(psi)
        if residual.is_zero():
            return real(psi)
        raise CompatibilityError("one-form is not connection-closed", residual=-residual)

    monkeypatch.setattr(suites, "w_poincare", wrong_residual)
    failures = _failures(SuiteConfig(suite="connection", trials=1))
    assert list(failures) == ["connection.poincare_rejects_incompatible"]
    assert failures["connection.poincare_rejects_incompatible"].startswith(
        "reported residual differs from w_curl: sigma: ")


def test_trial_row_reports_a_later_residual_of_its_generator(monkeypatch):
    # Only the (3, 3) residual of epsilon-delta sees the patched delta; it
    # comes last, after eight vanishing ones, on the first trial's draw.
    real = suites.delta
    monkeypatch.setattr(suites, "delta", lambda i, l: 0 if i == l == 3 else real(i, l))
    xi = fields.random_field("mat", 3, 7 * 101)
    assert _failures(SuiteConfig(suite="calculus", trials=1)) == {
        "calculus.epsilon_delta_contraction": residual_text(-xi.trace()),
    }


def test_rejects_row_redraws_a_field_with_zero_obstruction(monkeypatch):
    # At degree 1 and seed 124 the second draw of the homotopy rejects check
    # is curl-free, so the check draws again with the seed advanced by 17.
    first = suites._trial_seed(SuiteConfig(seed=124), 14, 1)
    assert curl(fields.random_field("vec", 1, first)).is_zero()
    seen = []
    real = fields._seeded_rng

    def recording(kind, d, s):
        seen.append((kind, d, s))
        return real(kind, d, s)

    monkeypatch.setattr(fields, "_seeded_rng", recording)
    assert run_suite(SuiteConfig(suite="calculus", degree=1, seed=124)).passed
    assert ("vec", 1, first + 17) in seen


def test_rejects_row_computes_the_obstruction_once_per_draw(monkeypatch):
    # Seed 124 at degree 1 redraws once (see above): three draws in two trials.
    draws, calls = [], []
    real = fields._seeded_rng

    def recording(kind, d, s):
        draws.append((kind, d, s))
        return real(kind, d, s)

    def obstruction(v):
        calls.append(v)
        return curl(v)

    def integrate(v):
        raise CompatibilityError("not curl-free", residual=curl(v))

    monkeypatch.setattr(fields, "_seeded_rng", recording)
    check = suites._rejects("vec", 1, 14, obstruction, integrate, "differs: {}", "accepted")
    assert suites._first_failure(check(SuiteConfig(degree=1, seed=124, trials=2))) == "0"
    assert len(draws) == len(calls) == 3


def test_run_suite_rejects_a_corrupt_name_outside_the_suite():
    with pytest.raises(ValueError, match="'complex.lambda2_split' is not a check "
                                         "of suite 'calculus'"):
        run_suite(SuiteConfig(suite="calculus", corrupt="complex.lambda2_split"))


@pytest.mark.parametrize("value", [True, 1.5], ids=["bool", "float"])
@pytest.mark.parametrize("field", ["degree", "trials", "seed"])
@pytest.mark.parametrize("suite", ["calculus", "complex"])
def test_run_suite_reads_its_counts_as_ints(suite, field, value):
    """True is not read as 1, nor 1.5 passed on to range()."""
    with pytest.raises(TypeError, match=f"{field} must be an int, got "
                                        f"{type(value).__name__}"):
        run_suite(SuiteConfig(suite=suite, **{field: value}))


@pytest.mark.parametrize("call", [suites.check_names,
                                  lambda name: run_suite(SuiteConfig(suite=name))],
                         ids=["check_names", "run_suite"])
def test_unknown_suite_name_raises_one_value_error(call):
    with pytest.raises(ValueError) as info:
        call("bogus")
    assert str(info.value) == ("unknown suite 'bogus'; expected one of "
                               "('calculus', 'connection', 'riemannian', 'complex', 'all')")


def test_complex_suite_builds_each_complex_once(monkeypatch):
    """Cost pin, not a correctness check: one run at degree 5 derives the
    coupled complex once and verifies the elasticity complex once, so it
    makes 12 ranks (17 when each row built its own), assembles 18 matrices
    (30) and builds the coupled complex once (3)."""
    counts = {"rank": 0, "assemble": 0, "w_builds": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    from_operator = complexes.LinOpMatrix.__dict__["from_operator"].__func__
    monkeypatch.setattr(exactlin, "sparse_rank", counting("rank", exactlin.sparse_rank))
    monkeypatch.setattr(complexes.LinOpMatrix, "from_operator",
                        classmethod(counting("assemble", from_operator)))
    monkeypatch.setattr(complexes, "build_w_complex",
                        counting("w_builds", complexes.build_w_complex))
    assert run_suite(SuiteConfig("complex", degree=5)).passed
    assert counts == {"rank": 12, "assemble": 18, "w_builds": 1}


_real_build_w_complex = complexes.build_w_complex


def _build_perturbed_w_complex(degree: int) -> ChainComplex:
    """The coupled complex with 1 added to one w_curl entry, in the
    sigma_sym -> theta2_sym block that survives the Schur reduction."""
    c = _real_build_w_complex(degree)
    m = c.maps[1]
    j = m.domain.slot_range("sigma_sym")[0]
    i = m.codomain.slot_range("theta2_sym")[0]
    cols = [dict(col) for col in m.cols]
    cols[j][i] = cols[j].get(i, 0) + m.den
    maps = [c.maps[0], LinOpMatrix(m.domain, m.codomain, cols, m.name, m.den), c.maps[2]]
    return ChainComplex(c.name, c.spaces, maps)


def _perturb(monkeypatch, target: str) -> None:
    if target == "build_w_complex":
        monkeypatch.setattr(complexes, "build_w_complex", _build_perturbed_w_complex)
        return
    real = suites.derive_elasticity

    def derive(degree):
        with monkeypatch.context() as m:
            m.setattr(complexes, "build_w_complex", _build_perturbed_w_complex)
            return real(degree)

    monkeypatch.setattr(suites, "derive_elasticity", derive)


@pytest.mark.parametrize("target", ["build_w_complex", "derive_elasticity"])
def test_perturbed_coupled_complex_fails_its_rows_in_one_run_only(monkeypatch, target):
    # The rows read one derivation per run, so either patch reaches the
    # coupled exactness row and the derivation row.  The kernel row reads
    # w_grad, which the patch leaves as it is.
    _perturb(monkeypatch, target)
    assert _failures(SuiteConfig(suite="complex", trials=1)) == {
        "complex.coupled_exact": "nonzero composition at stage 0 (max |entry| 1)",
        "complex.derivation_matches_hand_coded":
            "stage factors [Fraction(1, 1), None, Fraction(1, 1)]",
    }
    monkeypatch.undo()
    assert run_suite(SuiteConfig(suite="complex", trials=1)).passed


def test_no_derivation_outlives_a_run_that_raised(monkeypatch):
    # complex.coupled_exact derives first; the agreement row raises later.
    def broken(op_id, degree):
        raise RuntimeError("no matrix")

    _perturb(monkeypatch, "build_w_complex")
    monkeypatch.setattr(suites, "matrix_of", broken)
    with pytest.raises(RuntimeError, match="no matrix"):
        run_suite(SuiteConfig(suite="complex", trials=1))
    monkeypatch.undo()
    assert run_suite(SuiteConfig(suite="complex", trials=1)).passed


# -- failure texts -----------------------------------------------------------
#
# Each fault is injected through a name of the suites module, the way a
# broken callee would reach a check; every text below was frozen from the
# checks as they first reported it.  A residual that a check computes but
# never reports would turn its row green and fail here.

def _swallow(real):
    """An integrator that accepts what it should refuse."""
    def accepting(value):
        try:
            return real(value)
        except CompatibilityError:
            return None
    return accepting


def _negated_residual(real):
    """An integrator that refuses with the wrong residual."""
    def refusing(value):
        try:
            return real(value)
        except CompatibilityError as exc:
            raise CompatibilityError(str(exc), residual=-exc.residual) from None
    return refusing


def _alternating_random_field(m):
    real, calls = suites.random_field, []

    def alternating(kind, degree, seed):
        calls.append(kind)
        return real(kind, degree, seed + len(calls) % 2)
    m.setattr(suites, "random_field", alternating)


def _fieldio_fault(loads=fieldio.loads, dumps=fieldio.dumps):
    return lambda m: m.setattr(suites, "fieldio", SimpleNamespace(loads=loads, dumps=dumps))


def _loads_shifting(shifted_kind):
    def loads(text, expect_kind):
        f = fieldio.loads(text, expect_kind=expect_kind)
        return f + f if expect_kind == shifted_kind else f
    return loads


def _dumps_with_growing_tail():
    calls = []

    def dumps(field):
        calls.append(field)
        return fieldio.dumps(field) + " " * len(calls)
    return dumps


def _flat_sections(edit):
    def patch(m):
        real = suites.flat_sections_basis
        m.setattr(suites, "flat_sections_basis", lambda: edit(real()))
    return patch


def _with_curvature(edit):
    def patch(m):
        real = suites.pointwise_curvature

        def pointwise(metric, point):
            v = real(metric, point)
            return CurvatureValues(*edit(v.ricci, v.scalar, v.einstein))
        m.setattr(suites, "pointwise_curvature", pointwise)
    return patch


def _bump_first_row(rows):
    return ((rows[0][0] + 1,) + tuple(rows[0][1:]),) + tuple(rows[1:])


_E = SkewMat4.from_wedge((1, 0, 0, 0), (0, 1, 0, 0))


def _lambda2_fault(call, d_alpha, d_beta):
    """lambda2_split with alpha and beta shifted on one call of a run."""
    def patch(m):
        real, calls = suites.lambda2_split, []

        def split(v, omega):
            alpha, beta = real(v, omega)
            calls.append(v)
            if len(calls) - 1 == call:
                return alpha + d_alpha, beta + d_beta
            return alpha, beta
        m.setattr(suites, "lambda2_split", split)
    return patch


def _report_fault(edit):
    def patch(m):
        real = suites.verify_complex

        def verify(c):
            report = real(c)
            edit(report)
            return report
        m.setattr(suites, "verify_complex", verify)
    return patch


def _derivation_fault(edit):
    def patch(m):
        real = suites.derive_elasticity

        def derive(degree):
            result = real(degree)
            edit(result)
            return result
        m.setattr(suites, "derive_elasticity", derive)
    return patch


def _set(obj, **fields):
    for name, value in fields.items():
        setattr(obj, name, value)


_FAULTS = {
    "random_field alternates": ("calculus", _alternating_random_field),
    "loads doubles scalars": ("calculus", _fieldio_fault(loads=_loads_shifting("scalar"))),
    "dumps is not canonical": ("calculus", _fieldio_fault(dumps=_dumps_with_growing_tail())),
    "loads doubles w": ("calculus", _fieldio_fault(loads=_loads_shifting("w"))),
    "loads doubles wform": ("calculus", _fieldio_fault(loads=_loads_shifting("wform"))),
    "homotopy accepts": ("calculus", lambda m: m.setattr(
        suites, "homotopy_antiderivative", _swallow(suites.homotopy_antiderivative))),
    "homotopy negates": ("calculus", lambda m: m.setattr(
        suites, "homotopy_antiderivative", _negated_residual(suites.homotopy_antiderivative))),
    "w_grad drops Y": ("connection", lambda m: m.setattr(
        suites, "w_grad", lambda f, real=suites.w_grad: real(WField(f.x, VecField.zero())))),
    "w_poincare perturbs Y": ("connection", lambda m: m.setattr(
        suites, "w_poincare", lambda psi, real=suites.w_poincare:
        real(psi) + WField(VecField.zero(), VecField.of(_x1, 0, 0)))),
    "w_poincare accepts": ("connection", lambda m: m.setattr(
        suites, "w_poincare", _swallow(suites.w_poincare))),
    "saint_venant accepts": ("connection", lambda m: m.setattr(
        suites, "saint_venant_reconstruct", _swallow(suites.saint_venant_reconstruct))),
    "saint_venant negates": ("connection", lambda m: m.setattr(
        suites, "saint_venant_reconstruct",
        _negated_residual(suites.saint_venant_reconstruct))),
    "a section moves": ("connection", _flat_sections(
        lambda basis: basis[:3] + [basis[3] + WField(VecField.zero(), VecField.of(0, 1, 0))]
        + basis[4:])),
    "a section repeats": ("connection", _flat_sections(lambda basis: basis[:5] + basis[:1])),
    "normalize_rigid is the identity": ("connection", lambda m: m.setattr(
        suites, "normalize_rigid", lambda u: u)),
    "normalize_rigid keeps the rotation": ("connection", lambda m: m.setattr(
        suites, "normalize_rigid",
        lambda u: u - VecField.of(*(c.coefficient((0, 0, 0)) for c in u.components)))),
    "normalize_rigid adds x1^2": ("connection", lambda m: m.setattr(
        suites, "normalize_rigid", lambda u, real=suites.normalize_rigid:
        real(u) + VecField.of(_x1 * _x1, 0, 0))),
    "jet_inverse returns g": ("riemannian", lambda m: m.setattr(
        suites, "jet_inverse", lambda g: g)),
    "pointwise ricci": ("riemannian", _with_curvature(
        lambda ricci, scalar, einstein: (_bump_first_row(ricci), scalar, einstein))),
    "pointwise scalar": ("riemannian", _with_curvature(
        lambda ricci, scalar, einstein: (ricci, scalar + 1, einstein))),
    "pointwise einstein": ("riemannian", _with_curvature(
        lambda ricci, scalar, einstein: (ricci, scalar, _bump_first_row(einstein)))),
    "lambda2_split perturbs beta": ("complex", _lambda2_fault(0, SkewMat4.zero(), _E)),
    "lambda2_split sees the sign": ("complex", _lambda2_fault(1, _E, SkewMat4.zero() - _E)),
    "lambda2_split splits a wedge": ("complex", _lambda2_fault(2, SkewMat4.zero(), _E)),
    "interior_product is nonzero": ("complex", lambda m: m.setattr(
        suites, "interior_product", lambda v, omega: (0, Fraction(1, 2), 0, 0))),
    "wedge_with_vector is nonzero": ("complex", lambda m: m.setattr(
        suites, "wedge_with_vector", lambda v, omega: {(1, 2, 3): 0, (1, 2, 4): 1})),
    "verify_complex reports a defect": ("complex", _report_fault(
        lambda r: _set(r, defects=[0, 1]))),
    "verify_complex loses a rigid motion": ("complex", _report_fault(
        lambda r: _set(r, kernel_dims=[5] + r.kernel_dims[1:]))),
    "derive_elasticity gives a wrong factor": ("complex", _derivation_fault(
        lambda r: _set(r, stage_factors=[Fraction(1), Fraction(0), Fraction(1)]))),
    "the reduced complex composes badly": ("complex", _derivation_fault(
        lambda r: _set(r.reduced_report, composition_residuals=[
            "0", "nonzero composition at stage 1 (max |entry| 7)"]))),
    "the reduction changes a defect": ("complex", _derivation_fault(
        lambda r: _set(r.reduced_report, defects=[1, 0]))),
}

_FAULT_TEXTS = {
    "a section moves": {
        "connection.flat_sections_in_kernel": "section 3: sigma: [13] 1; [31] -1; xi: 0"},
    "a section repeats": {
        "connection.flat_sections_independent": "rank 5 of 6"},
    "derive_elasticity gives a wrong factor": {
        "complex.derivation_matches_hand_coded":
            "stage factors [Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)]"},
    "dumps is not canonical": {
        "calculus.serialization_round_trip": "kind 'scalar' serialization not canonical"},
    "homotopy accepts": {
        "calculus.homotopy_rejects_incompatible":
            "no compatibility error for a field with nonzero curl"},
    "homotopy negates": {
        "calculus.homotopy_rejects_incompatible":
            "reported residual differs from curl: (0; 1; -3)"},
    "interior_product is nonzero": {
        "complex.lambda2_split": "contraction of beta: (0, Fraction(1, 2), 0, 0)"},
    "jet_inverse returns g": {
        "riemannian.metric_jet_inverse": "entry (1,1): (1) + eps*(4*x1 + 4*x2 + 6*x3 + 6)"},
    "lambda2_split perturbs beta": {
        "complex.lambda2_split": "[12] 1"},
    "lambda2_split sees the sign": {
        "complex.lambda2_split": "split depends on the sign of the direction"},
    "lambda2_split splits a wedge": {
        "complex.lambda2_split": "decomposable form has a nonzero residual part: [12] 1"},
    "loads doubles scalars": {
        "calculus.serialization_round_trip": "kind 'scalar' did not round-trip"},
    "loads doubles w": {
        "calculus.serialization_round_trip": "kind 'w' did not round-trip"},
    "loads doubles wform": {
        "calculus.serialization_round_trip": "kind 'wform' did not round-trip"},
    "normalize_rigid adds x1^2": {
        "connection.normalize_rigid_gauge": "[11] 2*x1"},
    "normalize_rigid is the identity": {
        "connection.normalize_rigid_gauge":
            "value at the origin: (Fraction(1, 2), Fraction(-6, 1), Fraction(2, 1))"},
    "normalize_rigid keeps the rotation": {
        "connection.normalize_rigid_gauge":
            "skew Jacobian at the origin: [Fraction(0, 1), Fraction(-3, 2), "
            "Fraction(-5, 6), Fraction(3, 2), Fraction(0, 1), Fraction(0, 1), "
            "Fraction(5, 6), Fraction(0, 1), Fraction(0, 1)]"},
    "pointwise einstein": {
        "riemannian.curvature_example":
            "einstein [['1', '0', '0'], ['0', '2', '0'], ['0', '0', '0']]"},
    "pointwise ricci": {
        "riemannian.curvature_example":
            "ricci [['2', '0', '0'], ['0', '0', '0'], ['0', '0', '1']]",
        "riemannian.flat_pullback_pointwise":
            "map 0 at ('3/4', '-2/3', '-2'): ricci [['1', '0', '0'], ['0', '0', "
            "'0'], ['0', '0', '0']]"},
    "pointwise scalar": {
        "riemannian.curvature_example": "scalar 3"},
    "random_field alternates": {
        "calculus.random_field_deterministic": "kind 'scalar' not reproducible at seed 0"},
    "saint_venant accepts": {
        "connection.saint_venant_rejects_incompatible":
            "no compatibility error for an incompatible strain"},
    "saint_venant negates": {
        "connection.saint_venant_rejects_incompatible":
            "reported residual differs from the compatibility tensor"},
    "the reduced complex composes badly": {
        "complex.derivation_matches_hand_coded":
            "nonzero composition at stage 1 (max |entry| 7)"},
    "the reduction changes a defect": {
        "complex.derivation_matches_hand_coded": "defects changed: [0, 0] -> [1, 0]"},
    "verify_complex loses a rigid motion": {
        "complex.elasticity_kernel_rigid": "kernel dimension 5 of 6"},
    "verify_complex reports a defect": {
        "complex.elasticity_exact": "exactness defects [0, 1]",
        "complex.grad_curl_div_exact": "exactness defects [0, 1]"},
    "w_grad drops Y": {
        "connection.flat_sections_in_kernel": "section 3: sigma: [23] 1; [32] -1; xi: 0",
        "connection.poincare_inverts_grad":
            "potential differs by a non-flat section: X: (-1; 0; -1); Y: (-2*x1 - "
            "x2 + 2; -3*x1 + 2*x3; 2*x1 - 3*x3 - 2)"},
    "w_poincare accepts": {
        "connection.poincare_rejects_incompatible":
            "no compatibility error for a non-closed form"},
    "w_poincare perturbs Y": {
        "connection.poincare_inverts_grad": "sigma: [23] -x1; [32] x1; xi: [11] 1"},
    "wedge_with_vector is nonzero": {
        "complex.lambda2_split": "wedge of alpha nonzero"},
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_failure_texts_are_frozen(monkeypatch, fault):
    suite, patch = _FAULTS[fault]
    patch(monkeypatch)
    assert _failures(SuiteConfig(suite=suite, degree=1, trials=1)) == _FAULT_TEXTS[fault]


@pytest.mark.parametrize("corrupt,text", [
    ("connection.normalize_rigid_gauge", "[11] 2*x1"),
    ("connection.rigid_motions_are_flat", "1 (forced by the corruption hook)"),
])
def test_corruption_hook_forces_only_a_passing_check(monkeypatch, corrupt, text):
    _FAULTS["normalize_rigid adds x1^2"][1](monkeypatch)
    failures = _failures(SuiteConfig(suite="connection", degree=1, trials=1, corrupt=corrupt))
    assert failures == {"connection.normalize_rigid_gauge": "[11] 2*x1", corrupt: text}
