"""Frozen draws, report bodies and residual texts of the check suites."""

import hashlib
import json
from fractions import Fraction

import pytest

from strainkit import complexes, exactlin, fields, stencils, suites
from strainkit.calculus import curl
from strainkit.complexes import ChainComplex, LinOpMatrix, SkewMat4
from strainkit.connection import WField, WOneForm, w_curl
from strainkit.errors import CompatibilityError
from strainkit.fields import Mat3Field, SymField, VecField
from strainkit.poly import Poly3
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
    assert check(SuiteConfig(degree=1, seed=124, trials=2)) == "0"
    assert len(draws) == len(calls) == 3


def test_run_suite_rejects_a_corrupt_name_outside_the_suite():
    with pytest.raises(ValueError, match="'complex.lambda2_split' is not a check "
                                         "of suite 'calculus'"):
        run_suite(SuiteConfig(suite="calculus", corrupt="complex.lambda2_split"))


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
