"""Value semantics of the small record classes.

Each class is built positionally and by keyword, compared within and across
classes, hashed (frozen classes only) and assigned to; its repr text is
frozen.  Short reprs are pinned as text, the four long ones by the sha256
of their text.
"""

import copy
import hashlib
import pickle
from fractions import Fraction

import pytest

from strainkit.complexes import (ChainComplex, ComplexReport, DerivationResult,
                                 GradedSpace, SkewMat4, Slot)
from strainkit.connection import WField, WOneForm
from strainkit.fields import Mat3Field, SymField, VecField
from strainkit.poly import X1, X2
from strainkit.riemannian import (ChristoffelJet, CurvatureJet, CurvatureValues,
                                  JetPoly, MetricJet, PolyMetric, christoffel_jet,
                                  ricci_jet)
from strainkit.stencils import Operator
from strainkit.suites import CheckRecord, SuiteConfig, VerificationReport


def _jets(strain):
    g = MetricJet.from_strain(strain)
    c = ricci_jet(g)
    return ((g.entries,), (christoffel_jet(g).gamma,),
            (c.metric, c.ricci, c.scalar, c.einstein))


_FLAT, _BENT = _jets(SymField.zero()), _jets(SymField.unit(1, 2, X1 * X2))
_EMPTY = ChainComplex("empty", [GradedSpace([])], [])
_POINT = ChainComplex("point", [GradedSpace([Slot("f", "scalar", 0)])], [])
_REPORT = ComplexReport("c", [[{"label": "u"}]], [1], [0], ["0"], [0])

# (class, field names, args, args of an unequal value, frozen)
CASES = [
    (VecField, ("components",), ((1, 0, X1),), ((1, 0, X2),), True),
    (Mat3Field, ("rows",), (Mat3Field.unit(1, 2, X1).rows,),
     (Mat3Field.unit(2, 1, X1).rows,), True),
    (SymField, ("upper",), ((0, 0, 0, 0, Fraction(1, 2), 0),), ((0,) * 6,), True),
    (WField, ("x", "y"), (VecField.basis(1), VecField.basis(3)),
     (VecField.basis(3), VecField.basis(1)), True),
    (WOneForm, ("sigma", "xi"), (Mat3Field.unit(1, 1), Mat3Field.zero()),
     (Mat3Field.zero(), Mat3Field.unit(1, 1)), True),
    (JetPoly, ("p0", "p1"), (1, X1), (1, X2), True),
    (MetricJet, ("entries",), _FLAT[0], _BENT[0], True),
    (ChristoffelJet, ("gamma",), _FLAT[1], _BENT[1], True),
    (CurvatureJet, ("metric", "ricci", "scalar", "einstein"), _FLAT[2], _BENT[2], True),
    (PolyMetric, ("entries",), (SymField.identity(),), (SymField.zero(),), True),
    (CurvatureValues, ("ricci", "scalar", "einstein"),
     (((0,) * 3,) * 3, Fraction(1, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
     (((0,) * 3,) * 3, 0, ((0,) * 3,) * 3), True),
    (Slot, ("label", "kind", "bound"), ("u", "vec", 2), ("u", "vec", 1), True),
    (SkewMat4, ("entries",), (SkewMat4.from_wedge((1, 0, 0, 0), (0, 1, 0, 0)).entries,),
     (SkewMat4.zero().entries,), True),
    (Operator, ("domain", "codomain", "acts_on", "reference"),
     ((("v", "vec", 0),), (("f", "scalar", -1),), "vec", None),
     ((("v", "vec", 0),), (("f", "scalar", -1),), "sym", None), True),
    (SuiteConfig, ("suite", "degree", "trials", "seed", "corrupt"),
     ("all", 3, 2, 0, None), ("all", 3, 2, 1, None), True),
    (CheckRecord, ("name", "status", "residual", "elapsed"),
     ("calculus.x", "pass", "0", 0.5), ("calculus.x", "fail", "x1", 0.5), True),
    (ChainComplex, ("name", "spaces", "maps"), ("empty", [GradedSpace([])], []),
     ("point", [GradedSpace([Slot("f", "scalar", 0)])], []), False),
    (ComplexReport, ("name", "slot_info", "ranks", "kernel_dims",
                     "composition_residuals", "defects"),
     ("c", [[{"label": "u"}]], [1], [0], ["0"], [0]),
     ("c", [[{"label": "u"}]], [1], [0], ["0"], [1]), False),
    (DerivationResult, ("full", "halfway", "reduced", "hand_coded", "stage_factors",
                        "full_report", "reduced_report"),
     (_EMPTY, _EMPTY, _EMPTY, _EMPTY, [Fraction(1, 2), None], _REPORT, _REPORT),
     (_EMPTY, _EMPTY, _POINT, _EMPTY, [Fraction(1, 2), None], _REPORT, _REPORT), False),
    (VerificationReport, ("config", "records"),
     (SuiteConfig(suite="calculus"), [CheckRecord("calculus.x", "pass", "0", 0.5)]),
     (SuiteConfig(suite="calculus"), []), False),
]

# repr of each case's first value, taken from the dataclass implementation.
REPRS = {
    VecField: "VecField(components=(Poly3(1), Poly3(0), Poly3(x1)))",
    Mat3Field: "Mat3Field(rows=((Poly3(0), Poly3(x1), Poly3(0)), (Poly3(0), Poly3(0), "
               "Poly3(0)), (Poly3(0), Poly3(0), Poly3(0))))",
    SymField: "SymField(upper=(Poly3(0), Poly3(0), Poly3(0), Poly3(0), Poly3(1/2), "
              "Poly3(0)))",
    WField: "WField(x=VecField(components=(Poly3(1), Poly3(0), Poly3(0))), "
            "y=VecField(components=(Poly3(0), Poly3(0), Poly3(1))))",
    WOneForm: "WOneForm(sigma=Mat3Field(rows=((Poly3(1), Poly3(0), Poly3(0)), "
              "(Poly3(0), Poly3(0), Poly3(0)), (Poly3(0), Poly3(0), Poly3(0)))), "
              "xi=Mat3Field(rows=((Poly3(0), Poly3(0), Poly3(0)), (Poly3(0), Poly3(0), "
              "Poly3(0)), (Poly3(0), Poly3(0), Poly3(0)))))",
    JetPoly: "JetPoly(p0=Poly3(1), p1=Poly3(x1))",
    MetricJet: "sha256:"
        "72f8ebd327b0c25437a5da2cf500cc07e0b7e3e58f3600f7068d0c8be5c4ec90",
    ChristoffelJet: "sha256:"
        "c49253412e9666604e450c5f39594e5e4a24d1f59d4304cf3d15fb70f2b630c9",
    CurvatureJet: "sha256:"
        "5d96039cdde88bc65ced78e92ca8707b4434e8799a1f051945fc43078dbbc87d",
    PolyMetric: "PolyMetric(entries=SymField(upper=(Poly3(1), Poly3(0), Poly3(0), "
                "Poly3(1), Poly3(0), Poly3(1))))",
    CurvatureValues: "CurvatureValues(ricci=((0, 0, 0), (0, 0, 0), (0, 0, 0)), "
                     "scalar=Fraction(1, 2), einstein=((1, 0, 0), (0, 1, 0), (0, 0, 1)))",
    Slot: "Slot(label='u', kind='vec', bound=2)",
    SkewMat4: "SkewMat4(entries=((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), "
              "(0, 0, 0, 0)))",
    Operator: "Operator(domain=(('v', 'vec', 0),), codomain=(('f', 'scalar', -1),), "
              "acts_on='vec', reference=None)",
    SuiteConfig: "SuiteConfig(suite='all', degree=3, trials=2, seed=0, corrupt=None)",
    CheckRecord: "CheckRecord(name='calculus.x', status='pass', residual='0', "
                 "elapsed=0.5)",
    ChainComplex: "ChainComplex(name='empty', spaces=[GradedSpace()], maps=[])",
    ComplexReport: "ComplexReport(name='c', slot_info=[[{'label': 'u'}]], ranks=[1], "
                   "kernel_dims=[0], composition_residuals=['0'], defects=[0])",
    DerivationResult: "sha256:"
        "586990bf03e6195b757d6e15ce3b8511f2fe2e99bcffd920ffd43f4d4ae0543a",
    VerificationReport: "VerificationReport(config=SuiteConfig(suite='calculus', "
                        "degree=3, trials=2, seed=0, corrupt=None), "
                        "records=[CheckRecord(name='calculus.x', status='pass', "
                        "residual='0', elapsed=0.5)])",
}

_IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, args, other, frozen", CASES, ids=_IDS)
def test_construction_positional_and_keyword(cls, names, args, other, frozen):
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert type(by_position) is cls
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != cls(*other)
    for name in names:
        assert getattr(by_position, name) == getattr(by_keyword, name)


@pytest.mark.parametrize("cls, names, args, other, frozen", CASES, ids=_IDS)
def test_equality_is_per_class(cls, names, args, other, frozen):
    value = cls(*args)
    assert value != tuple(getattr(value, name) for name in names)
    for other_cls, _, other_args, _, _ in CASES:
        if other_cls is not cls:
            assert value != other_cls(*other_args)
            assert not value == other_cls(*other_args)

    class Sub(cls):
        pass

    assert Sub(*args) != value and value != Sub(*args)


@pytest.mark.parametrize("cls, names, args, other, frozen", CASES, ids=_IDS)
def test_hash_only_when_frozen(cls, names, args, other, frozen):
    a, b = cls(*args), cls(*args)
    if frozen:
        assert a is not b and hash(a) == hash(b)
        assert len({a, b, cls(*other)}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("cls, names, args, other, frozen", CASES, ids=_IDS)
def test_frozen_values_refuse_assignment(cls, names, args, other, frozen):
    value = cls(*args)
    name = names[-1]
    replacement = getattr(cls(*other), name)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(value, name, replacement)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == cls(*args)
    else:
        setattr(value, name, replacement)
        assert value == cls(*args[:-1], replacement)


@pytest.mark.parametrize("cls, names, args, other, frozen", CASES, ids=_IDS)
def test_repr_text_is_frozen(cls, names, args, other, frozen):
    text = repr(cls(*args))
    expected = REPRS[cls]
    if expected.startswith("sha256:"):
        assert text.startswith(f"{cls.__name__}({names[0]}=")
        text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    assert text == expected


@pytest.mark.parametrize("cls, names, args, other, frozen", CASES, ids=_IDS)
def test_copies_and_pickles_are_equal(cls, names, args, other, frozen):
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


def test_defaults():
    assert SuiteConfig() == SuiteConfig("all", 3, 2, 0, None)
    assert SuiteConfig(seed=4).trials == 2
    report, other = VerificationReport(SuiteConfig()), VerificationReport(SuiteConfig())
    assert report.records == [] and report == other
    report.records.append(CheckRecord("calculus.x", "pass", "0", 0.0))
    assert other.records == []
