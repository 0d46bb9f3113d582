import gc
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from strainkit import fieldio
from strainkit.connection import random_w_field, random_w_one_form
from strainkit.errors import FieldFormatError
from strainkit.fields import SymField, VecField, random_field
from strainkit.poly import X1, X2, Poly3

ALL_KINDS = ("scalar", "vec", "sym", "mat")

# The file format, spelled out: component keys of every kind in order.
FILE_FORMAT_KEYS = {
    "scalar": ("",),
    "vec": ("1", "2", "3"),
    "sym": ("11", "12", "13", "22", "23", "33"),
    "mat": ("11", "12", "13", "21", "22", "23", "31", "32", "33"),
    "w": ("x1", "x2", "x3", "y1", "y2", "y3"),
    "wform": ("sigma11", "sigma12", "sigma13", "sigma21", "sigma22", "sigma23",
              "sigma31", "sigma32", "sigma33",
              "xi11", "xi12", "xi13", "xi21", "xi22", "xi23", "xi31", "xi32", "xi33"),
}

# SHA-256 of fieldio.dumps for one fixed field of each kind, frozen from the
# output of the per-kind serializer that the KEYS tables replaced.
FROZEN_DUMPS_SHA256 = {
    "scalar": "8536ba9671e3112db863e08358d6dc692f55b7e9d2d5b4954f817791fd84c056",
    "vec": "f562f9a212039a6a1adb72d981c911fc202653762ea6d5d5aa11ae95c1120712",
    "sym": "b9b1a9cb734e974d42e7136dbc7b6cf0d291e69fc26bc1738dcaba2528be9229",
    "mat": "22b1ab71c4bdc423d53ba4e83655523d99ef607617fd3d3696cbefe182fcfe26",
    "w": "b41b69bab37e039e839202527119d254fd0ded25928272b951965fa270be1caf",
    "wform": "d9e4a86baf64ae717ce4890777d6a500cf56d19120216e56e1fe2dff79e93060",
}


def test_component_keys_match_the_file_format():
    assert fieldio.KIND_COMPONENT_KEYS == FILE_FORMAT_KEYS
    for kind, field_type in fieldio.FIELD_TYPES.items():
        assert field_type.KIND == kind
        assert field_type.KEYS == FILE_FORMAT_KEYS[kind]


def test_dumps_digests_are_frozen():
    fields = {kind: random_field(kind, 3, 11) for kind in ALL_KINDS}
    fields["w"] = random_w_field(2, 5)
    fields["wform"] = random_w_one_form(2, 5)
    for kind, f in fields.items():
        text = fieldio.dumps(f)
        assert json.loads(text)["kind"] == kind
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_DUMPS_SHA256[kind], kind


def test_round_trip_bit_exact():
    for kind in ALL_KINDS:
        for seed in range(6):
            f = random_field(kind, 4, seed)
            text = fieldio.dumps(f)
            back = fieldio.loads(text, expect_kind=kind)
            assert back == f
            assert fieldio.dumps(back) == text


def test_round_trip_coupled_kinds():
    for seed in range(4):
        w = random_w_field(3, seed)
        assert fieldio.loads(fieldio.dumps(w), expect_kind="w") == w
        psi = random_w_one_form(3, seed)
        assert fieldio.loads(fieldio.dumps(psi), expect_kind="wform") == psi


def test_document_shape():
    doc = fieldio.field_to_doc(VecField.of(X2, Poly3(), Poly3()))
    assert doc["kind"] == "vec"
    assert set(doc["components"]) == {"1", "2", "3"}
    assert doc["components"]["1"] == [{"exp": [0, 1, 0], "coef": "1"}]
    assert doc["components"]["2"] == []


def test_terms_sorted_ascending():
    p = X1 * X1 + X2 + Fraction(1, 3)
    doc = fieldio.field_to_doc(p)
    exps = [tuple(t["exp"]) for t in doc["components"][""]]
    assert exps == [(0, 0, 0), (0, 1, 0), (2, 0, 0)]


def test_coefficients_are_exact_strings():
    p = Fraction(-7, 12) * X1
    doc = fieldio.field_to_doc(p)
    assert doc["components"][""][0]["coef"] == "-7/12"


def test_sym_stores_upper_triangle_only():
    s = SymField.unit(1, 3, X1)
    doc = fieldio.field_to_doc(s)
    assert set(doc["components"]) == {"11", "12", "13", "22", "23", "33"}
    assert doc["components"]["13"] == [{"exp": [1, 0, 0], "coef": "1"}]


def test_save_load_file_objects():
    f = random_field("mat", 3, 99)
    buf = io.StringIO()
    fieldio.save(f, buf)
    buf.seek(0)
    assert fieldio.load(buf, expect_kind="mat") == f


def test_kind_mismatch_raises():
    text = fieldio.dumps(random_field("vec", 2, 0))
    with pytest.raises(FieldFormatError):
        fieldio.loads(text, expect_kind="sym")


def test_unknown_kind_raises():
    with pytest.raises(FieldFormatError):
        fieldio.field_from_doc({"kind": "tensor", "components": {}})


def test_unknown_component_key_raises():
    with pytest.raises(FieldFormatError):
        fieldio.field_from_doc({"kind": "vec", "components": {"4": []}})


def test_bad_exponent_raises():
    doc = {"kind": "scalar", "components": {"": [{"exp": [1, 2], "coef": "1"}]}}
    with pytest.raises(FieldFormatError):
        fieldio.field_from_doc(doc)
    doc = {"kind": "scalar", "components": {"": [{"exp": [1, -2, 0], "coef": "1"}]}}
    with pytest.raises(FieldFormatError):
        fieldio.field_from_doc(doc)


def test_boolean_exponent_raises():
    doc = {"kind": "scalar", "components": {"": [{"exp": [True, 0, False], "coef": "1"}]}}
    with pytest.raises(FieldFormatError):
        fieldio.field_from_doc(doc)
    text = '{"kind": "scalar", "components": {"": [{"exp": [true, 0, 0], "coef": "1"}]}}'
    with pytest.raises(FieldFormatError):
        fieldio.loads(text)


def test_bad_coefficient_raises():
    for bad in ("0.5", "1e3", "", "1/0", 2):
        doc = {"kind": "scalar",
               "components": {"": [{"exp": [0, 0, 0], "coef": bad}]}}
        with pytest.raises(FieldFormatError):
            fieldio.field_from_doc(doc)


def test_duplicate_exponent_raises():
    doc = {"kind": "scalar", "components": {"": [
        {"exp": [1, 0, 0], "coef": "1"}, {"exp": [1, 0, 0], "coef": "2"}]}}
    with pytest.raises(FieldFormatError):
        fieldio.field_from_doc(doc)


def test_missing_components_mean_zero():
    f = fieldio.field_from_doc({"kind": "vec", "components": {
        "2": [{"exp": [0, 0, 1], "coef": "3/2"}]}})
    assert f.comp(1).is_zero()
    assert f.comp(2) == Fraction(3, 2) * Poly3.variable(3)
    assert f.comp(3).is_zero()


def test_not_json_raises_field_format_error():
    # JSON problems surface through the same exception as format problems
    with pytest.raises(FieldFormatError):
        fieldio.loads("{broken", expect_kind="vec")


def test_all_keys_always_emitted():
    doc = fieldio.field_to_doc(VecField.zero())
    assert sorted(doc["components"]) == ["1", "2", "3"]
    assert all(v == [] for v in doc["components"].values())


def test_coefficients_load_in_canonical_form():
    def load_coef(coef):
        doc = {"kind": "scalar", "components": {"": [{"exp": [1, 0, 0], "coef": coef}]}}
        return fieldio.field_from_doc(doc).terms

    assert load_coef("4/2") == {(1, 0, 0): 2}
    assert type(load_coef("4/2")[(1, 0, 0)]) is int
    assert type(load_coef("-12")[(1, 0, 0)]) is int
    assert load_coef("-6/4") == {(1, 0, 0): Fraction(-3, 2)}
    assert load_coef("-0") == {}
    assert load_coef("0/7") == {}


# -- the direct writer against the json encoder --------------------------------

# Exponents up to 3 and from 1000 on; integer and p/q coefficients with
# multi-digit denominators, of either sign, and zeros (which Poly3 drops).
_exponents = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(1000, 10 ** 6))] * 3)
_coefs = st.one_of(st.integers(-10 ** 12, 10 ** 12),
                   st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)))
_parts = st.one_of(st.just({}), st.dictionaries(_exponents, _coefs, max_size=5))


def _field_of(kind, term_maps):
    parts = tuple(Poly3(terms) for terms in term_maps)
    return parts[0] if kind == "scalar" else fieldio.FIELD_TYPES[kind].from_parts(parts)


@st.composite
def _fields(draw):
    kind = draw(st.sampled_from(sorted(FILE_FORMAT_KEYS)))
    return _field_of(kind, [draw(_parts) for _ in FILE_FORMAT_KEYS[kind]])


def _oracle(field) -> str:
    return json.dumps(fieldio.field_to_doc(field), indent=2, sort_keys=True)


@pytest.mark.parametrize("kind", sorted(FILE_FORMAT_KEYS))
def test_dumps_of_zero_fields_matches_json_encoder(kind):
    zero = _field_of(kind, [{}] * len(FILE_FORMAT_KEYS[kind]))
    assert fieldio.dumps(zero) == _oracle(zero)
    assert fieldio.loads(fieldio.dumps(zero), expect_kind=kind) == zero


@settings(max_examples=200, deadline=None, database=None)
@given(field=_fields())
@example(field=Poly3({(1000, 0, 2): Fraction(-7, 123456), (0, 0, 0): 5}))
@example(field=SymField.unit(1, 2, Poly3({(3, 1000, 1): -1})))
def test_dumps_matches_json_encoder(field):
    text = fieldio.dumps(field)
    assert text == _oracle(field)
    assert fieldio.loads(text) == field


def test_dumps_leaves_no_cyclic_garbage():
    form = random_w_one_form(4, 0)
    gc.collect()
    gc.disable()
    try:
        fieldio.dumps(form)
        assert gc.collect() == 0
    finally:
        gc.enable()
