"""JSON serialization of polynomial fields.

Documents have the shape

    {"kind": "vec", "components": {"1": [{"exp": [0, 1, 0], "coef": "1"}]}}

with exact "p/q" coefficient strings.  Round trips are bit-exact.  Index
strings are "" for scalars, "1".."3" for vectors, the upper triangle
"11".."33" for symmetric fields, all nine "11".."33" for matrices,
"x1".."y3" for coupled sections and "sigma11".."xi33" for their one-forms.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import IO

from .connection import WField, WOneForm
from .errors import FieldFormatError
from .fields import Mat3Field, SymField, VecField, _Field
from .poly import Poly3, grlex_key

_COEF_RE = re.compile(r"-?\d+(/\d+)?")

# Field type of every kind; a scalar is a bare Poly3 with the one key "".
FIELD_TYPES = {t.KIND: t for t in (VecField, SymField, Mat3Field, WField, WOneForm)}
KIND_COMPONENT_KEYS = {"scalar": ("",), **{k: t.KEYS for k, t in FIELD_TYPES.items()}}


def _poly_to_terms(p: Poly3) -> list[dict]:
    out = []
    for exp in sorted(p.terms, key=grlex_key):
        out.append({"exp": list(exp), "coef": str(p.terms[exp])})
    return out


def _poly_from_terms(raw, where: str) -> Poly3:
    if not isinstance(raw, list):
        raise FieldFormatError(f"component {where!r} must be a list of terms")
    terms = {}
    for item in raw:
        if not isinstance(item, dict) or set(item) != {"exp", "coef"}:
            raise FieldFormatError(f"malformed term in component {where!r}")
        exp = item["exp"]
        if (not isinstance(exp, list) or len(exp) != 3
                or any(not isinstance(a, int) or isinstance(a, bool) or a < 0
                       for a in exp)):
            raise FieldFormatError(f"bad exponent {exp!r} in component {where!r}")
        raw_coef = item["coef"]
        if not isinstance(raw_coef, str) or not _COEF_RE.fullmatch(raw_coef):
            raise FieldFormatError(f"bad coefficient {raw_coef!r} in component "
                                   f"{where!r}; expected an exact 'p/q' string")
        try:
            coef = Fraction(raw_coef)
        except ZeroDivisionError as exc:
            raise FieldFormatError(f"bad coefficient {raw_coef!r} in component "
                                   f"{where!r}") from exc
        key = tuple(exp)
        if key in terms:
            raise FieldFormatError(f"duplicate exponent {exp!r} in component {where!r}")
        if coef:
            terms[key] = coef
    return Poly3(terms)


def field_to_doc(field) -> dict:
    """Serializable document for any supported field type."""
    if isinstance(field, Poly3):
        kind, parts = "scalar", (field,)
    elif isinstance(field, _Field):
        kind, parts = field.KIND, field.parts
    else:
        raise TypeError(f"cannot serialize object of type {type(field).__name__}")
    return {"kind": kind,
            "components": {key: _poly_to_terms(p)
                           for key, p in zip(KIND_COMPONENT_KEYS[kind], parts)}}


def field_from_doc(doc, expect_kind: str | None = None):
    """Rebuild a field from its document form."""
    if not isinstance(doc, dict):
        raise FieldFormatError("field document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KIND_COMPONENT_KEYS:
        raise FieldFormatError(f"unknown field kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise FieldFormatError(f"expected a {expect_kind!r} field, got {kind!r}")
    raw = doc.get("components", {})
    if not isinstance(raw, dict):
        raise FieldFormatError("'components' must be an object")
    allowed = KIND_COMPONENT_KEYS[kind]
    unknown = set(raw) - set(allowed)
    if unknown:
        raise FieldFormatError(f"unknown component keys for kind {kind!r}: "
                               f"{sorted(unknown)}")
    parts = tuple(_poly_from_terms(raw[key], key) if key in raw else Poly3()
                  for key in allowed)
    if kind == "scalar":
        return parts[0]
    return FIELD_TYPES[kind].from_parts(parts)


def dumps(field) -> str:
    return json.dumps(field_to_doc(field), indent=2, sort_keys=True)


def loads(text: str, expect_kind: str | None = None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"invalid JSON: {exc}") from exc
    return field_from_doc(doc, expect_kind=expect_kind)


def save(field, fp: IO[str]) -> None:
    fp.write(dumps(field))
    fp.write("\n")


def load(fp: IO[str], expect_kind: str | None = None):
    return loads(fp.read(), expect_kind=expect_kind)
