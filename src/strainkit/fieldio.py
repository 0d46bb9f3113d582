"""JSON serialization of polynomial fields.

Documents have the shape

    {"kind": "vec", "components": {"1": [{"exp": [0, 1, 0], "coef": "1"}]}}

with exact "p/q" coefficient strings.  Round trips are bit-exact.  Index
strings are "" for scalars, "1".."3" for vectors, the upper triangle
"11".."33" for symmetric fields, all nine "11".."33" for matrices,
"x1".."y3" for coupled sections and "sigma11".."xi33" for their one-forms.
A file holds the text of json.dumps(doc, indent=2, sort_keys=True), which
`dumps` writes directly from the field's components.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import IO

from .connection import WField, WOneForm
from .errors import FieldFormatError
from .fields import Mat3Field, SymField, VecField, _Field
from .poly import Poly3, _canonical, grlex_key

_COEF_RE = re.compile(r"-?\d+(/\d+)?")
_TERM_KEYS = {"exp", "coef"}
# One term of a written file, at the depth `dumps` puts it: coefficient, exponents.
_TERM = ('      {\n        "coef": "%s",\n        "exp": [\n          %d,\n'
         '          %d,\n          %d\n        ]\n      }')
# Longest repr of an input value that an error message repeats in full.
_ECHO_CHARS = 40

# Field type of every kind; a scalar is a bare Poly3 with the one key "".
FIELD_TYPES = {t.KIND: t for t in (VecField, SymField, Mat3Field, WField, WOneForm)}
KIND_COMPONENT_KEYS = {"scalar": ("",), **{k: t.KEYS for k, t in FIELD_TYPES.items()}}


def _poly_to_terms(p: Poly3) -> list[dict]:
    out = []
    for exp in sorted(p.terms, key=grlex_key):
        out.append({"exp": list(exp), "coef": str(p.terms[exp])})
    return out


def _brief(value) -> str:
    """repr of a value read from a file, cut to its first _ECHO_CHARS characters."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


def _poly_from_terms(raw, where: str) -> Poly3:
    """Check each term of a component once and build its Poly3 directly."""
    if not isinstance(raw, list):
        raise FieldFormatError(f"component {where!r} must be a list of terms")
    terms = {}
    for item in raw:
        if not isinstance(item, dict) or item.keys() != _TERM_KEYS:
            raise FieldFormatError(f"malformed term in component {where!r}")
        exp = item["exp"]
        if not isinstance(exp, list) or len(exp) != 3:
            raise FieldFormatError(f"bad exponent {_brief(exp)} in component {where!r}")
        key = a1, a2, a3 = tuple(exp)
        # type(), not isinstance(): a bool or another int subclass is no exponent.
        if (type(a1) is not int or type(a2) is not int or type(a3) is not int
                or a1 < 0 or a2 < 0 or a3 < 0):
            raise FieldFormatError(f"bad exponent {_brief(exp)} in component {where!r}")
        raw_coef = item["coef"]
        if not isinstance(raw_coef, str) or not _COEF_RE.fullmatch(raw_coef):
            raise FieldFormatError(f"bad coefficient {_brief(raw_coef)} in component "
                                   f"{where!r}; expected an exact 'p/q' string")
        # The regex has validated the string: an int, or "p/q" as two ints.
        num, _, den = raw_coef.partition("/")
        try:
            coef = int(num)
            if den:
                coef = _canonical(Fraction(coef, int(den)))
        except ZeroDivisionError as exc:
            raise FieldFormatError(f"bad coefficient {_brief(raw_coef)} in component "
                                   f"{where!r}") from exc
        except ValueError as exc:  # more digits than int() converts
            raise FieldFormatError(f"coefficient of {len(raw_coef)} characters in "
                                   f"component {where!r} has too many digits") from exc
        if key in terms:
            raise FieldFormatError(f"duplicate exponent {_brief(exp)} in component {where!r}")
        if coef:
            terms[key] = coef
    poly = Poly3.__new__(Poly3)
    poly.terms = terms
    return poly


def _kind_parts(field) -> tuple[str, tuple[Poly3, ...]]:
    """The file kind of a field and its Poly3 components in KEYS order."""
    if isinstance(field, Poly3):
        return "scalar", (field,)
    if isinstance(field, _Field):
        return field.KIND, field.parts
    raise TypeError(f"cannot serialize object of type {type(field).__name__}")


def field_to_doc(field) -> dict:
    """Serializable document for any supported field type."""
    kind, parts = _kind_parts(field)
    return {"kind": kind,
            "components": {key: _poly_to_terms(p)
                           for key, p in zip(KIND_COMPONENT_KEYS[kind], parts)}}


def field_from_doc(doc, expect_kind: str | None = None):
    """Rebuild a field from its document form."""
    if not isinstance(doc, dict):
        raise FieldFormatError("field document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KIND_COMPONENT_KEYS:
        raise FieldFormatError(f"unknown field kind {_brief(kind)}")
    if expect_kind is not None and kind != expect_kind:
        raise FieldFormatError(f"expected a {expect_kind!r} field, got {kind!r}")
    raw = doc.get("components", {})
    if not isinstance(raw, dict):
        raise FieldFormatError("'components' must be an object")
    allowed = KIND_COMPONENT_KEYS[kind]
    unknown = set(raw) - set(allowed)
    if unknown:
        raise FieldFormatError(f"unknown component keys for kind {kind!r}: "
                               f"{_brief(sorted(unknown))}")
    parts = tuple(_poly_from_terms(raw[key], key) if key in raw else Poly3()
                  for key in allowed)
    if kind == "scalar":
        return parts[0]
    return FIELD_TYPES[kind].from_parts(parts)


def dumps(field) -> str:
    """The text of json.dumps(field_to_doc(field), indent=2, sort_keys=True).

    Written directly from the field's parts: object keys in sorted order
    ("coef" before "exp", "components" before "kind"; the KEYS of every
    kind are sorted already), one list item or object member per line.  Keys
    and coefficient strings hold no character that JSON escapes.
    """
    kind, parts = _kind_parts(field)
    components = []
    for key, p in zip(KIND_COMPONENT_KEYS[kind], parts):
        terms = p.terms
        if terms:
            body = ",\n".join(_TERM % (terms[exp], *exp)
                               for exp in sorted(terms, key=grlex_key))
            components.append(f'    "{key}": [\n{body}\n    ]')
        else:
            components.append(f'    "{key}": []')
    return ('{\n  "components": {\n' + ",\n".join(components)
            + f'\n  }},\n  "kind": "{kind}"\n}}')


def loads(text: str, expect_kind: str | None = None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # a JSON number with more digits than int() converts
        raise FieldFormatError("a number in the file has too many digits") from exc
    except RecursionError as exc:
        raise FieldFormatError("invalid JSON: arrays or objects nested too deeply") from exc
    return field_from_doc(doc, expect_kind=expect_kind)


def save(field, fp: IO[str]) -> None:
    fp.write(dumps(field))
    fp.write("\n")


def load(fp: IO[str], expect_kind: str | None = None):
    """Read a field from a text file; the file's decoding happens here."""
    try:
        text = fp.read()
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"file is not {exc.encoding.upper()} text: "
                               f"{exc.reason} at byte {exc.start}") from exc
    return loads(text, expect_kind=expect_kind)
