"""Bundle files: the on-disk form of fusion + chiral data.

A bundle is a canonical-JSON document.  All rationals are strings "p/q" or
scalar literals (lists of [exponent, numerator, denominator] triples), never
floats.  ``canonical_bytes`` defines the byte-level canonical form, which
reports share: object keys sorted, each member and element on its own line
indented one space per level, "," after every member or element but the
last, ": " after each key, strings with ASCII escapes, and a trailing
newline.  It is the form ``json.dumps(obj, sort_keys=True, indent=1)`` writes,
plus that newline.  Saving a loaded canonical file reproduces it byte for
byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from fullfield.cyclotomic import CycField, CycScalar, scalar_from_literal
from fullfield.fusion import FusionData, Space

BUNDLE_FORMAT = "ffa-bundle-v1"

Key6 = tuple[str, str, str, str, str, str]
Mults = tuple[int, int, int, int]


class BundleError(ValueError):
    """Malformed or inconsistent bundle file."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")


@dataclass
class Bundle:
    field: CycField
    fusion: FusionData
    f: dict[tuple[Key6, Mults], CycScalar]
    sigma12: dict[Space, list[list[CycScalar]]]
    sigma23: dict[Space, list[list[CycScalar]]]
    canonical: dict[Space, int]
    provenance: dict = dc_field(default_factory=dict)
    ffa: dict | None = None

    def f_entry(self, key6: Key6, mults: Mults) -> CycScalar:
        val = self.f.get((key6, mults))
        return self.field.zero() if val is None else val


def _fraction_from_string(s: str, where: str) -> Fraction:
    _json(s, str, where)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise BundleError(where, f"bad rational string {s!r}: {exc}") from None


def _fraction_to_string(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else f"{q.numerator}"


def bundle_to_obj(b: Bundle) -> dict:
    labels = list(b.fusion.labels)
    fusion_obj = {
        "labels": labels,
        "unit": b.fusion.unit,
        "dual": [b.fusion.dual[a] for a in labels],
        "weights": {a: _fraction_to_string(b.fusion.weights[a]) for a in labels},
        "rules": [[a1, a2, a3, n] for (a1, a2, a3), n in sorted(b.fusion.rules.items())],
    }
    label_key = b.fusion.label_key
    f_records = []
    for (key6, mults), val in sorted(b.f.items(),
                                     key=lambda kv: (label_key(kv[0][0]), kv[0][1])):
        if not val:
            continue
        f_records.append({"labels": list(key6), "mults": list(mults), "value": val.literal()})

    def sigma_records(sig):
        recs = []
        for space, mat in sorted(sig.items(), key=lambda kv: label_key(kv[0])):
            recs.append({
                "space": list(space),
                "matrix": [[v.literal() for v in row] for row in mat],
            })
        return recs

    chiral_obj = {
        "f": f_records,
        "sigma12": sigma_records(b.sigma12),
        "sigma23": sigma_records(b.sigma23),
        "canonical": [{"space": list(s), "index": i}
                      for s, i in sorted(b.canonical.items(), key=lambda kv: label_key(kv[0]))],
    }
    obj = {
        "format": BUNDLE_FORMAT,
        "field_order": b.field.order,
        "fusion": fusion_obj,
        "chiral": chiral_obj,
        "provenance": b.provenance,
    }
    if b.ffa is not None:
        obj["ffa"] = b.ffa
    return obj


_JSON_TYPES = {list: "a list", dict: "an object", str: "a string"}


def _json(value, kind: type, where: str):
    """``value`` if its JSON type is ``kind``, else a BundleError at ``where``."""
    if type(value) is not kind:
        raise BundleError(where, f"must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _strings(value, where: str) -> list:
    return [_json(a, str, f"{where}[{i}]") for i, a in enumerate(_json(value, list, where))]


def _records(section: dict, name: str, where: str):
    """(location, record) for each object in the list ``section[name]``."""
    for i, rec in enumerate(_json(section.get(name, []), list, where)):
        at = f"{where}[{i}]"
        yield at, _json(rec, dict, at)


def bundle_from_obj(obj: dict, strict: bool = True) -> Bundle:
    """Parse a bundle object; ``strict`` gates on the fusion invariants.

    Non-strict loading still checks the structural form of every field (so
    the validate command can report invariant violations itself).  A field
    of the wrong JSON type is a ``BundleError`` that names its location.
    """
    fmt = obj.get("format") if type(obj) is dict else None
    if fmt != BUNDLE_FORMAT:
        raise BundleError("format", f"expected {BUNDLE_FORMAT!r}, got {fmt!r}")
    order = obj.get("field_order")
    if type(order) is not int:
        raise BundleError("field_order", f"field_order must be an integer, got {order!r}")
    try:
        field = CycField(order)
    except ValueError as exc:
        raise BundleError("field_order", str(exc)) from None

    fo = obj.get("fusion")
    if not isinstance(fo, dict):
        raise BundleError("fusion", "missing fusion section")
    labels = tuple(_strings(fo.get("labels", []), "fusion.labels"))
    if not labels or len(set(labels)) != len(labels):
        raise BundleError("fusion.labels", "labels must be a nonempty list of distinct strings")
    unit = _json(fo.get("unit", ""), str, "fusion.unit")
    dual_list = _strings(fo.get("dual", []), "fusion.dual")
    if len(dual_list) != len(labels):
        raise BundleError("fusion.dual", "dual permutation list length mismatch")
    dual = {a: d for a, d in zip(labels, dual_list)}
    weights_obj = _json(fo.get("weights", {}), dict, "fusion.weights")
    weights = {}
    for a in labels:
        if a not in weights_obj:
            raise BundleError(f"fusion.weights.{a}", "missing weight")
        weights[a] = _fraction_from_string(weights_obj[a], f"fusion.weights.{a}")
    rules = {}
    for i, rec in enumerate(_json(fo.get("rules", []), list, "fusion.rules")):
        if type(rec) is not list or len(rec) != 4:
            raise BundleError(f"fusion.rules[{i}]", "rule record must be [a1, a2, a3, N]")
        a1, a2, a3, n = rec
        for a in (a1, a2, a3):
            if a not in labels:
                raise BundleError(f"fusion.rules[{i}]", f"unknown label {a!r}")
        if type(n) is not int:
            raise BundleError(f"fusion.rules[{i}]", f"multiplicity must be an integer, got {n!r}")
        if n:
            rules[(a1, a2, a3)] = n
    fusion = FusionData(labels=labels, unit=unit, dual=dual, weights=weights, rules=rules)
    if strict:
        violations = fusion.validate(field_order=field.order)
        if violations:
            raise BundleError("fusion", "; ".join(str(v) for v in violations))

    co = obj.get("chiral")
    if not isinstance(co, dict):
        raise BundleError("chiral", "missing chiral section")

    def parse_scalar(lit, where):
        try:
            return scalar_from_literal(field, lit)
        except ValueError as exc:
            raise BundleError(where, str(exc)) from None

    def parse_space(rec, where) -> Space:
        space = tuple(_json(rec.get("space", []), list, where + ".space"))
        if len(space) != 3 or any(a not in labels for a in space):
            raise BundleError(where, f"bad space {space!r}")
        return space

    f: dict[tuple[Key6, Mults], CycScalar] = {}
    for where, rec in _records(co, "f", "chiral.f"):
        key6 = tuple(_json(rec.get("labels", []), list, where + ".labels"))
        if len(key6) != 6 or any(a not in labels for a in key6):
            raise BundleError(where, f"bad label tuple {key6!r}")
        mults = tuple(_json(rec.get("mults", []), list, where + ".mults"))
        if len(mults) != 4 or not all(type(m) is int and m >= 0 for m in mults):
            raise BundleError(where, f"bad multiplicity indices {mults!r}")
        val = parse_scalar(rec.get("value", []), where + ".value")
        bounds = tuple([fusion.n(*space) for space in fusion.key_spaces(key6)])
        if any(m >= bound for m, bound in zip(mults, bounds)):
            raise BundleError(where, f"indices {mults} outside multiplicity bounds {bounds}")
        if (key6, mults) in f:
            raise BundleError(where, "duplicate entry")
        if val:
            f[(key6, mults)] = val

    def parse_sigma(name) -> dict[Space, list[list[CycScalar]]]:
        out = {}
        for where, rec in _records(co, name, f"chiral.{name}"):
            space = parse_space(rec, where)
            dim = fusion.n(*space)
            mat = rec.get("matrix", [])
            if (type(mat) is not list or len(mat) != dim
                    or any(type(row) is not list or len(row) != dim for row in mat)):
                raise BundleError(where, f"matrix must be {dim}x{dim}")
            if space in out:
                raise BundleError(where, "duplicate entry")
            out[space] = [[parse_scalar(v, f"{where}[{r}][{c}]")
                           for c, v in enumerate(row)] for r, row in enumerate(mat)]
        return out

    sigma12 = parse_sigma("sigma12")
    sigma23 = parse_sigma("sigma23")
    canonical = {}
    for where, rec in _records(co, "canonical", "chiral.canonical"):
        space = parse_space(rec, where)
        index, dim = rec.get("index", 0), fusion.n(*space)
        if type(index) is not int or not 0 <= index < dim:
            raise BundleError(where, f"index {index!r} is not a basis index of a space "
                                     f"of dimension {dim}")
        if space in canonical:
            raise BundleError(where, "duplicate entry")
        canonical[space] = index

    return Bundle(field=field, fusion=fusion, f=f, sigma12=sigma12, sigma23=sigma23,
                  canonical=canonical,
                  provenance=_json(obj.get("provenance", {}), dict, "provenance"),
                  ffa=obj.get("ffa"))


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


# exact scalar type -> its canonical text; subclasses go through ``_write``
_LEAF_TEXT = {
    str: _quote,
    type(None): lambda o: "null",
    bool: lambda o: "true" if o else "false",
    int: int.__repr__,
    float: _float_text,
}


def canonical_bytes(obj: dict) -> bytes:
    """The canonical JSON form of ``obj``, equal to
    ``(json.dumps(obj, sort_keys=True, indent=1) + "\\n").encode("utf-8")``.

    Object keys are sorted.  Every member and element starts a new line
    indented one space per level; all but the last end in ",", and a key is
    followed by ": ".  Empty containers are written "{}" and "[]".  Strings
    use ASCII escapes, other scalars are written as ``json`` writes them (NaN
    and infinities included), and the text ends in a newline.  Dicts, lists
    and tuples and their subclasses are containers.  A key that is not a
    string, or a value JSON cannot hold, is a ``TypeError``; ``json`` would
    turn a number key into a string, which this form never needs.

    ``json.dumps`` with an indent runs its pure-Python encoder.  This writer
    looks up the text of each scalar of an exact JSON type (str, None, bool,
    int, float) in the leaf table ``_LEAF_TEXT``, which quotes strings with
    the C ``encode_basestring_ascii``: a dict writes such values without a
    recursive call, and a list of them is written with one join.  Subclasses
    take the ``isinstance`` path of ``_write``.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _write(o, nl: str, out: list) -> None:
    """Append the canonical fragments of ``o`` at the line start ``nl``."""
    leaf = _LEAF_TEXT.get(type(o))
    if leaf is not None:
        out.append(leaf(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            leaf = _LEAF_TEXT.get(type(value))
            if leaf is None:
                out.append(sep + _quote(key) + ": ")
                _write(value, inner, out)
            else:
                out.append(sep + _quote(key) + ": " + leaf(value))
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + " "
        try:
            out.append("[" + inner + ("," + inner).join([_LEAF_TEXT[type(item)](item) for item in o])
                       + nl + "]")
            return
        except KeyError:  # an element is a container or a subclass
            pass
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def save_bundle(bundle: Bundle, path) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(bundle_to_obj(bundle)))


def load_bundle(path, strict: bool = True) -> Bundle:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleError(str(path), f"not valid JSON: {exc}") from None
    return bundle_from_obj(obj, strict=strict)
