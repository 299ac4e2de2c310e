"""Bundle files: the on-disk form of fusion + chiral data.

A bundle is a canonical-JSON document.  All rationals are strings "p/q" or
scalar literals (lists of [exponent, numerator, denominator] triples), never
floats.  ``canonical_bytes`` defines the byte-level canonical form; saving a
loaded canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from fullfield.cyclotomic import CycField, CycScalar, scalar_from_literal
from fullfield.fusion import FusionData

BUNDLE_FORMAT = "ffa-bundle-v1"

Key6 = tuple[str, str, str, str, str, str]
Mults = tuple[int, int, int, int]
Space = tuple[str, str, str]


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
        return self.f.get((key6, mults), self.field.zero())


def _fraction_from_string(s: str, where: str) -> Fraction:
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
    order = {a: i for i, a in enumerate(labels)}

    def space_key(space):
        return tuple(order[a] for a in space)

    f_records = []
    for (key6, mults), val in sorted(
            b.f.items(), key=lambda kv: (tuple(order[a] for a in kv[0][0]), kv[0][1])):
        if not val:
            continue
        f_records.append({"labels": list(key6), "mults": list(mults), "value": val.literal()})

    def sigma_records(sig):
        recs = []
        for space, mat in sorted(sig.items(), key=lambda kv: space_key(kv[0])):
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
                      for s, i in sorted(b.canonical.items(), key=lambda kv: space_key(kv[0]))],
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


def bundle_from_obj(obj: dict, strict: bool = True) -> Bundle:
    """Parse a bundle object; ``strict`` gates on the fusion invariants.

    Non-strict loading still checks the structural form of every field (so
    the validate command can report invariant violations itself).
    """
    if obj.get("format") != BUNDLE_FORMAT:
        raise BundleError("format", f"expected {BUNDLE_FORMAT!r}, got {obj.get('format')!r}")
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
    labels = fo.get("labels", [])
    if type(labels) is not list:
        raise BundleError("fusion.labels", f"labels must be a list, got {labels!r}")
    for i, a in enumerate(labels):
        if type(a) is not str:
            raise BundleError(f"fusion.labels[{i}]", f"label must be a string, got {a!r}")
    labels = tuple(labels)
    if not labels or len(set(labels)) != len(labels):
        raise BundleError("fusion.labels", "labels must be a nonempty list of distinct strings")
    dual_list = fo.get("dual", [])
    if len(dual_list) != len(labels):
        raise BundleError("fusion.dual", "dual permutation list length mismatch")
    dual = {a: d for a, d in zip(labels, dual_list)}
    weights = {}
    for a in labels:
        if a not in fo.get("weights", {}):
            raise BundleError(f"fusion.weights.{a}", "missing weight")
        weights[a] = _fraction_from_string(fo["weights"][a], f"fusion.weights.{a}")
    rules = {}
    for i, rec in enumerate(fo.get("rules", [])):
        if len(rec) != 4:
            raise BundleError(f"fusion.rules[{i}]", "rule record must be [a1, a2, a3, N]")
        a1, a2, a3, n = rec
        for a in (a1, a2, a3):
            if a not in labels:
                raise BundleError(f"fusion.rules[{i}]", f"unknown label {a!r}")
        if type(n) is not int:
            raise BundleError(f"fusion.rules[{i}]", f"multiplicity must be an integer, got {n!r}")
        if n:
            rules[(a1, a2, a3)] = n
    fusion = FusionData(labels=labels, unit=fo.get("unit", ""), dual=dual,
                        weights=weights, rules=rules)
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

    f: dict[tuple[Key6, Mults], CycScalar] = {}
    for i, rec in enumerate(co.get("f", [])):
        where = f"chiral.f[{i}]"
        key6 = tuple(rec.get("labels", ()))
        if len(key6) != 6 or any(a not in labels for a in key6):
            raise BundleError(where, f"bad label tuple {key6!r}")
        mults = tuple(rec.get("mults", ()))
        if len(mults) != 4 or not all(type(m) is int and m >= 0 for m in mults):
            raise BundleError(where, f"bad multiplicity indices {mults!r}")
        val = parse_scalar(rec.get("value", []), where + ".value")
        b1, b5, b4, b2, b3, b6 = key6
        bounds = (fusion.n(b1, b5, b4), fusion.n(b2, b3, b5),
                  fusion.n(b6, b3, b4), fusion.n(b1, b2, b6))
        if any(m >= bound for m, bound in zip(mults, bounds)):
            raise BundleError(where, f"indices {mults} outside multiplicity bounds {bounds}")
        if (key6, mults) in f:
            raise BundleError(where, "duplicate entry")
        if val:
            f[(key6, mults)] = val

    def parse_sigma(name) -> dict[Space, list[list[CycScalar]]]:
        out = {}
        for i, rec in enumerate(co.get(name, [])):
            where = f"chiral.{name}[{i}]"
            space = tuple(rec.get("space", ()))
            if len(space) != 3 or any(a not in labels for a in space):
                raise BundleError(where, f"bad space {space!r}")
            dim = fusion.n(*space)
            mat = rec.get("matrix", [])
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise BundleError(where, f"matrix must be {dim}x{dim}")
            if space in out:
                raise BundleError(where, "duplicate entry")
            out[space] = [[parse_scalar(v, f"{where}[{r}][{c}]")
                           for c, v in enumerate(row)] for r, row in enumerate(mat)]
        return out

    sigma12 = parse_sigma("sigma12")
    sigma23 = parse_sigma("sigma23")
    canonical = {}
    for i, rec in enumerate(co.get("canonical", [])):
        where = f"chiral.canonical[{i}]"
        space = tuple(rec.get("space", ()))
        if len(space) != 3 or any(a not in labels for a in space):
            raise BundleError(where, f"bad space {space!r}")
        index, dim = rec.get("index", 0), fusion.n(*space)
        if type(index) is not int or not 0 <= index < dim:
            raise BundleError(where, f"index {index!r} is not a basis index of a space "
                                     f"of dimension {dim}")
        if space in canonical:
            raise BundleError(where, "duplicate entry")
        canonical[space] = index

    return Bundle(field=field, fusion=fusion, f=f, sigma12=sigma12, sigma23=sigma23,
                  canonical=canonical, provenance=obj.get("provenance", {}),
                  ffa=obj.get("ffa"))


def canonical_bytes(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


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
