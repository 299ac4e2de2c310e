import collections
import copy
import enum
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from fullfield import cli
from fullfield.bundles import (
    BundleError,
    bundle_from_obj,
    bundle_to_obj,
    canonical_bytes,
    load_bundle,
    save_bundle,
)
from fullfield.chiral import ChiralData
from fullfield.cyclotomic import CycField
from fullfield.fixtures import MUTATIONS, REGULAR, fixture_bytes, load_fixture


class TestRoundTrip:
    @pytest.mark.parametrize("name", REGULAR + MUTATIONS)
    def test_byte_identity_on_canonical_files(self, name, tmp_path):
        raw = fixture_bytes(name)
        src = tmp_path / f"{name}.json"
        src.write_bytes(raw)
        bundle = load_bundle(src, strict=name not in MUTATIONS)
        out = tmp_path / "resaved.json"
        save_bundle(bundle, out)
        assert out.read_bytes() == raw

    def test_emitted_bundle_roundtrips(self, tmp_path):
        from fullfield.lattice import LatticeSpec, emit_bundle

        bundle = emit_bundle(LatticeSpec(1, 8), seed=7)
        p1 = tmp_path / "a.json"
        save_bundle(bundle, p1)
        p2 = tmp_path / "b.json"
        save_bundle(load_bundle(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def _trivial_obj():
    return json.loads(fixture_bytes("trivial").decode("utf-8"))


class TestParsing:
    def test_trivial_loads_and_validates(self):
        bundle = load_fixture("trivial")
        assert bundle.fusion.validate(field_order=bundle.field.order) == []

    def test_format_field_required(self):
        obj = _trivial_obj()
        obj["format"] = "something-else"
        with pytest.raises(BundleError, match="format"):
            bundle_from_obj(obj)

    def test_weight_phase_needs_field_order(self):
        # a 1/16 weight cannot be realized over Q(zeta_4)
        obj = _trivial_obj()
        obj["fusion"]["weights"]["e"] = "0"
        obj["fusion"]["labels"] = ["e", "s"]
        obj["fusion"]["dual"] = ["e", "s"]
        obj["fusion"]["weights"]["s"] = "1/16"
        obj["fusion"]["rules"] += [["e", "s", "s", 1], ["s", "e", "s", 1],
                                   ["s", "s", "e", 1]]
        with pytest.raises(BundleError, match="field-order"):
            bundle_from_obj(obj)

    def test_scalar_literal_out_of_field(self):
        obj = _trivial_obj()
        obj["chiral"]["f"][0]["value"] = [[9, 1, 1]]
        with pytest.raises(BundleError, match="exponent"):
            bundle_from_obj(obj)

    def test_mult_bounds_checked(self):
        obj = _trivial_obj()
        obj["chiral"]["f"][0]["mults"] = [0, 0, 0, 1]
        with pytest.raises(BundleError, match="multiplicity bounds"):
            bundle_from_obj(obj)

    def test_bad_json_reports_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BundleError, match="not valid JSON"):
            load_bundle(bad)

    def test_sigma_shape_checked(self):
        obj = _trivial_obj()
        obj["chiral"]["sigma12"][0]["matrix"] = []
        with pytest.raises(BundleError, match="matrix"):
            bundle_from_obj(obj)

    def test_duplicate_entry_rejected(self):
        obj = _trivial_obj()
        obj["chiral"]["f"].append(dict(obj["chiral"]["f"][0]))
        with pytest.raises(BundleError, match="duplicate"):
            bundle_from_obj(obj)

    @pytest.mark.parametrize("edit, where, match", [
        pytest.param(lambda o: o.pop("field_order"), "field_order", "field_order",
                     id="field-order-missing"),
        pytest.param(lambda o: o.update(field_order="8"), "field_order", "must be an integer",
                     id="field-order-string"),
        pytest.param(lambda o: o.update(field_order=8.9), "field_order", "must be an integer",
                     id="field-order-float"),
        pytest.param(lambda o: o.pop("fusion"), "fusion", "missing fusion", id="fusion-missing"),
        pytest.param(lambda o: o["fusion"].update(labels=["e", "e"]), "fusion.labels",
                     "distinct", id="labels-repeated"),
        pytest.param(lambda o: o["fusion"].update(labels=[1]), "fusion.labels[0]",
                     "must be a string", id="labels-not-string"),
        pytest.param(lambda o: o["fusion"].update(labels="e"), "fusion.labels",
                     "must be a list", id="labels-string"),
        pytest.param(lambda o: o["fusion"].update(dual=[]), "fusion.dual", "length",
                     id="dual-length"),
        pytest.param(lambda o: o["fusion"].update(weights={}), "fusion.weights.e",
                     "missing weight", id="weight-missing"),
        pytest.param(lambda o: o["fusion"]["weights"].update(e="1/0"), "fusion.weights.e",
                     "bad rational", id="weight-unreadable"),
        pytest.param(lambda o: o["fusion"]["rules"][0].pop(), "fusion.rules[0]",
                     "rule record", id="rule-length"),
        pytest.param(lambda o: o["fusion"]["rules"][0].__setitem__(2, "x"), "fusion.rules[0]",
                     "unknown label 'x'", id="rule-label"),
        pytest.param(lambda o: o["fusion"]["rules"][0].__setitem__(3, 1.0), "fusion.rules[0]",
                     "multiplicity", id="rule-multiplicity"),
        pytest.param(lambda o: o["fusion"]["rules"][0].__setitem__(3, True), "fusion.rules[0]",
                     "multiplicity", id="rule-multiplicity-bool"),
        pytest.param(lambda o: o.pop("chiral"), "chiral", "missing chiral", id="chiral-missing"),
        pytest.param(lambda o: o["chiral"]["f"][0]["labels"].pop(), "chiral.f[0]",
                     "label tuple", id="f-labels"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(mults=[0, 0, 0, -1]), "chiral.f[0]",
                     "multiplicity indices", id="f-mults"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(mults=[False] * 4), "chiral.f[0]",
                     "multiplicity indices", id="f-mults-bool"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(value=[[0, True, 1]]),
                     "chiral.f[0].value", "must be integers", id="f-value-bool"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(value=[[True, 1, True]]),
                     "chiral.f[0].value", "must be integers", id="f-exponent-bool"),
        pytest.param(lambda o: o["chiral"]["sigma12"][0].update(space=["e", "e"]),
                     "chiral.sigma12[0]", "bad space", id="sigma-space"),
        pytest.param(lambda o: o["chiral"]["sigma12"][0].update(matrix=[[[[4, 1, 1]]]]),
                     "chiral.sigma12[0][0][0]", "exponent 4", id="sigma-entry"),
        *(pytest.param(lambda o, s=section: o["chiral"][s].append(dict(o["chiral"][s][0])),
                       f"chiral.{section}[1]", "duplicate entry", id=f"{section}-duplicate")
          for section in ("sigma12", "sigma23", "canonical")),
        pytest.param(lambda o: o["chiral"]["canonical"][0].update(space=["e", "x", "e"]),
                     "chiral.canonical[0]", "bad space", id="canonical-space"),
        *(pytest.param(lambda o, i=index: o["chiral"]["canonical"][0].update(index=i),
                       "chiral.canonical[0]", "not a basis index", id=f"canonical-index-{index!r}")
          for index in (1, -1, "0", True, 0.0)),
        # a field of the wrong JSON type is located, not a TypeError or AttributeError
        pytest.param(lambda o: o["chiral"].update(f=[1]), "chiral.f[0]",
                     "must be an object", id="f-record-not-object"),
        pytest.param(lambda o: o["chiral"].update(f={"a": 1}), "chiral.f",
                     "must be a list", id="f-not-list"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(labels=5), "chiral.f[0].labels",
                     "must be a list", id="f-labels-not-list"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(value=5), "chiral.f[0].value",
                     "list of triples", id="f-value-not-list"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(value=[5]), "chiral.f[0].value",
                     "list of 3 entries", id="f-value-triple-not-list"),
        pytest.param(lambda o: o["chiral"]["sigma12"].__setitem__(0, [1]), "chiral.sigma12[0]",
                     "must be an object", id="sigma-record-not-object"),
        pytest.param(lambda o: o["chiral"]["sigma12"][0].update(matrix=[5]),
                     "chiral.sigma12[0]", "matrix must be 1x1", id="sigma-row-not-list"),
        pytest.param(lambda o: o["chiral"].update(canonical=[1]), "chiral.canonical[0]",
                     "must be an object", id="canonical-record-not-object"),
        pytest.param(lambda o: o["fusion"].update(rules=[5]), "fusion.rules[0]",
                     "rule record", id="rule-not-list"),
        pytest.param(lambda o: o["fusion"].update(weights="e"), "fusion.weights",
                     "must be an object", id="weights-string"),
        pytest.param(lambda o: o["fusion"]["weights"].update(e=0), "fusion.weights.e",
                     "must be a string", id="weight-not-string"),
        pytest.param(lambda o: o["fusion"].update(dual="e"), "fusion.dual",
                     "must be a list", id="dual-string"),
        pytest.param(lambda o: o["fusion"].update(dual=[["e"]]), "fusion.dual[0]",
                     "must be a string", id="dual-not-string"),
        pytest.param(lambda o: o["fusion"].update(unit=["e"]), "fusion.unit",
                     "must be a string", id="unit-not-string"),
        pytest.param(lambda o: o.update(provenance=[1]), "provenance",
                     "must be an object", id="provenance-not-object"),
    ])
    def test_error_names_the_location(self, edit, where, match):
        obj = _trivial_obj()
        edit(obj)
        with pytest.raises(BundleError, match=match) as info:
            bundle_from_obj(obj)
        assert info.value.where == where

    def test_top_level_not_object(self):
        with pytest.raises(BundleError, match="expected 'ffa-bundle-v1', got None"):
            bundle_from_obj([_trivial_obj()])

    def test_nonstrict_load_keeps_violations(self):
        bundle = load_fixture("mut_validate", strict=False)
        assert bundle.fusion.validate(field_order=bundle.field.order)
        with pytest.raises(BundleError):
            load_fixture("mut_validate", strict=True)


class TestProvenance:
    @pytest.mark.parametrize("name", REGULAR)
    def test_generator_recorded(self, name):
        bundle = load_fixture(name)
        assert bundle.provenance.get("generator")

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_mutations_documented(self, name):
        bundle = load_fixture(name, strict=False)
        assert bundle.provenance.get("mutation")


def test_fixture_files_are_canonical():
    # regeneration byte-stability contract
    for name in REGULAR + MUTATIONS:
        raw = fixture_bytes(name)
        obj = json.loads(raw.decode("utf-8"))
        assert canonical_bytes(obj) == _json_reference(obj) == raw


def test_ffa_output_section_roundtrip(tmp_path, trivial):
    from fullfield import ffa as ffa_mod

    ffa_mod.construct(trivial)
    bundle = trivial.bundle
    bundle.ffa = ffa_mod.ffa_section(trivial)
    path = tmp_path / "with_ffa.json"
    save_bundle(bundle, path)
    again = load_bundle(path)
    assert again.ffa == bundle.ffa
    bundle.ffa = None
    assert pathlib.Path(path).exists()


@pytest.mark.parametrize("name", REGULAR + MUTATIONS + ("rep_a4",))
def test_key_spaces_give_block_shape_and_parser_bounds(name):
    # F[i, j, l, k] runs over the bases of the four key_spaces of its key, in
    # ChiralData's dense blocks and in the parser's bounds alike
    from tests.test_chiral import random_f_bundle, rep_a4_fusion

    if name == "rep_a4":  # N(3,3;3) = 2 exercises every multiplicity slot
        bundle = random_f_bundle(rep_a4_fusion(), CycField(4), seed=7)
    else:
        bundle = load_fixture(name, strict=False)
    fusion, chiral = bundle.fusion, ChiralData(bundle)
    obj = bundle_to_obj(bundle)
    first = {}
    for i, rec in enumerate(obj["chiral"]["f"]):
        key6 = tuple(rec["labels"])
        dims = tuple(fusion.n(*space) for space in fusion.key_spaces(key6))
        blk = chiral.f_block(key6)
        assert (len(blk), len(blk[0]), len(blk[0][0]), len(blk[0][0][0])) == dims
        assert all(m < d for m, d in zip(rec["mults"], dims))
        first.setdefault(dims, i)
    for dims, i in first.items():
        for slot in range(4):
            edited = copy.deepcopy(obj)
            edited["chiral"]["f"][i]["mults"] = [d if s == slot else 0
                                                 for s, d in enumerate(dims)]
            with pytest.raises(BundleError, match=re.escape(f"multiplicity bounds {dims}")):
                bundle_from_obj(edited, strict=False)


def _json_reference(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


class _Items(list):
    pass


class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 2 ** 70


class _Real(float):
    pass


class _Text(str):
    pass


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800é€😀'),
                max_size=6)
_EDGE_FLOATS = st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf])
# scalars of exact JSON types, which the writer looks up in its leaf table
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2 ** 64, max_value=2 ** 200) | st.floats() | _EDGE_FLOATS
           | _TEXT)
# and subclasses of them, which it tests with ``isinstance`` as ``json`` does
_SCALARS = (_LEAVES | st.sampled_from(_Level) | (st.floats() | _EDGE_FLOATS).map(_Real)
            | _TEXT.map(_Text))
# a list of leaves only is written with one join; a list that mixes leaves
# and containers element by element
_LEAF_LISTS = st.lists(st.booleans() | _EDGE_FLOATS | _LEAVES, min_size=1, max_size=6)
_MIXED_LISTS = st.tuples(
    st.lists(_SCALARS, max_size=3),
    st.lists(_SCALARS, max_size=3) | st.dictionaries(_TEXT, _SCALARS, max_size=3),
    st.lists(_SCALARS, max_size=3)).map(lambda parts: [*parts[0], parts[1], *parts[2]])
# JSON values as the program and ``json`` take them: tuples and subclasses
# of list and dict are containers too
_JSON_VALUES = st.recursive(
    _SCALARS | _LEAF_LISTS | _MIXED_LISTS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(inner, max_size=4).map(_Items)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.dictionaries(_TEXT, inner, max_size=4).map(collections.OrderedDict)),
    max_leaves=24)


def _emitted(argv, monkeypatch, capsys) -> dict:
    """The object ``fullfield.cli.main(argv)`` writes as JSON."""
    seen = []
    monkeypatch.setattr(cli, "canonical_bytes",
                        lambda obj: seen.append(obj) or canonical_bytes(obj))
    cli.main(argv)
    capsys.readouterr()
    (obj,) = seen
    return obj


class TestCanonicalWriter:
    """``canonical_bytes`` against the ``json`` form that defines it."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_on_json_values(self, obj):
        assert canonical_bytes(obj) == _json_reference(obj)

    @pytest.mark.parametrize("name", [n for n in REGULAR + MUTATIONS if n != "mut_validate"])
    def test_matches_json_on_verify_reports(self, name, tmp_path, monkeypatch, capsys):
        path = tmp_path / f"{name}.json"
        path.write_bytes(fixture_bytes(name))
        obj = _emitted(["verify", str(path), "--format", "json"], monkeypatch, capsys)
        assert canonical_bytes(obj) == _json_reference(obj)

    def test_matches_json_on_a_lattice_report(self, monkeypatch, capsys):
        obj = _emitted(["lattice", "--k", "1", "--truncate", "6", "--format", "json",
                        "--seed", "5"], monkeypatch, capsys)
        assert any(type(x) is float for rep in obj["reports"] for rec in rep["records"]
                   for x in rec["index"])
        assert canonical_bytes(obj) == _json_reference(obj)

    def test_subclasses_are_containers(self):
        obj = collections.OrderedDict([("b", _Items([1, (2.5, None)])), ("a", {})])
        assert canonical_bytes(obj) == _json_reference(obj) == \
            b'{\n "a": {},\n "b": [\n  1,\n  [\n   2.5,\n   null\n  ]\n ]\n}\n'

    def test_subclassed_scalars_are_written_as_json_writes_them(self):
        obj = {"e": _Level.HIGH, "f": _Real(math.nan), "s": _Text("x"),
               "l": [_Level.LOW, _Real(-0.0), _Real(-math.inf), _Text("y"), True, None]}
        assert canonical_bytes(obj) == _json_reference(obj) == (
            b'{\n "e": 1180591620717411303424,\n "f": NaN,\n "l": [\n  -1,\n  -0.0,\n'
            b'  -Infinity,\n  "y",\n  true,\n  null\n ],\n "s": "x"\n}\n')

    @pytest.mark.parametrize("obj, match", [
        ({1: "one"}, "keys must be str"),
        ({"a": [{"b": {1, 2}}]}, "set is not JSON serializable"),
    ], ids=["int-key", "set-value"])
    def test_refuses_what_json_would_rewrite_or_refuse(self, obj, match):
        with pytest.raises(TypeError, match=match):
            canonical_bytes(obj)
