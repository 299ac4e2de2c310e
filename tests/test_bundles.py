import json
import pathlib

import pytest

from fullfield.bundles import (
    BundleError,
    bundle_from_obj,
    bundle_to_obj,
    canonical_bytes,
    load_bundle,
    save_bundle,
)
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
        pytest.param(lambda o: o.pop("fusion"), "fusion", "missing fusion", id="fusion-missing"),
        pytest.param(lambda o: o["fusion"].update(labels=["e", "e"]), "fusion.labels",
                     "distinct", id="labels-repeated"),
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
        pytest.param(lambda o: o.pop("chiral"), "chiral", "missing chiral", id="chiral-missing"),
        pytest.param(lambda o: o["chiral"]["f"][0]["labels"].pop(), "chiral.f[0]",
                     "label tuple", id="f-labels"),
        pytest.param(lambda o: o["chiral"]["f"][0].update(mults=[0, 0, 0, -1]), "chiral.f[0]",
                     "multiplicity indices", id="f-mults"),
        pytest.param(lambda o: o["chiral"]["sigma12"][0].update(space=["e", "e"]),
                     "chiral.sigma12[0]", "bad space", id="sigma-space"),
        pytest.param(lambda o: o["chiral"]["sigma12"][0].update(matrix=[[[[4, 1, 1]]]]),
                     "chiral.sigma12[0][0][0]", "exponent 4", id="sigma-entry"),
        pytest.param(lambda o: o["chiral"]["canonical"][0].update(space=["e", "x", "e"]),
                     "chiral.canonical[0]", "bad space", id="canonical-space"),
    ])
    def test_error_names_the_location(self, edit, where, match):
        obj = _trivial_obj()
        edit(obj)
        with pytest.raises(BundleError, match=match) as info:
            bundle_from_obj(obj)
        assert info.value.where == where

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
        assert canonical_bytes(obj) == raw


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
