from fractions import Fraction
from itertools import product

import pytest

from fullfield.fixtures import MUTATIONS, REGULAR, load_fixture
from fullfield.fusion import FusionData
from fullfield.lattice import LatticeModel, lattice_fusion
from fullfield.solver import admissible_tuples


def z2_fusion() -> FusionData:
    return lattice_fusion(1)


def ising_fusion() -> FusionData:
    return FusionData(
        labels=("1", "eps", "sigma"), unit="1",
        dual={"1": "1", "eps": "eps", "sigma": "sigma"},
        weights={"1": Fraction(0), "eps": Fraction(1, 2), "sigma": Fraction(1, 16)},
        rules={
            ("1", "1", "1"): 1, ("1", "eps", "eps"): 1, ("1", "sigma", "sigma"): 1,
            ("eps", "1", "eps"): 1, ("eps", "eps", "1"): 1, ("eps", "sigma", "sigma"): 1,
            ("sigma", "1", "sigma"): 1, ("sigma", "eps", "sigma"): 1,
            ("sigma", "sigma", "1"): 1, ("sigma", "sigma", "eps"): 1,
        })


class TestValidate:
    def test_z2_valid_with_lattice_weight(self):
        data = z2_fusion()
        assert data.validate() == []
        # the charged-sector weight is half the norm of the half-lattice point
        model = LatticeModel(1)
        lam_norm = Fraction(1, 2)  # <alpha/2, alpha/2> with <alpha, alpha> = 2
        assert data.weights["1"] == lam_norm / 2 == model.sector_weight(1) == Fraction(1, 4)

    def test_ising_valid(self):
        assert ising_fusion().validate(field_order=32) == []

    def test_unit_duality_violation(self):
        data = ising_fusion()
        rules = dict(data.rules)
        del rules[("sigma", "sigma", "1")]
        mutated = FusionData(labels=data.labels, unit=data.unit, dual=data.dual,
                             weights=data.weights, rules=rules)
        codes = {v.code for v in mutated.validate()}
        assert "unit-duality" in codes

    def test_field_order_divisibility(self):
        data = ising_fusion()
        assert any(v.code == "field-order" for v in data.validate(field_order=4))
        assert not any(v.code == "field-order" for v in data.validate(field_order=32))

    def test_unit_weight_violation(self):
        data = ising_fusion()
        mutated = FusionData(labels=data.labels, unit=data.unit, dual=data.dual,
                             weights={**data.weights, "1": Fraction(1)},
                             rules=data.rules)
        assert any(v.code == "unit-weight" for v in mutated.validate())

    def test_commutativity_violation(self):
        data = ising_fusion()
        rules = dict(data.rules)
        del rules[("eps", "sigma", "sigma")]
        mutated = FusionData(labels=data.labels, unit=data.unit, dual=data.dual,
                             weights=data.weights, rules=rules)
        codes = {v.code for v in mutated.validate()}
        assert "commutativity" in codes

    def test_dual_weight_violation(self):
        data = lattice_fusion(2)
        weights = dict(data.weights)
        weights["3"] = weights["3"] + 1
        mutated = FusionData(labels=data.labels, unit=data.unit, dual=data.dual,
                             weights=weights, rules=data.rules)
        assert any(v.code == "dual-weight" for v in mutated.validate())

    @pytest.mark.parametrize("code, labels, edit", [
        pytest.param("unit-missing", ("x",), lambda p: p.update(unit="x"), id="unit-missing"),
        pytest.param("dual-missing", ("1",), lambda p: p["dual"].pop("1"), id="dual-missing"),
        pytest.param("dual-range", ("1",), lambda p: p["dual"].update({"1": "x"}),
                     id="dual-range"),
        pytest.param("rule-label", ("0", "x", "x"),
                     lambda p: p["rules"].update({("0", "x", "x"): 1}), id="rule-label"),
        pytest.param("unit-dual", ("0",), lambda p: p["dual"].update({"0": "2", "2": "0"}),
                     id="unit-dual"),
        pytest.param("dual-involution", ("1",), lambda p: p["dual"].update({"1": "2"}),
                     id="dual-involution"),
        pytest.param("weight-missing", ("1",), lambda p: p["weights"].pop("1"),
                     id="weight-missing"),
        pytest.param("unit-left", ("0", "1", "2"),
                     lambda p: p["rules"].update({("0", "1", "2"): 1}), id="unit-left"),
        pytest.param("unit-right", ("1", "0", "1"), lambda p: p["rules"].pop(("1", "0", "1")),
                     id="unit-right"),
        pytest.param("negative", ("1", "1", "2"),
                     lambda p: p["rules"].update({("1", "1", "2"): -1}), id="negative"),
        pytest.param("prime-symmetry", ("1", "1", "2"),
                     lambda p: p["rules"].update({("1", "1", "2"): 2}), id="prime-symmetry"),
    ])
    def test_violation_names_its_labels(self, code, labels, edit):
        # each edit of the Z/4 ring breaks one invariant, which is reported
        # with the offending label tuple
        base = lattice_fusion(2)
        parts = {"unit": base.unit, "dual": dict(base.dual), "weights": dict(base.weights),
                 "rules": dict(base.rules)}
        edit(parts)
        found = {(v.code, v.labels) for v in FusionData(labels=base.labels, **parts).validate()}
        assert (code, labels) in found

    def test_every_shipped_fixture_validates(self, fixture_name):
        from tests.conftest import get_bundle
        bundle = get_bundle(fixture_name)
        assert bundle.fusion.validate(field_order=bundle.field.order) == []


class TestNonzeroSpaces:
    def test_trivial_single_space(self):
        data = FusionData(labels=("e",), unit="e", dual={"e": "e"},
                          weights={"e": Fraction(0)}, rules={("e", "e", "e"): 1})
        assert data.spaces() == [("e", "e", "e")]
        assert data.n("e", "e", "e") == 1

    def test_z2_four_spaces(self):
        # the group multiplication table of Z/2
        fusion = z2_fusion()
        spaces = fusion.spaces()
        assert len(spaces) == 4
        assert all(fusion.n(*s) == 1 for s in spaces)
        want = {(str(i), str(j), str((i + j) % 2)) for i in range(2) for j in range(2)}
        assert set(spaces) == want

    def test_ising_ten_spaces(self):
        fusion = ising_fusion()
        spaces = fusion.spaces()
        assert len(spaces) == 10
        assert all(fusion.n(*s) == 1 for s in spaces)

    def test_count_matches_support(self, fixture_name):
        from tests.conftest import get_bundle
        fusion = get_bundle(fixture_name).fusion
        support = sum(1 for a1 in fusion.labels for a2 in fusion.labels
                      for a3 in fusion.labels if fusion.n(a1, a2, a3) > 0)
        assert len(fusion.spaces()) == support

    def test_deterministic_order(self):
        spaces = ising_fusion().spaces()
        order = {a: i for i, a in enumerate(("1", "eps", "sigma"))}
        keys = [tuple(order[x] for x in s) for s in spaces]
        assert keys == sorted(keys)


def scan_pentagon_instances(fusion: FusionData):
    """Reference: the pentagon enumeration as a scan over every label 5-tuple
    and every label of each tree, testing each multiplicity with ``n``."""
    labels = fusion.labels
    n = fusion.n
    for a1, a2, a3, a4, d in product(labels, repeat=5):
        lefts = [(b, c) for b in labels for c in labels
                 if n(a1, b, d) and n(a2, c, b) and n(a3, a4, c)]
        rights = [(v, s) for v in labels for s in labels
                  if n(v, a4, d) and n(s, a3, v) and n(a1, a2, s)]
        for b, c in lefts:
            mids = [u for u in labels if n(u, a4, b) and n(a2, a3, u)]
            for i, j, k in product(range(n(a1, b, d)), range(n(a2, c, b)),
                                   range(n(a3, a4, c))):
                for v, s in rights:
                    for p, r, t in product(range(n(v, a4, d)), range(n(s, a3, v)),
                                           range(n(a1, a2, s))):
                        lhs = [(((a2, c, b, a3, a4, u), (j, k, mm, nn)),
                                ((a1, b, d, u, a4, v), (i, mm, p, q)),
                                ((a1, u, v, a2, a3, s), (q, nn, r, t)))
                               for u in mids
                               for mm, nn, q in product(range(n(u, a4, b)),
                                                        range(n(a2, a3, u)),
                                                        range(n(a1, u, v)))]
                        rhs = [(((a1, b, d, a2, c, s), (i, j, l1, t)),
                                ((s, c, d, a3, a4, v), (l1, k, p, r)))
                               for l1 in range(n(s, c, d))]
                        yield ((a1, a2, a3, a4, d), (b, c, i, j, k, v, s, p, r, t),
                               lhs, rhs)


def pentagon_ring(name: str) -> FusionData:
    from tests.test_chiral import rep_a4_fusion
    if name == "rep_a4":
        return rep_a4_fusion()
    if name.startswith("lattice_"):
        return lattice_fusion(int(name[-1]))
    return load_fixture(name, strict=False).fusion


@pytest.mark.parametrize("name", REGULAR + MUTATIONS
                         + tuple(f"lattice_{k}" for k in range(1, 5)) + ("rep_a4",))
def test_pentagon_instances_match_the_full_label_scan(name):
    # the indexed trees must give the scan's instances in the scan's order:
    # the pentagon solver's equation order and solution lists depend on it
    fusion = pentagon_ring(name)
    got = list(fusion.pentagon_instances())
    assert got == list(scan_pentagon_instances(fusion))
    assert got


def s3_table_ring(name: str) -> FusionData:
    from tests.conftest import get_bundle
    from tests.test_chiral import rep_a4_fusion
    if name == "ising":
        return ising_fusion()
    if name == "fibonacci":
        return get_bundle("fibonacci").fusion
    if name == "z4":
        return lattice_fusion(2)
    return rep_a4_fusion()


class TestS3Table:
    """The S3 table every checker and solver reads: its space maps, canonical
    spaces and F keys stay inside the fusion ring."""

    @pytest.fixture(params=["ising", "fibonacci", "z4", "rep_a4"])
    def fusion(self, request) -> FusionData:
        return s3_table_ring(request.param)

    def test_space_maps_are_involutions(self, fusion):
        spaces = set(fusion.spaces())
        for space_map in (fusion.sigma12_space, fusion.sigma23_space):
            for space in spaces:
                assert space_map(space) in spaces
                assert space_map(space_map(space)) == space

    def test_space_maps_generate_s3(self, fusion):
        # the braid relation holds on labels: s12 s23 s12 = s23 s12 s23
        s12, s23 = fusion.sigma12_space, fusion.sigma23_space
        for space in fusion.spaces():
            assert s12(s23(s12(space))) == s23(s12(s23(space)))

    def test_canonical_spaces_in_order(self, fusion):
        spaces = set(fusion.spaces())
        e = fusion.unit
        for a in fusion.labels:
            got = fusion.canonical_spaces(a)
            assert got == ((e, a, a), (a, e, a), (a, fusion.dual[a], e))
            assert set(got) <= spaces

    def test_f_keys_admissible(self, fusion):
        admissible = set(admissible_tuples(fusion))
        for space in fusion.spaces():
            assert set(fusion.pairing_keys(space)) <= admissible
            assert set(fusion.normalization_keys(space)) <= admissible
        for a in fusion.labels:
            assert fusion.weight_key(a) in admissible

    def test_weight_key_slots_are_canonical(self, fusion):
        # F_a reassociates the skew module map and the vacuum channel of a'
        # into the module map and the vacuum channel of a
        for a in fusion.labels:
            b1, b5, b4, b2, b3, b6 = fusion.weight_key(a)
            module, skew, vacuum = fusion.canonical_spaces(a)
            assert (b1, b5, b4) == skew
            assert (b2, b3, b5) == fusion.canonical_spaces(fusion.dual[a])[2]
            assert (b6, b3, b4) == module
            assert (b1, b2, b6) == vacuum
            assert fusion.key_spaces(fusion.weight_key(a)) == (
                skew, fusion.canonical_spaces(fusion.dual[a])[2], module, vacuum)
