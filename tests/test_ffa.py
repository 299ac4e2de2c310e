import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fullfield import cyclotomic, ffa as ffa_mod
from fullfield.bundles import BundleError
from fullfield.chiral import ChiralData, fails
from fullfield.cyclotomic import CycField
from fullfield.fixtures import MUTATIONS, REGULAR, load_fixture
from fullfield.linalg import change_basis4, mat_mul, transpose
from fullfield.suites import run_suites
from tests.conftest import get_chiral


# every shipped bundle that loads strictly; mut_validate breaks a fusion rule
STRICT = REGULAR + tuple(name for name in MUTATIONS if name != "mut_validate")


class TestConstruct:
    def test_trivial_single_sector(self, trivial):
        ffa_mod.construct(trivial)
        section = ffa_mod.ffa_section(trivial)
        assert ffa_mod.sectors(trivial.fusion) == [("e", "e")]
        assert section["sectors"] == [["e", "e"]]
        assert [b["space"] for b in section["blocks"]] == [["e", "e", "e"]]
        assert trivial.dual_basis(("e", "e", "e")) == [[trivial.field.one()]]
        assert section["blocks"][0]["right"] == [[trivial.field.one().literal()]]

    def test_z2_sectors(self, z2):
        ffa_mod.construct(z2)
        assert ffa_mod.sectors(z2.fusion) == [("0", "0"), ("1", "1")]
        assert ffa_mod.ffa_section(z2)["sectors"] == [["0", "0"], ["1", "1"]]

    def test_ising_block_count(self):
        # construct builds every dual basis on the ChiralData it is given
        chiral = ChiralData(load_fixture("ising"))
        assert chiral._dual == {}
        ffa_mod.construct(chiral)
        assert set(chiral._dual) == set(chiral.spaces())
        section = ffa_mod.ffa_section(chiral)
        assert len(section["sectors"]) == 3
        assert len(section["blocks"]) == 10
        for block in section["blocks"]:
            want = chiral.dual_basis(tuple(block["space"]))
            assert block["right"] == [[v.literal() for v in row] for row in want]

    def test_refused_on_degenerate_pairing(self):
        chiral = ChiralData(load_fixture("mut_pairing"))
        with pytest.raises(BundleError, match="dual bases"):
            ffa_mod.construct(chiral)


class TestAssociativityStructure:
    def test_all_fixtures(self, fixture_name):
        chiral = get_chiral(fixture_name)
        ffa_mod.construct(chiral)
        assert not fails(ffa_mod.verify_associativity_structure(chiral))

    def test_equivalent_to_fusing_contraction(self, fixture_name):
        # the two contractions are two arrangements of the same identity and
        # must pass or fail together
        chiral = get_chiral(fixture_name)
        ffa_mod.construct(chiral)
        a = bool(fails(ffa_mod.verify_associativity_structure(chiral)))
        b = bool(fails(chiral.verify_prop_fusing()))
        assert a == b == False  # noqa: E712

    def test_equivalence_on_mutation(self):
        chiral = ChiralData(load_fixture("mut_assoc"))
        ffa_mod.construct(chiral)
        a = bool(fails(ffa_mod.verify_associativity_structure(chiral)))
        b = bool(fails(chiral.verify_prop_fusing()))
        assert a == b == True  # noqa: E712

    def test_non_dual_right_factors_fail(self):
        chiral = ChiralData(load_fixture("ising"))
        ffa_mod.construct(chiral)
        # replace one right factor with a non-dual basis
        chiral._dual[("sigma", "sigma", "eps")] = [[chiral.field.rational(2)]]
        bad = fails(ffa_mod.verify_associativity_structure(chiral))
        assert bad
        assert all(r.identity == "ffa-associativity" for r in bad)


@pytest.mark.parametrize("name", STRICT)
def test_ffa_assoc_records_repeat_fusing(name):
    # one contraction feeds both suites: the records agree up to the identity
    reports = {r.suite: r for r in run_suites(load_fixture(name), ("fusing", "ffa-assoc"))}
    fusing, assoc = reports["fusing"], reports["ffa-assoc"]
    assert bool(fusing.error) == bool(assoc.error)
    assert {r.identity for r in fusing.records} <= {"fusing-delta"}
    assert [replace(r, identity="fusing-delta") for r in assoc.records] == fusing.records


def test_run_suites_evaluates_fusing_delta_once(monkeypatch):
    calls = []
    real = ChiralData._dual_primed_block

    def counting(chiral, key6):
        calls.append(key6)
        return real(chiral, key6)

    monkeypatch.setattr(ChiralData, "_dual_primed_block", counting)
    ChiralData(load_fixture("ising")).verify_prop_fusing()
    once = len(calls)
    assert once > 0
    calls.clear()
    reports = run_suites(load_fixture("ising"))
    assert all(r.verdict == "pass" for r in reports)
    assert {"fusing", "ffa-assoc"} <= {r.suite for r in reports}
    # every primed block is moved to dual bases once, by one contraction
    assert len(calls) == once == len(set(calls))


def test_run_suites_constructs_once(monkeypatch):
    calls = []
    real = ffa_mod.construct

    def counting(chiral):
        calls.append(chiral)
        return real(chiral)

    monkeypatch.setattr(ffa_mod, "construct", counting)
    reports = run_suites(load_fixture("mut_pairing"))
    errors = {r.suite: r.error for r in reports
              if r.suite in ("ffa-assoc", "skew", "single-valued", "invariance", "unit")}
    want = ("construct: missing dual bases: pairing('sigma', 'eps', 'sigma'): "
            "singular pairing matrix")
    assert errors == dict.fromkeys(("ffa-assoc", "skew", "single-valued", "invariance",
                                    "unit"), want)
    assert len(calls) == 1


@pytest.mark.parametrize("name, solves, roots", [("ising", 1, 3), ("fibonacci", 1, 2)])
def test_run_suites_computes_each_exact_value_once(monkeypatch, name, solves, roots):
    # one general inverse solve per distinct multi-term F_a (the same one
    # is inverted by dual, s3, invariance and the pairing pivots), and one
    # square root per label; without the memos ising makes 11 solves and
    # 90 sqrt calls
    calls = {"solve": 0, "sqrt": 0}
    real_solve, real_sqrt = cyclotomic.solve, CycField.sqrt

    def counting_solve(*args):
        calls["solve"] += 1
        return real_solve(*args)

    def counting_sqrt(field, a):
        calls["sqrt"] += 1
        return real_sqrt(field, a)

    monkeypatch.setattr(cyclotomic, "solve", counting_solve)
    monkeypatch.setattr(CycField, "sqrt", counting_sqrt)
    reports = run_suites(load_fixture(name))
    assert all(r.verdict == "pass" for r in reports)
    assert calls == {"solve": solves, "sqrt": roots}


def test_mat_mul_names_both_shapes_on_a_mismatch():
    a = [[Fraction(1), Fraction(2), Fraction(3)]]
    b = [[Fraction(1)], [Fraction(1)]]
    with pytest.raises(ValueError, match="1x3 times 2x1"):
        mat_mul(a, b)
    assert mat_mul(a[:1], [[Fraction(1)]] * 3) == [[Fraction(6)]]


class TestChangeBasis4:
    # every shipped fixture has multiplicity 1, where a transposed slot
    # cannot show; this block has multiplicity 2 on all four slots
    MATS = ([[1, 2], [0, 1]], [[1, 0], [3, 1]], [[1, 1], [0, 2]], [[3, 1], [2, 1]])

    @staticmethod
    def block():
        rng = random.Random(4)
        return [[[[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(2)]
                  for _ in range(2)] for _ in range(2)] for _ in range(2)]

    @staticmethod
    def naive(blk, m1, m2, m3, m4):
        r2 = range(2)
        return [[[[sum(m1[ph][p] * m2[qh][q] * m3[r][rh] * m4[s][sh] * blk[ph][qh][rh][sh]
                       for ph in r2 for qh in r2 for rh in r2 for sh in r2)
                   for s in r2] for r in r2] for q in r2] for p in r2]

    def test_matches_nested_sum(self):
        mats = [[[Fraction(v) for v in row] for row in m] for m in self.MATS]
        blk = self.block()
        want = self.naive(blk, *mats)
        assert change_basis4(blk, *mats, Fraction(0)) == want
        for slot in range(4):
            flipped = list(mats)
            flipped[slot] = transpose(flipped[slot])
            assert change_basis4(blk, *flipped, Fraction(0)) != want, slot


class TestSkewStructure:
    def test_all_fixtures(self, fixture_name):
        chiral = get_chiral(fixture_name)
        ffa_mod.construct(chiral)
        assert not fails(ffa_mod.verify_skew_symmetry_structure(chiral))

    def test_z2_phases_in_field(self, z2):
        # the weight-shift phases have rational exponents realized exactly
        h = z2.fusion.weights
        delta = h["0"] - 2 * h["1"]
        assert delta == Fraction(-1, 2)
        phase = z2.field.root_of_unity(-delta.numerator, delta.denominator)
        assert phase * phase.conjugate() == z2.field.one()

    def test_broken_normalization_fails(self):
        chiral = ChiralData(load_fixture("mut_skew"))
        ffa_mod.construct(chiral)
        assert fails(ffa_mod.verify_skew_symmetry_structure(chiral))


class TestSingleValuedness:
    def test_all_fixtures_zero_difference(self, fixture_name):
        chiral = get_chiral(fixture_name)
        ffa_mod.construct(chiral)
        recs = ffa_mod.verify_single_valuedness(chiral)
        assert not fails(recs)
        assert all(r.message == "weight difference 0" for r in recs)

    @staticmethod
    def shifted_z4(shift):
        # z4k2's labels 1 and 3 are a dual pair, so one side of their sectors
        # can move alone; a self-dual label (all of z2k1's) cannot
        bundle = load_fixture("z4k2")
        fusion = bundle.fusion
        assert fusion.dual["1"] == "3" and fusion.dual["3"] == "1"
        weights = {**fusion.weights, "3": fusion.weights["3"] + shift}
        chiral = ChiralData(replace(bundle, fusion=replace(fusion, weights=weights)))
        ffa_mod.construct(chiral)
        return {r.index: r for r in ffa_mod.verify_single_valuedness(chiral)}

    def test_integer_shift_passes(self):
        recs = self.shifted_z4(1)
        assert not fails(list(recs.values()))
        assert recs[("1", "3")].message == "weight difference -1"
        assert recs[("3", "1")].message == "weight difference 1"

    def test_third_shift_fails(self):
        recs = self.shifted_z4(Fraction(1, 3))
        assert {index for index, r in recs.items() if r.status == "fail"} == {
            ("1", "3"), ("3", "1")}
        assert recs[("3", "1")].message == "weight difference 1/3"


class TestFormWeights:
    @staticmethod
    def weights(chiral):
        ffa_mod.construct(chiral)
        return {tuple(w["sector"]): w["value"]
                for w in ffa_mod.ffa_section(chiral)["form_weights"]}

    def test_trivial(self, trivial):
        assert self.weights(trivial) == {("e", "e"): trivial.field.one().literal()}

    def test_z2_reads_canonical_weight(self, z2):
        weights = self.weights(z2)
        assert weights[("0", "0")] == z2.field.one().literal()
        assert weights[("1", "1")] == z2.f_a("1").literal()

    def test_ising_three_weights(self, ising):
        weights = self.weights(ising)
        assert list(weights) == ffa_mod.sectors(ising.fusion)
        for (a, _), w in weights.items():
            assert w == ising.f_a(a).literal()


class TestInvariance:
    def test_all_fixtures(self, fixture_name):
        chiral = get_chiral(fixture_name)
        ffa_mod.construct(chiral)
        assert not fails(ffa_mod.verify_invariance_structure(chiral))

    def test_weight_ratio_matters(self):
        chiral = ChiralData(load_fixture("mut_invariance"))
        ffa_mod.construct(chiral)
        bad = fails(ffa_mod.verify_invariance_structure(chiral))
        assert bad
        # every failing triple mixes sectors with distinct canonical weights
        for r in bad:
            a1, a2, a3 = r.index
            assert chiral.f_a(a2) != chiral.f_a(a3)


class TestUnitBlocks:
    def test_all_fixtures(self, fixture_name):
        chiral = get_chiral(fixture_name)
        ffa_mod.construct(chiral)
        assert not fails(ffa_mod.verify_unit_blocks(chiral))


class TestBasisIndependence:
    @pytest.mark.parametrize("name", ["ising", "fibonacci", "z4k2"])
    def test_randomized_basis_change(self, name):
        # the canonical element is basis independent: transporting the bundle
        # by an invertible change on non-canonical spaces transports the
        # structure tensor by the same change and keeps every suite green
        bundle = load_fixture(name)
        chiral = ChiralData(bundle)
        ffa_mod.construct(chiral)
        rng = random.Random(20260808)
        changes = {}
        for space in chiral.spaces():
            if space in bundle.canonical:
                continue
            dim = chiral.dim(space)
            scale = bundle.field.rational(Fraction(rng.choice((1, 2, 3, -2)),
                                                   rng.choice((1, 2))))
            changes[space] = [[scale if i == j else bundle.field.zero()
                               for j in range(dim)] for i in range(dim)]
        moved = ffa_mod.transport_bundle(bundle, changes)
        chiral2 = ChiralData(moved)
        ffa_mod.construct(chiral2)
        assert not fails(ffa_mod.verify_associativity_structure(chiral2))
        assert not fails(ffa_mod.verify_skew_symmetry_structure(chiral2))
        assert not fails(ffa_mod.verify_invariance_structure(chiral2))
        # the canonical element transports covariantly: D' = B^-1-weighted D
        for space, b in changes.items():
            d_old = chiral.dual_basis(space)
            d_new = chiral2.dual_basis(space)
            pr = chiral.primed(space)
            bpr = changes.get(pr)
            # mult-free fixtures: scalars; D' = D / (b * bpr)
            got = d_new[0][0] * b[0][0] * bpr[0][0]
            assert got == d_old[0][0]


def test_ffa_section_shape(trivial):
    ffa_mod.construct(trivial)
    section = ffa_mod.ffa_section(trivial)
    assert section["sectors"] == [["e", "e"]]
    assert section["blocks"][0]["space"] == ["e", "e", "e"]
    assert section["form_weights"][0]["value"] == [[0, 1, 1]]
