import random
from fractions import Fraction

import pytest

from fullfield import cyclotomic, ffa as ffa_mod
from fullfield.bundles import BundleError
from fullfield.chiral import ChiralData, fails
from fullfield.cyclotomic import CycField
from fullfield.fixtures import load_fixture
from fullfield.linalg import change_basis4, transpose
from fullfield.suites import run_suites
from tests.conftest import get_chiral


class TestConstruct:
    def test_trivial_single_sector(self, trivial):
        structure = ffa_mod.construct(trivial)
        assert structure.sectors == [("e", "e")]
        assert list(structure.blocks) == [("e", "e", "e")]
        assert structure.blocks[("e", "e", "e")] == [[trivial.field.one()]]

    def test_z2_sectors(self, z2):
        structure = ffa_mod.construct(z2)
        assert structure.sectors == [("0", "0"), ("1", "1")]

    def test_ising_block_count(self, ising):
        structure = ffa_mod.construct(ising)
        assert len(structure.sectors) == 3
        assert len(structure.blocks) == 10

    def test_refused_on_degenerate_pairing(self):
        chiral = ChiralData(load_fixture("mut_pairing"))
        with pytest.raises(BundleError, match="dual bases"):
            ffa_mod.construct(chiral)


class TestAssociativityStructure:
    def test_all_fixtures(self, fixture_name):
        structure = ffa_mod.construct(get_chiral(fixture_name))
        assert not fails(ffa_mod.verify_associativity_structure(structure))

    def test_equivalent_to_fusing_contraction(self, fixture_name):
        # the two contractions are two arrangements of the same identity and
        # must pass or fail together
        chiral = get_chiral(fixture_name)
        structure = ffa_mod.construct(chiral)
        a = bool(fails(ffa_mod.verify_associativity_structure(structure)))
        b = bool(fails(chiral.verify_prop_fusing()))
        assert a == b == False  # noqa: E712

    def test_equivalence_on_mutation(self):
        chiral = ChiralData(load_fixture("mut_assoc"))
        structure = ffa_mod.construct(chiral)
        a = bool(fails(ffa_mod.verify_associativity_structure(structure)))
        b = bool(fails(chiral.verify_prop_fusing()))
        assert a == b == True  # noqa: E712

    def test_non_dual_right_factors_fail(self):
        chiral = ChiralData(load_fixture("ising"))
        structure = ffa_mod.construct(chiral)
        # replace one right factor with a non-dual basis
        structure.blocks[("sigma", "sigma", "eps")] = [[chiral.field.rational(2)]]
        assert fails(ffa_mod.verify_associativity_structure(structure))


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
        structure = ffa_mod.construct(get_chiral(fixture_name))
        assert not fails(ffa_mod.verify_skew_symmetry_structure(structure))

    def test_z2_phases_in_field(self, z2):
        # the weight-shift phases have rational exponents realized exactly
        h = z2.fusion.weights
        delta = h["0"] - 2 * h["1"]
        assert delta == Fraction(-1, 2)
        phase = z2.field.root_of_unity(-delta.numerator, delta.denominator)
        assert phase * phase.conjugate() == z2.field.one()

    def test_broken_normalization_fails(self):
        chiral = ChiralData(load_fixture("mut_skew"))
        structure = ffa_mod.construct(chiral)
        assert fails(ffa_mod.verify_skew_symmetry_structure(structure))


class TestSingleValuedness:
    def test_all_fixtures_zero_difference(self, fixture_name):
        structure = ffa_mod.construct(get_chiral(fixture_name))
        recs = ffa_mod.verify_single_valuedness(structure)
        assert not fails(recs)
        assert all("0" in r.message for r in recs)

    def test_integer_shift_passes(self, z2):
        structure = ffa_mod.construct(z2)
        structure.right_weights = {a: w + 1 for a, w in structure.right_weights.items()}
        assert not fails(ffa_mod.verify_single_valuedness(structure))

    def test_third_shift_fails(self, z2):
        structure = ffa_mod.construct(z2)
        structure.right_weights = {a: w + Fraction(1, 3)
                                   for a, w in structure.right_weights.items()}
        assert fails(ffa_mod.verify_single_valuedness(structure))


class TestFormWeights:
    def test_trivial(self, trivial):
        structure = ffa_mod.construct(trivial)
        assert structure.form_weights == {("e", "e"): trivial.field.one()}

    def test_z2_reads_canonical_weight(self, z2):
        structure = ffa_mod.construct(z2)
        weights = structure.form_weights
        assert weights[("0", "0")] == z2.field.one()
        assert weights[("1", "1")] == z2.f_a("1")

    def test_ising_three_weights(self, ising):
        structure = ffa_mod.construct(ising)
        weights = structure.form_weights
        assert len(weights) == 3
        for (a, _), w in weights.items():
            assert w == ising.f_a(a)


class TestInvariance:
    def test_all_fixtures(self, fixture_name):
        structure = ffa_mod.construct(get_chiral(fixture_name))
        assert not fails(ffa_mod.verify_invariance_structure(structure))

    def test_weight_ratio_matters(self):
        chiral = ChiralData(load_fixture("mut_invariance"))
        structure = ffa_mod.construct(chiral)
        bad = fails(ffa_mod.verify_invariance_structure(structure))
        assert bad
        # every failing triple mixes sectors with distinct canonical weights
        for r in bad:
            a1, a2, a3 = r.index
            assert chiral.f_a(a2) != chiral.f_a(a3)


class TestUnitBlocks:
    def test_all_fixtures(self, fixture_name):
        structure = ffa_mod.construct(get_chiral(fixture_name))
        assert not fails(ffa_mod.verify_unit_blocks(structure))


class TestBasisIndependence:
    @pytest.mark.parametrize("name", ["ising", "fibonacci", "z4k2"])
    def test_randomized_basis_change(self, name):
        # the canonical element is basis independent: transporting the bundle
        # by an invertible change on non-canonical spaces transports the
        # structure tensor by the same change and keeps every suite green
        bundle = load_fixture(name)
        chiral = ChiralData(bundle)
        structure = ffa_mod.construct(chiral)
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
        structure2 = ffa_mod.construct(chiral2)
        assert not fails(ffa_mod.verify_associativity_structure(structure2))
        assert not fails(ffa_mod.verify_skew_symmetry_structure(structure2))
        assert not fails(ffa_mod.verify_invariance_structure(structure2))
        # the canonical element transports covariantly: D' = B^-1-weighted D
        for space, b in changes.items():
            d_old = structure.blocks[space]
            d_new = structure2.blocks[space]
            pr = chiral.primed(space)
            bpr = changes.get(pr)
            # mult-free fixtures: scalars; D' = D / (b * bpr)
            got = d_new[0][0] * b[0][0] * bpr[0][0]
            assert got == d_old[0][0]


def test_ffa_section_shape(trivial):
    structure = ffa_mod.construct(trivial)
    section = ffa_mod.ffa_section(structure)
    assert section["sectors"] == [["e", "e"]]
    assert section["blocks"][0]["space"] == ["e", "e", "e"]
    assert section["form_weights"][0]["value"] == [[0, 1, 1]]
