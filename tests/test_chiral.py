import random
from fractions import Fraction
from itertools import product

from fullfield.bundles import Bundle
from fullfield.chiral import CheckRecord, ChiralData, fails
from fullfield.cyclotomic import CycField
from fullfield.fixtures import load_fixture
from fullfield.fusion import FusionData
from fullfield.linalg import identity, mat_mul, transpose
from fullfield.suites import reports_to_obj, run_suites
from tests.conftest import get_chiral


class TestPentagon:
    def test_trivial_passes(self, trivial):
        assert not fails(trivial.verify_pentagon())

    def test_all_fixtures_pass(self, fixture_name):
        assert not fails(get_chiral(fixture_name).verify_pentagon())

    def test_negated_entry_located(self):
        chiral = ChiralData(load_fixture("mut_pentagon"))
        bad = fails(chiral.verify_pentagon())
        assert bad
        # the fail records carry the full label tuple of each instance
        assert all(len(r.index) >= 5 for r in bad)

    def test_multiplicity_two_matches_nested_loops(self):
        # Rep(A4) has N(3,3;3) = 2, so every multiplicity index is exercised;
        # a random F fails most instances, each of which must be located
        chiral = ChiralData(random_f_bundle(rep_a4_fusion(), CycField(4), seed=7))
        want = [rec for cell in product(chiral.fusion.labels, repeat=5)
                for rec in nested_pentagon_cell(chiral, *cell)]
        got = chiral.verify_pentagon()
        assert got == want
        # failing instances at multiplicity index 1 exist, and so do passing cells
        assert any(1 in r.index[7:] for r in fails(got))
        assert any(r.status == "pass" for r in got)


def rep_a4_fusion() -> FusionData:
    """Rep(A4): three characters 1, w, w2 (w2 = w') and the 3-dimensional 3."""
    chars = ("1", "w", "w2")
    rules = {(chars[i], chars[j], chars[(i + j) % 3]): 1 for i in range(3) for j in range(3)}
    for x in chars:
        rules[(x, "3", "3")] = rules[("3", x, "3")] = rules[("3", "3", x)] = 1
    rules[("3", "3", "3")] = 2
    return FusionData(labels=("1", "w", "w2", "3"), unit="1",
                      dual={"1": "1", "w": "w2", "w2": "w", "3": "3"},
                      weights=dict.fromkeys(("1", "w", "w2", "3"), Fraction(0)), rules=rules)


def random_f_bundle(fusion: FusionData, field: CycField, seed: int) -> Bundle:
    """Every admissible F entry drawn at random from small Gaussian integers."""
    rng = random.Random(seed)
    n = fusion.n
    f = {}
    for b1, b5, b4, b2, b3, b6 in product(fusion.labels, repeat=6):
        dims = (n(b1, b5, b4), n(b2, b3, b5), n(b6, b3, b4), n(b1, b2, b6))
        for mults in product(*map(range, dims)):
            f[((b1, b5, b4, b2, b3, b6), mults)] = field.scalar(
                {0: rng.randint(-2, 2), 1: rng.randint(-2, 2)})
    return Bundle(field=field, fusion=fusion, f=f, sigma12={}, sigma23={}, canonical={})


def nested_pentagon_cell(chiral: ChiralData, a1, a2, a3, a4, d) -> list[CheckRecord]:
    """Reference: one pentagon cell written out as nested loops over the
    trees (b, c), (v, s), the summed label u and every multiplicity index."""
    labels = chiral.fusion.labels
    n = chiral.fusion.n
    f = chiral.bundle.f_entry
    zero = chiral.field.zero()
    lefts = [(b, c) for b in labels for c in labels
             if n(a1, b, d) and n(a2, c, b) and n(a3, a4, c)]
    rights = [(v, s) for v in labels for s in labels
              if n(v, a4, d) and n(s, a3, v) and n(a1, a2, s)]
    if not lefts or not rights:
        return []
    bad = []
    for b, c in lefts:
        for i in range(n(a1, b, d)):
            for j in range(n(a2, c, b)):
                for kk in range(n(a3, a4, c)):
                    for v, s in rights:
                        for p in range(n(v, a4, d)):
                            for r in range(n(s, a3, v)):
                                for t in range(n(a1, a2, s)):
                                    lhs = zero
                                    for u in labels:
                                        for mm in range(n(u, a4, b)):
                                            for nn in range(n(a2, a3, u)):
                                                for q in range(n(a1, u, v)):
                                                    lhs = lhs + (
                                                        f((a2, c, b, a3, a4, u), (j, kk, mm, nn))
                                                        * f((a1, b, d, u, a4, v), (i, mm, p, q))
                                                        * f((a1, u, v, a2, a3, s), (q, nn, r, t)))
                                    rhs = zero
                                    for l1 in range(n(s, c, d)):
                                        rhs = rhs + (f((a1, b, d, a2, c, s), (i, j, l1, t))
                                                     * f((s, c, d, a3, a4, v), (l1, kk, p, r)))
                                    if lhs != rhs:
                                        bad.append((b, c, i, j, kk, v, s, p, r, t))
    if bad:
        return [CheckRecord("pentagon", (a1, a2, a3, a4, d) + idx, "fail",
                            message="reassociation mismatch") for idx in bad]
    return [CheckRecord("pentagon", (a1, a2, a3, a4, d), "pass")]


class TestCanonicalWeight:
    def test_trivial_unit(self, trivial):
        assert trivial.f_a("e") == trivial.field.one()

    def test_z2_matches_oracle_fixture(self, z2):
        # the lattice four-point oracle produced this very entry
        from fullfield.lattice import CanonicalGauge, LatticeModel, derive_f_entry
        val = derive_f_entry(CanonicalGauge(LatticeModel(1)), (1, 0, 1, 1, 1, 0), 8)
        assert z2.f_a("1") == z2.field.rational(val)

    def test_ising_self_dual_equality(self, ising):
        assert ising.f_a("sigma") == ising.f_a("sigma")
        sq = ising.f_a("sigma") * ising.f_a("sigma")
        assert sq == ising.field.rational(Fraction(1, 2))

    def test_dual_equality_all_fixtures(self, fixture_name):
        chiral = get_chiral(fixture_name)
        for a in chiral.fusion.labels:
            assert chiral.f_a(a) == chiral.f_a(chiral.fusion.dual[a])

    def test_missing_entry_rejected(self):
        chiral = ChiralData(load_fixture("mut_pairing"))
        # the canonical weights themselves are intact on this mutation
        assert chiral.f_a("sigma")


def naive_pairing_entry(chiral: ChiralData, space, j: int, i: int):
    """Second, independent contraction of the pairing from raw tensors."""
    a1, a2, a3 = space
    d = chiral.fusion.dual
    e = chiral.fusion.unit
    pr = (d[a1], d[a2], d[a3])
    s23 = chiral.bundle.sigma23[pr]
    total = chiral.field.zero()
    for m in range(len(s23)):
        total = total + s23[m][i] * chiral.bundle.f_entry(
            (d[a1], a3, a2, a1, a2, e), (m, j, 0, 0))
    return total


class TestPairing:
    def test_module_map_pairs_to_one(self, fixture_name):
        chiral = get_chiral(fixture_name)
        e = chiral.fusion.unit
        for a in chiral.fusion.labels:
            assert chiral.pairing_matrix((e, a, a)) == [[chiral.field.one()]]

    def test_vacuum_channel_pairs_to_weight(self, fixture_name):
        chiral = get_chiral(fixture_name)
        e = chiral.fusion.unit
        for a in chiral.fusion.labels:
            ap = chiral.fusion.dual[a]
            assert chiral.pairing_matrix((a, ap, e)) == [[chiral.f_a(a)]]

    def test_ising_sigma_sigma_one_against_naive(self, ising):
        for space in ((("sigma", "sigma", "1")), ("sigma", "sigma", "eps")):
            got = ising.pairing_matrix(space)
            want = naive_pairing_entry(ising, space, 0, 0)
            assert got == [[want]]

    def test_symmetry(self, fixture_name):
        chiral = get_chiral(fixture_name)
        for space in chiral.fusion.spaces():
            g = chiral.pairing_matrix(space)
            gp = chiral.pairing_matrix(chiral.fusion.primed(space))
            assert gp == transpose(g)

    def test_two_expressions_disagreement_rejected(self):
        # needs a space distinct from its primed partner, so the two fusing
        # expressions see different adjoint matrices; the pairing-symmetry
        # records compare the two, at the space and at its primed partner
        bundle = load_fixture("z4k2")
        space = ("1", "1", "2")
        mat = bundle.sigma23[space]
        bundle.sigma23 = dict(bundle.sigma23)
        bundle.sigma23[space] = [[3 * v for v in row] for row in mat]
        assert ChiralData(bundle).pairing_matrix(space)
        reports = run_suites(bundle)
        assert not any(r.error for r in reports)
        pairing = next(r for r in reports if r.suite == "pairing")
        assert [(r.identity, r.index) for r in fails(pairing.records)] == [
            ("pairing-symmetry", ("1", "1", "2")), ("pairing-symmetry", ("3", "3", "2"))]
        assert reports_to_obj(reports, {})["verdict"] == "fail"

    def test_zero_space_empty_matrix(self, ising):
        assert ising.pairing_matrix(("sigma", "sigma", "sigma")) == []


class TestNondegeneracy:
    def test_all_fixtures(self, fixture_name):
        assert not fails(get_chiral(fixture_name).verify_nondegeneracy())

    def test_trivial_one_by_one(self, trivial):
        assert trivial.pairing_matrix(("e", "e", "e")) == [[trivial.field.one()]]

    def test_zeroed_sigma23_fails_at_space(self):
        chiral = ChiralData(load_fixture("mut_pairing"))
        bad = fails(chiral.verify_nondegeneracy())
        assert any(r.identity == "nondegeneracy" for r in bad)

    def test_dimension_symmetry(self, fixture_name):
        chiral = get_chiral(fixture_name)
        fusion = chiral.fusion
        for space in fusion.spaces():
            assert fusion.n(*space) == fusion.n(*fusion.primed(space))

    def test_left_inverse_normalization_nonzero(self, fixture_name):
        chiral = get_chiral(fixture_name)
        for a in chiral.fusion.labels:
            assert chiral.f_a(a)


class TestDualBasis:
    def test_duality_delta(self, fixture_name):
        chiral = get_chiral(fixture_name)
        one, zero = chiral.field.one(), chiral.field.zero()
        for space in chiral.fusion.spaces():
            g = chiral.pairing_matrix(space)
            dm = chiral.dual_basis(space)
            assert mat_mul(g, dm) == identity(len(g), one, zero)

    def test_canonical_duals(self, fixture_name):
        chiral = get_chiral(fixture_name)
        e = chiral.fusion.unit
        one = chiral.field.one()
        for a in chiral.fusion.labels:
            ap = chiral.fusion.dual[a]
            assert chiral.dual_basis((e, a, a)) == [[one]]
            assert chiral.dual_basis((a, e, a)) == [[one]]
            assert chiral.dual_basis((a, ap, e)) == [[chiral.f_a(a).inverse()]]

    def test_ising_multiply_back(self, ising):
        space = ("sigma", "sigma", "eps")
        g = ising.pairing_matrix(space)
        dm = ising.dual_basis(space)
        assert g[0][0] * dm[0][0] == ising.field.one()

    def test_doubled_coefficient_fails_fusing(self):
        chiral = ChiralData(load_fixture("mut_fusing"))
        assert fails(chiral.verify_prop_fusing())


class TestPropFusing:
    def test_trivial_single_terms(self, trivial):
        assert not fails(trivial.verify_prop_fusing())

    def test_all_fixtures_exact(self, fixture_name):
        assert not fails(get_chiral(fixture_name).verify_prop_fusing())


class TestModifiedForm:
    def test_trivial_all_ones(self, trivial):
        mat, path = trivial.modified_form(("e", "e", "e"))
        assert path == "exact"
        assert mat == [[trivial.field.one()]]

    def test_z2_exact_path(self, z2):
        # the canonical weights are units, so their roots stay in the field
        for space in z2.fusion.spaces():
            _, path = z2.modified_form(space)
            assert path == "exact"

    def test_ising_numeric_path_cross_checked(self, ising):
        # sqrt(F_sigma) = 2^(-1/4) is outside Q(zeta_32): numeric fallback
        mat, path = ising.modified_form(("sigma", "sigma", "eps"))
        assert path == "numeric"
        g = ising.pairing_matrix(("sigma", "sigma", "eps"))
        _, s_eps = ising.sqrt_f("eps")
        _, s_sig = ising.sqrt_f("sigma")
        want = s_eps / (s_sig * s_sig) * complex(g[0][0])
        assert abs(mat[0][0] - want) < 1e-12

    def test_sqrt_f_square_roundtrip(self, fixture_name):
        chiral = get_chiral(fixture_name)
        for a in chiral.fusion.labels:
            exact, approx = chiral.sqrt_f(a)
            fa = complex(chiral.f_a(a))
            assert abs(approx * approx - fa) < 1e-12
            if exact is not None:
                assert exact * exact == chiral.f_a(a)


class TestS3:
    def test_relations_all_fixtures(self, fixture_name):
        assert not fails(get_chiral(fixture_name).verify_s3_relations())

    def test_invariance_all_fixtures(self, fixture_name):
        assert not fails(get_chiral(fixture_name).verify_s3_invariance())

    def test_sigma23_factor_z2(self, z2):
        # the unmodified pairing picks up exactly the canonical-weight ratio
        recs = [r for r in z2.verify_s3_invariance()
                if r.identity == "sigma23-pairing-factor"]
        assert recs and all(r.status == "pass" for r in recs)

    def test_broken_normalization_fails(self):
        chiral = ChiralData(load_fixture("mut_s3"))
        assert fails(chiral.verify_s3_relations())
