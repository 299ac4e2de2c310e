import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from fullfield.bundles import bundle_to_obj, canonical_bytes
from fullfield.chiral import ChiralData, fails
from fullfield.lattice import (
    CanonicalGauge,
    DiagonalFFA,
    LatticeModel,
    LatticeSpec,
    OracleError,
    check_associativity,
    check_grading_axioms,
    check_jacobi_residues,
    check_residue_lemma,
    check_skew_symmetry,
    check_virasoro,
    chiral_io_apply,
    derive_f_entry,
    emit_bundle,
    lattice_fusion,
    raw_f_ratio,
)
from fullfield.fixtures import fixture_bytes
from fullfield.lattice import checks
from fullfield.lattice.checks import (SectorBasis, _commutator_holds, _laurent_slice,
                                      _paired_exponents_integral, seeded_states, zpow)
from fullfield.lattice.model import vec_add, vec_scale
from fullfield.lattice.oracle import _fit_pattern, residue_extraction
from fullfield.solver import SolverError
from tests.conftest import get_bundle
from tests.test_solver import SIGMA_KINDS

M1 = LatticeModel(1)
M2 = LatticeModel(2)


class TestModelBasics:
    def test_sector_weights(self):
        assert M1.sector_weight(0) == 0
        assert M1.sector_weight(1) == Fraction(1, 4)
        assert M2.sector_weight(1) == Fraction(1, 8)
        assert M2.sector_weight(2) == Fraction(1, 2)
        assert M2.sector_weight(3) == Fraction(1, 8)

    def test_min_reps(self):
        assert [M2.min_rep(j) for j in range(4)] == [0, 1, 2, -1]

    def test_state_weight(self):
        assert M1.state_weight(((2, 1), 3)) == Fraction(9, 4) + 3

    def test_alpha_commutator(self):
        vec = {((3,), 1): Fraction(1)}
        lhs = M1.alpha(3, M1.alpha(-3, vec))
        rhs = M1.alpha(-3, M1.alpha(3, vec))
        diff = vec_add(lhs, vec_scale(rhs, Fraction(-1)))
        # [a(3), a(-3)] = 3 * <alpha, alpha> = 6 at k = 1
        assert diff == vec_scale(vec, Fraction(6))


class TestVirasoro:
    @pytest.mark.parametrize("key", [((), 0), ((1,), 0), ((2, 1), 0),
                                     ((), 1), ((1,), 1), ((), -1), ((3,), 2)])
    def test_bracket_with_central_charge_one(self, key):
        vec = {key: Fraction(1)}
        w = M1.state_weight(key)
        cap = w + 6
        for mm, nn in ((1, -1), (2, -2), (0, 1), (-1, 2)):
            x1 = M1.virasoro(mm, M1.virasoro(nn, vec, cap), cap)
            x2 = M1.virasoro(nn, M1.virasoro(mm, vec, cap), cap)
            comm = vec_add(x1, vec_scale(x2, Fraction(-1)))
            want = vec_scale(M1.virasoro(mm + nn, vec, cap), Fraction(mm - nn))
            if mm + nn == 0:
                want = vec_add(want, vec_scale(vec, Fraction(mm ** 3 - mm, 12)))
            assert comm == want

    def test_lowest_states_are_primary(self):
        for q in (-3, -1, 0, 1, 2):
            vec = M1.charged(q)
            assert M1.virasoro(1, vec, None) == {}
            assert M1.virasoro(2, vec, None) == {}
            assert M1.virasoro(0, vec, None) == (
                {} if q == 0 else vec_scale(vec, M1.state_weight(((), q))))

    @pytest.mark.parametrize("n", [0, 2, -2])
    def test_exp_virasoro_rejects_other_modes(self, n):
        with pytest.raises(ValueError, match=f"got n = {n}$"):
            M1.exp_virasoro(n, Fraction(1), M1.charged(1), 4)


class TestContragredientPairing:
    def test_heisenberg_norm(self):
        x = M1.alpha(-1, M1.charged(-1))
        y = M1.alpha(-1, M1.charged(1))
        # <a(-1) e', a(-1) e> = -1 * (1 * 2k) with the parity sign
        assert M1.pair(x, y) == -2

    def test_orthogonal_partitions(self):
        x = M1.alpha(-2, M1.charged(-1))
        y = M1.alpha(-1, M1.alpha(-1, M1.charged(1)))
        assert M1.pair(x, y) == 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_adjoint_property_exact(self, k):
        # <Y(v, x) w', w> = <w', Y(e^{xL(1)} (-x^-2)^{L(0)} v, 1/x) w>
        model = LatticeModel(k)
        T = 8
        vs = [model.vacuum(), model.alpha(-1, model.vacuum()),
              model.alpha(-2, model.vacuum()), model.charged(2 * k),
              model.alpha(-1, model.charged(-2 * k))]
        probes = []
        for j in range(2 * k):
            q = model.min_rep(j)
            probes.append((model.charged(-q), model.charged(q)))
            probes.append((model.alpha(-1, model.charged(-q)), model.charged(q)))
            probes.append((model.charged(-q - 2 * k), model.charged(q)))
        for v in vs:
            wv = model.vec_weight(v)
            for wp, w in probes:
                lhs = {}
                for mm, vec in model.components(v, wp, T).items():
                    val = model.pair(vec, w)
                    if val:
                        lhs[mm - wv - model.vec_weight(wp)] = val
                rhs = {}
                sign0 = (-1) ** int(wv)
                piece = dict(v)
                fact = Fraction(1)
                ell = 0
                while piece:
                    for mm, vec in model.components(piece, w, T).items():
                        val = model.pair(wp, vec)
                        if val:
                            e = (ell - 2 * int(wv)) + (wv - ell + model.vec_weight(w) - mm)
                            rhs[e] = rhs.get(e, Fraction(0)) + val * sign0 / fact
                    ell += 1
                    fact *= ell
                    piece = model.virasoro(1, piece, None)
                # compare where both sides are complete under the truncation
                lo = model.vec_weight(w) - wv - T
                hi = T - wv - model.vec_weight(wp)
                for e in set(lhs) | set(rhs):
                    if lo <= e <= hi:
                        assert lhs.get(e, Fraction(0)) == rhs.get(e, Fraction(0)), (v, wp, w, e)


class TestComponents:
    def test_charged_on_charged_leading(self):
        # the half-lattice insertion on its inverse: leading power z^{-1/2}
        comps = M1.components(M1.charged(1), M1.charged(-1), 4)
        assert comps[Fraction(0)] == {((), 0): Fraction(1)}
        assert comps[Fraction(1)] == {((1,), 0): Fraction(1, 2)}
        assert comps[Fraction(2)] == {((2,), 0): Fraction(1, 4),
                                      ((1, 1), 0): Fraction(1, 8)}
        wts = {m - Fraction(1, 2) for m in comps}
        assert min(wts) == Fraction(-1, 2)

    def test_identity_property(self):
        v = M1.alpha(-2, M1.charged(1))
        comps = M1.components(M1.vacuum(), v, 6)
        assert comps == {M1.vec_weight(v): v}

    def test_creation_property(self):
        u = M1.alpha(-1, M1.charged(1))
        comps = M1.components(u, M1.vacuum(), 6)
        wtu = M1.vec_weight(u)
        assert all(m >= wtu for m in comps)
        assert comps[wtu] == u

    def test_truncation_consistency(self):
        u = M1.alpha(-1, M1.charged(1))
        v = M1.alpha(-2, M1.charged(-1))
        small = M1.components(u, v, 5)
        big = M1.components(u, v, 9)
        for m, vec in small.items():
            assert big[m] == vec

    def test_sector_mismatch_is_zero_operator(self):
        # pairing a fractional-point insertion against nothing in the target
        comps = M1.components(M1.charged(1), M1.charged(2), 6)
        assert all(key[1] == 3 for vec in comps.values() for key in vec)

    def test_components_digest_pinned(self):
        # exact values pinned by digest: every component over charged, dressed
        # and 3/2-weighted states (shifted charges included), k = 1..4, T = 1..9
        digest = hashlib.sha256()
        for k in range(1, 5):
            model = LatticeModel(k)
            states = []
            for q in (model.min_rep(1), model.min_rep(-1), model.min_rep(1) - model.two_k):
                c = model.charged(q)
                mixed = vec_scale(model.alpha(-2, model.alpha(-1, c)), Fraction(3, 2))
                states += [c, model.alpha(-1, c), vec_add(c, mixed)]
            for T in range(1, 10):
                for i, u in enumerate(states):
                    for j, v in enumerate(states):
                        comps = model.components(u, v, T)
                        for m in sorted(comps):
                            for key in sorted(comps[m]):
                                c = comps[m][key]
                                assert type(m) is Fraction and type(c) is Fraction
                                digest.update(f"{k} {T} {i} {j} {m} {key} {c}\n".encode())
        assert digest.hexdigest() == (
            "6c898da85bbe7f636e944deaa1035cdfc8e4fda6d3ddaaf610c2ce811a91442c")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_coefficient_is_the_components_entry(self, k):
        # the single-entry read equals the full component map's entry, on
        # integer basis pairs and on Fraction-weighted mixed-charge vectors;
        # a key above the cutoff and a key of an unreached charge read 0
        model = LatticeModel(k)
        qs = (model.min_rep(1), model.min_rep(1) - model.two_k, model.min_rep(-1))
        keys = [(parts, q) for q in qs for parts in ((), (1,), (2, 1))]
        mixed = vec_add(vec_scale(model.alpha(-1, model.charged(qs[0])), Fraction(3, 2)),
                        vec_scale(model.charged(qs[1]), Fraction(-2, 5)))
        dressed = vec_add(model.alpha(-2, model.charged(qs[2])),
                          vec_scale(model.charged(qs[1]), Fraction(1, 7)))
        vectors = [{key: 1} for key in keys] + [mixed, dressed]
        for T in (1, 4, 7, 10):
            for u in vectors:
                for v in vectors:
                    comps = model.components(u, v, T)
                    for key in [key for vec in comps.values() for key in vec]:
                        got = model.coefficient(u, v, key, T)
                        assert type(got) is Fraction
                        assert got == comps[model.state_weight(key)][key], (k, T, u, v, key)
                    charges = {qu + qv for _, qu in u for _, qv in v}
                    for q in charges:
                        assert model.coefficient(u, v, ((T + 1,), q), T) == 0
                    assert model.coefficient(u, v, ((), max(charges) + 1), T) == 0


F_TABLE_SHA256 = {
    1: "cc265a86d09a1b6a9af38c47046e9e74c82f5028a5dbd24d3afe44077cd86879",
    2: "bbaf107e981422740a214d6aad9707a57734786a02a1291898c83a72512de9a6",
    3: "2bf82919e7d47405b2dc95042e65682dd56085aab563e5f51885d9467e05d8db",
    4: "c8dcbb426ed30dbe2acbd5d00acef96de9e47bf321e134067fde5b66fb37f012",
}


class TestOracle:
    def test_vacuum_labels_give_one(self):
        assert derive_f_entry(CanonicalGauge(M1), (0, 0, 0, 0, 0, 0), 8) == 1

    def test_channel_consistency_required(self):
        with pytest.raises(ValueError, match="channel-consistent"):
            derive_f_entry(CanonicalGauge(M1), (1, 1, 1, 1, 1, 1), 8)

    def test_f_dual_equality(self):
        gauge = CanonicalGauge(LatticeModel(2))
        for a in range(4):
            ap = (-a) % 4
            fa = derive_f_entry(gauge, (a, 0, a, ap, a, 0), 8)
            fap = derive_f_entry(gauge, (ap, 0, ap, a, ap, 0), 8)
            assert fa == fap

    @pytest.mark.parametrize("k, minus", [
        (1, {(1, 1)}),
        (2, {(3, 1)}),
        (3, {(1, 5), (2, 4), (3, 3), (5, 1)}),
        (4, {(5, 3), (7, 1)}),
    ])
    def test_gauge_sign_table(self, k, minus):
        # the canonical gauge is a rational sign table: -1 on ``minus``
        g = CanonicalGauge(LatticeModel(k)).g
        assert all(type(v) is Fraction for v in g.values())
        assert g == {(i, j): Fraction(-1 if (i, j) in minus else 1)
                     for i in range(2 * k) for j in range(2 * k)}

    @pytest.mark.parametrize("k", sorted(F_TABLE_SHA256))
    def test_f_table_pinned(self, k):
        # every channel-consistent entry at T = 8, k = 3 and 4 included,
        # which no fixture holds
        gauge = CanonicalGauge(LatticeModel(k))
        n = 2 * k
        rows = []
        for b1 in range(n):
            for b2 in range(n):
                for b3 in range(n):
                    key = (b1, (b2 + b3) % n, (b1 + b2 + b3) % n, b2, b3, (b1 + b2) % n)
                    rows.append((key, derive_f_entry(gauge, key, 8)))
        text = "\n".join(f"{key} {val}" for key, val in sorted(rows))
        assert hashlib.sha256(text.encode()).hexdigest() == F_TABLE_SHA256[k]

    def test_fit_pattern_can_fail(self):
        gamma, c = Fraction(3, 4), Fraction(-5, 3)
        for alternating in (True, False):
            sign = -1 if alternating else 1
            series = {}
            b = Fraction(1)
            for t in range(6):
                series[t] = c * b * sign ** t
                b = b * (gamma - t) / (t + 1)
            assert _fit_pattern(series, gamma, alternating) == c
            for t in (1, 2):
                assert _fit_pattern({**series, t: series[t] + 1}, gamma, alternating) is None
            assert _fit_pattern({t: v for t, v in series.items() if t}, gamma,
                                alternating) is None
            assert _fit_pattern(series, gamma + 1, alternating) is None
            assert _fit_pattern(series, gamma, not alternating) is None

    def test_residue_extraction_rejects_a_non_integer_level(self):
        # charge 2 is not a dual state of sector 1 for k = 2: weight 1/2 lies
        # 3/8 above h = 1/8
        m = LatticeModel(2)
        with pytest.raises(OracleError, match=r"sector 1: dual piece of weight 1/2"):
            residue_extraction(m, 1, m.charged(2), m.charged(1), 8)

    def test_skew_rejects_a_non_integer_exponent(self, monkeypatch):
        # a charged "vacuum" gives the module map a half-integer exponent
        m = LatticeModel(1)
        monkeypatch.setattr(m, "vacuum", lambda: m.charged(1))
        with pytest.raises(OracleError, match=r"module map of sector 1: exponent 1/2"):
            CanonicalGauge(m)

    def test_unstable_truncation_raises(self):
        with pytest.raises(OracleError, match=r"fusing ratio for sectors \(1,1,1\)"):
            raw_f_ratio(LatticeModel(2), 1, 1, 1, T=2)

    @pytest.mark.parametrize("k, name", [(1, "z2k1"), (2, "z4k2")])
    def test_emitted_bundle_bytes_are_shipped_fixture(self, k, name):
        bundle = emit_bundle(LatticeSpec(k, 8), seed=1)
        assert canonical_bytes(bundle_to_obj(bundle)) == fixture_bytes(name)

    def test_emitted_bundles_pass_every_suite(self):
        from fullfield.suites import run_suites

        for k in (1, 2, 4):
            bundle = emit_bundle(LatticeSpec(k, 8))
            reports = run_suites(bundle)
            assert all(r.verdict == "pass" for r in reports), [
                (k, r.suite, r.verdict) for r in reports]

    def test_k3_has_no_s3_action(self):
        # the k = 3 tensor passes the pentagon suite, but its sigma
        # constraints contradict each other (ROADMAP item 4); fail loudly
        with pytest.raises(SolverError, match="no S3 action") as info:
            emit_bundle(LatticeSpec(3, 8))
        # the first contradicted equation, in search order, is named
        assert info.value.conflict["kind"] in SIGMA_KINDS
        assert info.value.conflict["space"] in lattice_fusion(3).spaces()


def z2_ffa(truncation: int) -> DiagonalFFA:
    return DiagonalFFA(LatticeSpec(1, truncation), bundle=get_bundle("z2k1"))


class TestExactChecks:
    def test_grading_axioms(self):
        assert not fails(check_grading_axioms(z2_ffa(8)))

    def test_virasoro_suite(self):
        assert not fails(check_virasoro(z2_ffa(6)))

    @pytest.mark.parametrize("k, name", [(1, "z2k1"), (2, "z4k2")])
    def test_virasoro_bracket_fails_on_a_shifted_l0(self, k, name, monkeypatch):
        # L(0) + 1 leaves [L(m), L(n)] alone but moves the L(0) in the
        # central-term relation [L(m), L(-m)] = 2m L(0) + (m^3 - m)/12 by 2m
        ffa = DiagonalFFA(LatticeSpec(k, 6), bundle=get_bundle(name))
        virasoro = ffa.model.virasoro

        def shifted(n, vec, cap=None):
            out = virasoro(n, vec, cap)
            return vec_add(out, vec) if n == 0 else out

        monkeypatch.setattr(ffa.model, "virasoro", shifted)
        recs = [r for r in check_virasoro(ffa) if r.identity == "virasoro-bracket"]
        assert len(recs) == 25
        assert {r.index for r in recs if r.status == "fail"} == {(m, -m) for m in (-2, -1, 1, 2)}

    @pytest.mark.parametrize("k, name", [(1, "z2k1"), (2, "z4k2")])
    def test_derivative_property_fails_on_a_doubled_l_minus_1(self, k, name, monkeypatch):
        # Y(2 L(-1) u, z) is twice d/dz Y(u, z) wherever the derivative is
        # nonzero: every charged sector; on the vacuum both sides vanish
        ffa = DiagonalFFA(LatticeSpec(k, 8), bundle=get_bundle(name))
        virasoro = ffa.model.virasoro

        def doubled(n, vec, cap=None):
            out = virasoro(n, vec, cap)
            return vec_scale(out, 2) if n == -1 else out

        monkeypatch.setattr(ffa.model, "virasoro", doubled)
        recs = [r for r in check_grading_axioms(ffa) if r.identity == "derivative-property"]
        assert {r.index for r in recs if r.status == "fail"} == {(j,) for j in range(1, 2 * k)}

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_commutator_kernel_can_fail(self, monkeypatch, m):
        # the d-bracket and conformal-commutator-residue records both come
        # from this kernel; a wrong binomial weight must break it
        u = M1.alpha(-1, M1.lowest(1))
        assert _commutator_holds(M1, m, u, u, 6)
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: comb(n, k) + 1)
        assert not _commutator_holds(M1, m, u, u, 6)

    def test_residue_lemma_cases(self):
        recs = check_residue_lemma(z2_ffa(8))
        assert not fails(recs)
        names = {r.index[1] for r in recs}
        assert {"lowest", "orthogonal", "heisenberg-norm"} <= names

    @pytest.mark.parametrize("T", [1, 2])
    def test_jacobi_inserts_states_above_the_cutoff(self, T):
        # seeded states dress the minimal state with alpha(-1)/alpha(-2)
        # modes, so their keys can weigh more than T and lie outside the
        # sector basis; the inner and middle orderings skip those keys, as
        # X = Y(u; r, r) w does, and every record still gets a residual
        ffa = DiagonalFFA(LatticeSpec(1, T))
        model = ffa.model
        states = seeded_states(model, 3, 2, sector=1)
        weights = [model.state_weight(key) for _, state in states
                   for pair in state for key in pair]
        assert max(weights) > T
        recs = check_jacobi_residues(ffa, seed=3)
        assert [r.index for r in recs] == [(c, f) for c in range(3)
                                           for f in ("1", "z", "1/z", "1/(z-r)")]
        assert all(math.isfinite(r.residual) for r in recs)

    @pytest.mark.parametrize("k, name, seed", [(1, "z2k1", 2), (2, "z4k2", 1)])
    def test_jacobi_holds_where_every_side_vanishes(self, k, name, seed):
        # these seeds have records whose three contour integrals all vanish;
        # read over a fixed floor, their rounding failed the correct model
        ffa = DiagonalFFA(LatticeSpec(k, 6), bundle=get_bundle(name))
        recs = check_jacobi_residues(ffa, seed=seed)
        assert len(recs) == 12 and not fails(recs)
        assert max(r.residual for r in recs) <= 1e-12

    @pytest.mark.parametrize("seed", [5, 7, 15, 31])
    def test_jacobi_fails_on_a_negated_middle_ordering(self, seed, monkeypatch):
        series = checks._jacobi_series

        def negated(*args):
            g_out, g_in, g_mid = series(*args)
            return g_out, g_in, {e: -c for e, c in g_mid.items()}

        monkeypatch.setattr(checks, "_jacobi_series", negated)
        recs = check_jacobi_residues(z2_ffa(6), seed=seed)
        assert len(recs) == 12 and all(r.status == "fail" for r in recs)

    def test_jacobi_vacuous_record_fails(self, monkeypatch):
        # at T = 1 the f = 1 sums have no term; such a record proves nothing
        recs = check_jacobi_residues(z2_ffa(1), seed=3)
        vacuous = [r for r in recs if r.message.startswith("vacuous")]
        assert {r.index for r in vacuous} >= {(c, "1") for c in range(3)}
        assert all(r.status == "fail" and r.residual == 1.0 for r in vacuous)
        # with no series at all every record is vacuous, whatever the tolerance
        monkeypatch.setattr(checks, "_jacobi_series", lambda *args: ({}, {}, {}))
        recs = check_jacobi_residues(z2_ffa(6), tol=1.0, seed=3)
        assert all(r.status == "fail" and r.residual == 1.0 and "vacuous" in r.message
                   for r in recs)

    def test_associativity_counts_stable_nonzero_entries(self):
        for rec in check_associativity(z2_ffa(5), samples=2, seed=5):
            found = re.search(r"on (\d+) entries \((\d+) nonzero\), .*ratio \S+$", rec.message)
            assert found and int(found[2]) <= int(found[1])

    def test_residue_orthogonal_pair_is_zero(self):
        # distinct partitions pair to zero, so the extraction vanishes too;
        # the alpha(-1)/alpha(-1) pair shows that it can read nonzero
        model = LatticeModel(1)
        wp = model.alpha(-1, model.charged(-1))
        w = model.alpha(-2, model.charged(1))
        same = model.alpha(-1, model.charged(1))
        assert model.pair(wp, w) == 0
        for T in (4, 6, 8):
            assert residue_extraction(model, 1, wp, w, T) == 0
            assert residue_extraction(model, 1, wp, same, T) == 2


@pytest.mark.parametrize("k, name", [(1, "ising"), (2, "z2k1"), (1, "z4k2"), (2, "trivial")])
def test_bundle_of_another_ring_is_rejected(k, name):
    # ising's first two labels form a Z/2-shaped table; the others used to
    # fail later with a bare IndexError
    with pytest.raises(ValueError, match="'labels' does not match"):
        DiagonalFFA(LatticeSpec(k, 3), bundle=get_bundle(name))


def test_bundle_with_other_weights_is_rejected():
    import dataclasses

    bundle = get_bundle("z2k1")
    weights = dict(bundle.fusion.weights, **{bundle.fusion.labels[1]: Fraction(3, 4)})
    fusion = dataclasses.replace(bundle.fusion, weights=weights)
    with pytest.raises(ValueError, match="'weights' does not match"):
        DiagonalFFA(LatticeSpec(1, 3), bundle=dataclasses.replace(bundle, fusion=fusion))


@pytest.mark.parametrize("T", [1, 2])
def test_associativity_needs_truncation_three(T):
    # the iterate's convergence ratio reads the outputs at T - 2
    ffa = DiagonalFFA(LatticeSpec(1, T), bundle=get_bundle("z2k1"))
    with pytest.raises(ValueError, match=r"T - 2 and needs truncation >= 3, got " + str(T)):
        check_associativity(ffa)


@pytest.mark.parametrize("entry", ["apply", "apply_first"])
def test_vertex_map_rejects_zero(entry):
    ffa = DiagonalFFA(LatticeSpec(1, 4), bundle=get_bundle("z2k1"))
    pair = (1, 1)
    state = {(((), 1), ((), -1)): Fraction(1)}
    _, mat = ffa.tensor_state_from_dict(pair, state, 4)
    args = (pair, state, pair, mat) if entry == "apply" else (pair, mat, pair, state)
    with pytest.raises(ValueError, match="not defined at z = 0"):
        getattr(ffa, entry)(*args, 0j, 4)


def _dense_reference(model, key, sector, T, key_first, z, conj):
    """Y(key, z) on a sector basis, entry by entry from the exact components."""
    bvar = SectorBasis(model, sector, T)
    bout = SectorBasis(model, sector + model.sector(key[1]), T)
    mat = np.zeros((len(bout), len(bvar)), dtype=complex)
    for idx, var_key in enumerate(bvar.keys):
        u, v = (key, var_key) if key_first else (var_key, key)
        comps = model.components({u: Fraction(1)}, {v: Fraction(1)}, T)
        for mm, vec in comps.items():
            gamma = mm - model.state_weight(key) - model.state_weight(var_key)
            for out_key, c in vec.items():
                oi = bout.index.get(out_key)
                if oi is not None:
                    mat[oi, idx] += float(c) * zpow(z, gamma, conj)
    return mat


@pytest.mark.parametrize("k, name", [(1, "z2k1"), (2, "z4k2")])
def test_dense_matches_entrywise_reference(k, name):
    T = 6
    ffa = DiagonalFFA(LatticeSpec(k, T), bundle=get_bundle(name))
    model = ffa.model
    keys = [((), model.min_rep(j)) for j in range(model.two_k)]
    keys += [((2, 1), model.min_rep(1) - model.two_k), ((1,), 0)]
    # z on both sides of the arg = 0 cut of the paper's logarithm
    for z in (0.7 + 0.2j, 0.7 - 0.2j):
        for conj in (False, True):
            for key in keys:
                for sector in range(model.two_k):
                    for key_first in (True, False):
                        where = (z, conj, key, sector, key_first)
                        want = _dense_reference(model, key, sector, T, key_first, z, conj)
                        n_in = want.shape[1]
                        got = ffa._operator(key, sector, T, key_first, range(n_in), z, conj)
                        assert np.array_equal(got, want), where
                        # a column subset fills those columns and leaves exact zeros
                        cols = np.arange(sector % 3, n_in, 3)
                        part = ffa._operator(key, sector, T, key_first, cols, z, conj)
                        assert np.array_equal(part[:, cols], want[:, cols]), where
                        assert not np.delete(part, cols, axis=1).any(), where


def _full_apply_reference(ffa, s_pair, s_state, x_pair, x_mat, z, T, state_first):
    """The vertex map as the sum of c s (ML @ X @ MR.T) over the terms of the
    factorized argument, with ML and MR filled in full from the exact
    components."""
    two_k = ffa.model.two_k
    i1, i2 = (s_pair[0], x_pair[0]) if state_first else (x_pair[0], s_pair[0])
    scale_l = ffa.left_scale[(i1, i2)]
    scale_r = ffa.dual_scale[(i1, i2)] * ffa.left_scale[((-i1) % two_k, (-i2) % two_k)]
    out = 0
    for (lk, rk), c in s_state.items():
        ml = _dense_reference(ffa.model, lk, x_pair[0], T, state_first, z, False)
        mr = _dense_reference(ffa.model, rk, x_pair[1], T, state_first, z, True)
        out = out + (c * scale_l * scale_r) * (ml @ x_mat @ mr.T)
    return out


@pytest.mark.parametrize("k, name, seed", [(1, "z2k1", 5), (2, "z4k2", 3)])
def test_sparse_arguments_match_the_full_products(k, name, seed):
    T = 6
    ffa = DiagonalFFA(LatticeSpec(k, T), bundle=get_bundle(name))
    (upair, ustate), (vpair, vstate) = seeded_states(ffa.model, seed, 2)
    z = 0.55 + 0.3j
    xpair, xmat = ffa.tensor_state_from_dict(vpair, vstate, T)
    got = ffa.apply(upair, ustate, xpair, xmat, z, T)[1]
    want = _full_apply_reference(ffa, upair, ustate, xpair, xmat, z, T, True)
    assert np.array_equal(got, want) and np.any(got)
    # only the columns the argument touches are compiled, never a whole basis
    rows, cols = np.flatnonzero(xmat.any(axis=1)), np.flatnonzero(xmat.any(axis=0))
    touched = {(lk, xpair[0], T, True, int(i)) for lk, _ in ustate for i in rows}
    touched |= {(rk, xpair[1], T, True, int(j)) for _, rk in ustate for j in cols}
    assert set(ffa._cols) == touched
    assert len(rows) < len(ffa.basis(xpair[0], T)) and len(cols) < len(ffa.basis(xpair[1], T))

    # apply_first on the outer product of two Laurent columns of alpha(-1) 1
    a_key = ((1,), 0)
    il, ir = (ffa.basis(s, T).index[key] for s, key in zip(upair, next(iter(ustate))))
    col_l = _laurent_slice(ffa, a_key, upair[0], T, col=il)
    col_r = _laurent_slice(ffa, a_key, upair[1], T, col=ir)
    xmat = np.outer(next(iter(col_l.values())), next(iter(col_r.values())))
    assert np.any(xmat)
    got = ffa.apply_first(upair, xmat, vpair, vstate, z, T)[1]
    want = _full_apply_reference(ffa, vpair, vstate, upair, xmat, z, T, False)
    assert np.array_equal(got, want) and np.any(got)


def _jacobi_by_full_apply(ffa, upair, ustate, wpair, wstate, r, T):
    """The contour series with the inner and middle orderings read as one
    entry of a full apply on the outer product of two Laurent columns, per
    exponent pair."""
    a_key = ((1,), 0)
    xpair, xmat = ffa.apply(upair, ustate, *ffa.tensor_state_from_dict(wpair, wstate, T),
                            complex(r), T)
    il, ir = np.unravel_index(int(np.abs(xmat).argmax()), xmat.shape)
    g_out = {}
    rows_l = _laurent_slice(ffa, a_key, xpair[0], T, row=il)
    rows_r = _laurent_slice(ffa, a_key, xpair[1], T, row=ir)
    for e1, row1 in rows_l.items():
        for e2, row2 in rows_r.items():
            g_out[e1 + e2] = g_out.get(e1 + e2, 0j) + complex(row1 @ xmat @ row2)

    def inserted(pair, state, evaluate):
        bl, br = ffa.basis(pair[0], T), ffa.basis(pair[1], T)
        g = {}
        for (lk, rk), c in state.items():
            if lk not in bl.index or rk not in br.index:
                continue
            cols_l = _laurent_slice(ffa, a_key, pair[0], T, col=bl.index[lk])
            cols_r = _laurent_slice(ffa, a_key, pair[1], T, col=br.index[rk])
            for e1, c1 in cols_l.items():
                for e2, c2 in cols_r.items():
                    ymat = evaluate(np.outer(c1, c2))
                    g[e1 + e2] = g.get(e1 + e2, 0j) + float(c) * complex(ymat[il, ir])
        return g

    g_in = inserted(wpair, wstate,
                    lambda mat: ffa.apply(upair, ustate, wpair, mat, complex(r), T)[1])
    g_mid = inserted(upair, ustate,
                     lambda mat: ffa.apply_first(upair, mat, wpair, wstate, complex(r), T)[1])
    return g_out, g_in, g_mid


@pytest.mark.parametrize("k, name, seed", [(1, "z2k1", seed) for seed in (4, 5, 13, 18, 29, 31)]
                         + [(2, "z4k2", 4)])
def test_jacobi_rank1_read_matches_the_full_apply(k, name, seed, monkeypatch):
    T = 6
    ffa = DiagonalFFA(LatticeSpec(k, T), bundle=get_bundle(name))
    (upair, ustate), (wpair, wstate) = seeded_states(ffa.model, seed, 2, sector=1)
    for r in (0.5, 0.6, 0.45):
        got = checks._jacobi_series(ffa, upair, ustate, wpair, wstate, r, T)
        want = _jacobi_by_full_apply(ffa, upair, ustate, wpair, wstate, r, T)
        for g, h in zip(got, want):
            assert g.keys() == h.keys() and h, (r, sorted(h))
            scale = max(abs(c) for c in h.values())
            assert max(abs(g[e] - h[e]) for e in h) <= 1e-14 * scale, r
    statuses = [rec.status for rec in check_jacobi_residues(ffa, seed=seed)]
    monkeypatch.setattr(checks, "_jacobi_series", _jacobi_by_full_apply)
    assert [rec.status for rec in check_jacobi_residues(ffa, seed=seed)] == statuses


def test_virasoro_matrix_is_built_once_and_read_only():
    basis = SectorBasis(M1, 1, 6)
    first = basis.virasoro_matrix(-1)
    assert basis.virasoro_matrix(-1) is first
    assert np.array_equal(first, SectorBasis(M1, 1, 6).virasoro_matrix(-1)) and first.any()
    assert basis.virasoro_matrix(0) is not first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1


def test_laurent_slice_rejects_a_fractional_power():
    # Y(e^alpha, z) on the charge-1 sector has powers in 1/2 + Z at k = 1
    ffa = DiagonalFFA(LatticeSpec(1, 6), bundle=get_bundle("z2k1"))
    with pytest.raises(ValueError, match=r"Y\(\(\(\), 1\), z\) on sector 1 has the power z\^-1/2"):
        _laurent_slice(ffa, ((), 1), 1, 6, col=0)


def test_compared_sides_must_share_a_sector_pair(monkeypatch):
    ffa = DiagonalFFA(LatticeSpec(1, 4), bundle=get_bundle("z2k1"))
    apply, apply_first = ffa.apply, ffa.apply_first

    def shift(pair):
        return (pair[0] + 1) % 2, pair[1]

    monkeypatch.setattr(ffa, "apply_first", lambda *args: (lambda p, m: (shift(p), m))(
        *apply_first(*args)))
    with pytest.raises(ValueError, match=r"associativity sample 0 at T = 2: the two sides land "
                                         r"in the sector pairs \(\d, \d\) and"):
        check_associativity(ffa, samples=1)
    # the right-hand side of skew symmetry is evaluated at -z
    monkeypatch.setattr(ffa, "apply", lambda *args: (lambda p, m: (
        shift(p) if args[-2].real < 0 else p, m))(*apply(*args)))
    with pytest.raises(ValueError, match="skew-symmetry sample 0: the two sides land"):
        check_skew_symmetry(ffa, samples=1)


@pytest.mark.parametrize("check", [check_associativity, check_skew_symmetry])
@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_checks_need_a_sample(check, samples):
    ffa = DiagonalFFA(LatticeSpec(1, 4), bundle=get_bundle("z2k1"))
    with pytest.raises(ValueError, match=f"needs samples >= 1, got {samples}"):
        check(ffa, samples=samples)


@pytest.mark.parametrize("k", [1, 2])
def test_single_valuedness_pairs_the_primed_partner(k):
    # r - s is integral against the primed sectors; a right factor one
    # sector off leaves it fractional wherever the left sector is charged
    model = LatticeModel(k)
    two_k = 2 * k
    for j in range(two_k):
        jr = (-j) % two_k
        assert _paired_exponents_integral(model, (j, jr), (jr, j), 6)
        shifted = _paired_exponents_integral(model, (j, jr), ((jr + 1) % two_k, j), 6)
        assert shifted == (j == 0)


@pytest.mark.parametrize("k, name", [(1, "z2k1"), (2, "z4k2")])
def test_monodromy_fails_on_a_shifted_partner(k, name, monkeypatch):
    # pairing each sector with the primed sector's neighbour leaves
    # fractional weight differences, so every monodromy record must fail
    from fullfield.lattice import checks

    ffa = DiagonalFFA(LatticeSpec(k, 4), bundle=get_bundle(name))

    def monodromy(ffa):
        return [r.status for r in check_grading_axioms(ffa) if r.identity == "monodromy-trivial"]

    assert monodromy(ffa) == ["pass"] * (2 * k)
    paired = checks._weights_differ_by_integers
    monkeypatch.setattr(checks, "_weights_differ_by_integers",
                        lambda ffa, j, partner, T: paired(ffa, j, (partner + 1) % (2 * k), T))
    assert monodromy(ffa) == ["fail"] * (2 * k)


class TestChiralIOApply:
    def test_module_map_on_vacuum_point(self):
        comps = chiral_io_apply(M1, 0, M1.alpha(-1, M1.charged(1)), 1, 6)
        v = M1.alpha(-1, M1.charged(1))
        assert comps == {M1.vec_weight(v): v}

    def test_sector_mismatch_zero(self):
        assert chiral_io_apply(M1, 1, M1.charged(1), 1, 6) == {}

    def test_charged_application(self):
        comps = chiral_io_apply(M1, 1, M1.charged(-1), 0, 4)
        assert comps[Fraction(0)] == {((), 0): Fraction(1)}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sector_basis_is_prefix_of_larger_cutoff(k):
    # _restrict_grid slices a matrix on the T + 2 bases down to the T bases
    model = LatticeModel(k)
    for j in range(2 * k):
        for T in range(1, 10):
            small = SectorBasis(model, j, T).keys
            assert SectorBasis(model, j, T + 2).keys[:len(small)] == small, (j, T)


class TestCommutativityShadow:
    def test_real_point_routes_agree(self):
        # the direct two-insertion value against the route through skew
        # symmetry and reassociation, on mutually resolved entries
        import numpy as np
        from fullfield.lattice.checks import _restrict_grid

        spec = LatticeSpec(1, 8)
        ffa = DiagonalFFA(spec)
        model = ffa.model
        pair = (1, 1)
        u = {(((1,), 1), ((), -1)): 1.0}
        v = {(((), 1), ((1,), -1)): 1.0}
        w = {(((), 1), ((), -1)): 1.0}
        r1, r2 = 0.55, 1.0
        tol = 1e-6
        vals = {}
        for T in (8, 10):
            # direct: Y(u; r2) Y(v; r1) w
            xp, xm = ffa.apply(pair, v, *ffa.tensor_state_from_dict(pair, w, T), r1, T)
            dp, direct = ffa.apply(pair, u, xp, xm, r2, T)
            # route: reassociate, then skew the inner factor
            ip, imat = ffa.apply(pair, u, *ffa.tensor_state_from_dict(pair, v, T),
                                 r2 - r1, T)
            skewed = ffa.apply(pair, v, *ffa.tensor_state_from_dict(pair, u, T),
                               -(r2 - r1), T)[1]
            skewed = ffa.exp_d_left_right(ip, skewed, r2 - r1, r2 - r1, T)
            assert np.abs(imat - skewed).max() <= 1e-12 * max(np.abs(imat).max(), 1.0)
            rp, routed = ffa.apply_first(ip, skewed, pair, w, r1, T)
            assert rp == dp
            vals[T] = (dp, direct, routed)
        (dp, d8, r8), (_, d10, r10) = vals[8], vals[10]
        scale = max(np.abs(d8).max(), np.abs(r8).max())
        stable = (np.abs(d8 - _restrict_grid(ffa, d10, dp, 8)) <= 1e-12 * scale) \
            & (np.abs(r8 - _restrict_grid(ffa, r10, dp, 8)) <= 1e-12 * scale)
        assert stable.sum() > 0
        assert float((np.abs(d8 - r8) * stable).max() / scale) <= 2 * tol
