"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 1-5 are exact over the bundle fields on the five shipped
fixtures plus the mutation fixtures; 6-9 drive the rank-1 lattice backend.
"""

import time
from fractions import Fraction

import pytest

from fullfield import ffa as ffa_mod
from fullfield.chiral import ChiralData, fails
from fullfield.fixtures import MUTATION_TARGETS, MUTATIONS, REGULAR, load_fixture
from fullfield.lattice import (
    DiagonalFFA,
    LatticeModel,
    LatticeSpec,
    check_associativity,
    check_grading_axioms,
    check_jacobi_residues,
    check_residue_lemma,
    check_skew_symmetry,
    check_virasoro,
    emit_bundle,
)
from fullfield.suites import run_suites
from tests.conftest import get_bundle, get_chiral


def _line(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def lattice_ffa():
    return DiagonalFFA(LatticeSpec(1, 8))


def test_criterion_1_fusing_delta_exact_all_fixtures():
    t0 = time.time()
    for name in REGULAR:
        bad = fails(get_chiral(name).verify_prop_fusing())
        assert not bad, (name, bad[:3])
    elapsed = time.time() - t0
    _line("1 fusing delta contraction exact on all fixtures",
          elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_2_nondegeneracy_and_normalization():
    ok = True
    for name in REGULAR:
        chiral = get_chiral(name)
        if fails(chiral.verify_nondegeneracy()):
            ok = False
        for space in chiral.spaces():
            if chiral.dim(space) != chiral.dim(chiral.primed(space)):
                ok = False
    _line("2 nondegenerate pairing, dimension symmetry, left-inverse identity", ok)


def test_criterion_3_dual_basis_lemma():
    ok = True
    for name in REGULAR:
        chiral = get_chiral(name)
        if fails(chiral.verify_dual_basis()):
            ok = False
    _line("3 canonical duals and dual-weight equality exact", ok)


def test_criterion_4_s3_invariance_both_paths():
    ok = True
    numeric_spaces = 0
    for name in REGULAR:
        chiral = get_chiral(name)
        recs = chiral.verify_s3_invariance()
        if fails(recs):
            ok = False
        numeric_spaces += sum(1 for r in recs if r.path == "numeric")
        for r in recs:
            if r.path == "numeric" and r.residual is not None and r.residual > 1e-12:
                ok = False
    _line("4 sqrt-weighted form invariant under both generators",
          ok, f"{numeric_spaces} numeric-path checks at rtol 1e-12")


def test_criterion_5_structure_checks_and_mutations():
    ok = True
    for name in REGULAR:
        chiral = get_chiral(name)
        ffa_mod.construct(chiral)
        for verify in (ffa_mod.verify_associativity_structure,
                       ffa_mod.verify_skew_symmetry_structure,
                       ffa_mod.verify_single_valuedness,
                       ffa_mod.verify_invariance_structure):
            if fails(verify(chiral)):
                ok = False
    targeted = True
    for name in MUTATIONS:
        target = MUTATION_TARGETS[name]
        if name == "mut_validate":
            bundle = load_fixture(name, strict=False)
            if not bundle.fusion.validate(field_order=bundle.field.order):
                targeted = False
            continue
        reports = run_suites(load_fixture(name, strict=False), (target,))
        rep = next(r for r in reports if r.suite == target)
        if rep.verdict != "fail":
            targeted = False
    _line("5 construction checks pass; every mutation fails its target",
          ok and targeted)


def test_criterion_6_lattice_assoc_and_skew(lattice_ffa):
    t0 = time.time()
    assoc = check_associativity(lattice_ffa, samples=5, tol=1e-6, seed=1)
    skew = check_skew_symmetry(lattice_ffa, samples=5, tol=1e-6, seed=2)
    elapsed = time.time() - t0
    ok = not fails(assoc) and not fails(skew) and elapsed < 60
    ratios = [float(r.message.split("ratio ")[1]) for r in assoc]
    _line("6 associativity and skew at k=1, T=8, 5 samples",
          ok and all(r >= 4 for r in ratios),
          f"{elapsed:.1f}s, residual ratios {[round(r, 1) for r in ratios]}")


def test_criterion_7_exact_lattice_identities(lattice_ffa):
    ok = (not fails(check_grading_axioms(lattice_ffa))
          and not fails(check_virasoro(lattice_ffa))
          and not fails(check_residue_lemma(lattice_ffa)))
    _line("7 identity/creation, bracket bookkeeping, residue, Virasoro c=1", ok)


def _oracle_among_solutions(k: int, name: str) -> bool:
    """The shipped oracle F, pins filled in, is among the pentagon solutions."""
    from fullfield.cyclotomic import CycField
    from fullfield.lattice import lattice_fusion
    from fullfield.solver import solve_pentagon, with_pins

    fusion = lattice_fusion(k)
    field = CycField(8 * k)
    lattice_f = {key: val for (key, _), val in get_bundle(name).f.items()}
    return any(with_pins(fusion, field, sol) == lattice_f
               for sol in solve_pentagon(fusion, 8 * k))


def test_criterion_8_cross_validation():
    agree = _oracle_among_solutions(1, "z2k1")
    suites_ok = all(r.verdict == "pass" for r in run_suites(get_bundle("z2k1")))
    _line("8 four-point oracle agrees with the pentagon solver on Z/2",
          agree and suites_ok)
    _line("8 four-point oracle agrees with the pentagon solver on Z/4",
          _oracle_among_solutions(2, "z4k2"))


def test_criterion_9_contour_residue_identity(lattice_ffa):
    recs = check_jacobi_residues(lattice_ffa, tol=1e-5, seed=3)
    worst = max(r.residual for r in recs)
    _line("9 contour residue identity, 3 insertion points, exact residue sums",
          not fails(recs) and worst <= 1e-12, f"max defect {worst:.1e}")
