#!/usr/bin/env python3
"""Regenerate the shipped fixture bundles.

Regular fixtures:
  trivial     one-label bundle over Q(zeta_4)
  z2k1        lattice oracle at k=1 (two sectors, N=8)
  z4k2        lattice oracle at k=2 (four sectors, N=16)
  ising       three-label pentagon + sigma solve, weights (0, 1/2, 1/16), N=32
  fibonacci   two-label pentagon + sigma solve, weight 2/5, N=20

Mutations: one per targeted suite, derived from ising (structure mutations)
or a synthetic fusion table (validate).  Every regular fixture must pass the
full suite stack and every mutation must fail its target before anything is
written.
"""

from __future__ import annotations

import pathlib
import sys
from fractions import Fraction

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from fullfield.bundles import Bundle, bundle_to_obj, canonical_bytes  # noqa: E402
from fullfield.cyclotomic import CycField  # noqa: E402
from fullfield.fusion import FusionData  # noqa: E402
from fullfield.lattice import LatticeSpec, emit_bundle  # noqa: E402
from fullfield.solver import (  # noqa: E402
    SolverError,
    solve_pentagon,
    solve_sigma,
    with_pins,
)
from fullfield.suites import run_suites  # noqa: E402
from fullfield.fixtures import MUTATION_TARGETS  # noqa: E402

OUT = SRC / "fullfield" / "fixtures"


def canonical_markers(fusion: FusionData) -> dict:
    return {s: 0 for a in fusion.labels for s in fusion.canonical_spaces(a)}


def trivial_bundle() -> Bundle:
    field = CycField(4)
    fusion = FusionData(labels=("e",), unit="e", dual={"e": "e"},
                        weights={"e": Fraction(0)}, rules={("e", "e", "e"): 1})
    f = {(("e",) * 6, (0, 0, 0, 0)): field.one()}
    one = [[field.one()]]
    return Bundle(field=field, fusion=fusion, f=f,
                  sigma12={("e", "e", "e"): one}, sigma23={("e", "e", "e"): one},
                  canonical=canonical_markers(fusion),
                  provenance={"generator": "trivial", "version": "0.1.0"})


def solver_bundle(fusion: FusionData, solve_order: int, field_order: int,
                  name: str) -> Bundle:
    field = CycField(field_order)
    solutions = solve_pentagon(fusion, solve_order)
    if not solutions:
        raise SystemExit(f"no pentagon solution for {name} over Q(zeta_{solve_order})")
    last_err = None
    for si, sol in enumerate(solutions):
        scale = field_order // solve_order
        lifted = {key: field.scalar({e * scale: c for e, c in val.coeffs.items()})
                  for key, val in sol.items()}
        f = {(key, (0, 0, 0, 0)): val for key, val in with_pins(fusion, field, lifted).items()}
        try:
            sigma12, sigma23 = solve_sigma(field, fusion, f)
        except SolverError as exc:
            last_err = exc
            continue
        bundle = Bundle(field=field, fusion=fusion, f=f, sigma12=sigma12,
                        sigma23=sigma23, canonical=canonical_markers(fusion),
                        provenance={"generator": f"pentagon-solver:{name}",
                                    "solution_index": si, "version": "0.1.0"})
        reports = run_suites(bundle)
        if all(r.verdict == "pass" for r in reports):
            return bundle
        last_err = "; ".join(f"{r.suite}:{r.verdict}" for r in reports)
    raise SystemExit(f"no suite-passing S3 action for {name}: {last_err}")


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


def fibonacci_fusion() -> FusionData:
    return FusionData(
        labels=("1", "tau"), unit="1", dual={"1": "1", "tau": "tau"},
        weights={"1": Fraction(0), "tau": Fraction(2, 5)},
        rules={("1", "1", "1"): 1, ("1", "tau", "tau"): 1, ("tau", "1", "tau"): 1,
               ("tau", "tau", "1"): 1, ("tau", "tau", "tau"): 1})


def _clone(bundle: Bundle) -> Bundle:
    return Bundle(field=bundle.field, fusion=bundle.fusion, f=dict(bundle.f),
                  sigma12={k: [row[:] for row in v] for k, v in bundle.sigma12.items()},
                  sigma23={k: [row[:] for row in v] for k, v in bundle.sigma23.items()},
                  canonical=dict(bundle.canonical),
                  provenance=dict(bundle.provenance))


def mutations(ising: Bundle, z4: Bundle) -> dict[str, Bundle]:
    field = ising.field
    out: dict[str, Bundle] = {}

    m = _clone(ising)
    key = (("sigma", "1", "sigma", "sigma", "sigma", "1"), (0, 0, 0, 0))
    m.f[key] = -m.f[key]
    m.provenance["mutation"] = "negated one reassociation entry"
    out["mut_pentagon"] = m

    m = _clone(ising)
    m.sigma23[("sigma", "eps", "sigma")] = [[field.zero()]]
    m.provenance["mutation"] = "zeroed one adjoint-action matrix"
    out["mut_pairing"] = m

    m = _clone(ising)
    mat = m.sigma23[("eps", "sigma", "sigma")]
    m.sigma23[("eps", "sigma", "sigma")] = [[2 * v for v in row] for row in mat]
    m.provenance["mutation"] = "doubled the adjoint action on one space"
    out["mut_fusing"] = m

    m = _clone(ising)
    mat = m.sigma12[("eps", "sigma", "sigma")]
    m.sigma12[("eps", "sigma", "sigma")] = [[-v for v in row] for row in mat]
    m.provenance["mutation"] = "negated one skew-action matrix"
    out["mut_s3"] = m

    m = _clone(ising)
    mat = m.sigma23[("sigma", "eps", "sigma")]
    m.sigma23[("sigma", "eps", "sigma")] = [[2 * v for v in row] for row in mat]
    m.provenance["mutation"] = "doubled the adjoint action on another space"
    out["mut_assoc"] = m

    # self-dual labels make skew blind to sign flips; the Z/4 bundle has an
    # honest dual pair of spaces to put the defect on
    m = _clone(z4)
    space = ("1", "1", "2")
    mat = m.sigma12[space]
    m.sigma12[space] = [[-v for v in row] for row in mat]
    m.provenance["mutation"] = "negated the skew action on one charged space"
    out["mut_skew"] = m

    m = _clone(ising)
    key = (("eps", "1", "eps", "eps", "eps", "1"), (0, 0, 0, 0))
    m.f[key] = -m.f[key]
    m.provenance["mutation"] = "negated one vacuum-channel weight"
    out["mut_invariance"] = m

    m = _clone(ising)
    rules = dict(m.fusion.rules)
    del rules[("sigma", "sigma", "1")]
    dead = ("sigma", "sigma", "1")
    m.fusion = FusionData(labels=m.fusion.labels, unit=m.fusion.unit,
                          dual=m.fusion.dual, weights=m.fusion.weights,
                          rules=rules)
    m.f = {k: v for k, v in m.f.items() if dead not in m.fusion.key_spaces(k[0])}
    m.sigma12 = {s: v for s, v in m.sigma12.items() if s != dead}
    m.sigma23 = {s: v for s, v in m.sigma23.items() if s != dead}
    m.canonical = {s: v for s, v in m.canonical.items() if s != dead}
    m.provenance["mutation"] = "removed the unit-duality channel"
    out["mut_validate"] = m
    return out


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    bundles: dict[str, Bundle] = {}
    bundles["trivial"] = trivial_bundle()
    print("trivial built")
    bundles["z2k1"] = emit_bundle(LatticeSpec(1, 8), seed=1)
    print("z2k1 built")
    bundles["z4k2"] = emit_bundle(LatticeSpec(2, 8), seed=1)
    print("z4k2 built")
    bundles["ising"] = solver_bundle(ising_fusion(), 16, 32, "ising")
    print("ising built")
    bundles["fibonacci"] = solver_bundle(fibonacci_fusion(), 20, 20, "fibonacci")
    print("fibonacci built")

    for name, bundle in bundles.items():
        reports = run_suites(bundle)
        bad = [r.suite for r in reports if r.verdict != "pass"]
        if bad:
            raise SystemExit(f"fixture {name} fails suites {bad}")
        print(f"{name}: all suites pass")

    muts = mutations(bundles["ising"], bundles["z4k2"])
    for name, bundle in muts.items():
        target = MUTATION_TARGETS[name]
        if name == "mut_validate":
            violations = bundle.fusion.validate(field_order=bundle.field.order)
            if not violations:
                raise SystemExit("mut_validate unexpectedly validates")
            print(f"{name}: fails {target} as intended")
            continue
        reports = run_suites(bundle, (target,))
        target_report = next(r for r in reports if r.suite == target)
        if target_report.verdict != "fail":
            raise SystemExit(f"mutation {name} does not fail its target {target}")
        print(f"{name}: fails {target} as intended")

    for name, bundle in {**bundles, **muts}.items():
        path = OUT / f"{name}.json"
        path.write_bytes(canonical_bytes(bundle_to_obj(bundle)))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
