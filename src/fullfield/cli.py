"""Command line front end.

Exit status contract: 0 all verdicts pass, 1 at least one violation,
2 usage or input errors.  All configuration is via flags; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys

from fullfield.bundles import BundleError, canonical_bytes, load_bundle, save_bundle
from fullfield.chiral import ChiralData
from fullfield.cyclotomic import FieldOrderError
from fullfield.suites import (
    DEFAULT_SUITES,
    Report,
    UnknownSuiteError,
    reports_to_obj,
    reports_to_text,
    run_suites,
)

LATTICE_CHECKS = ("assoc", "skew", "grading", "virasoro", "residue", "jacobi")


def _emit(reports, args, meta):
    obj = reports_to_obj(reports, meta=meta)
    if getattr(args, "report", None):
        with open(args.report, "wb") as fh:
            fh.write(canonical_bytes(obj))
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(canonical_bytes(obj).decode("utf-8"))
    else:
        print(reports_to_text(reports, verbose=getattr(args, "verbose", False)))
    return 0 if obj["verdict"] == "pass" else 1


def cmd_validate(args) -> int:
    bundle = load_bundle(args.bundle, strict=False)
    violations = bundle.fusion.validate(field_order=bundle.field.order)
    if not violations:
        print("valid")
        return 0
    for v in violations:
        print(str(v))
    return 1


def cmd_pairing(args) -> int:
    bundle = load_bundle(args.bundle)
    chiral = ChiralData(bundle)
    if args.triple:
        labels = tuple(args.triple.split(","))
        if len(labels) != 3:
            print("--triple wants a1,a2,a3", file=sys.stderr)
            return 2
        spaces = [labels]
    else:
        spaces = chiral.spaces()
    for space in spaces:
        mat = chiral.pairing_matrix(tuple(space))
        print(f"pairing {space}:")
        for row in mat:
            print("  [" + ", ".join(str(v) for v in row) + "]")
    return 0


def cmd_dual(args) -> int:
    bundle = load_bundle(args.bundle)
    chiral = ChiralData(bundle)
    for space in chiral.spaces():
        mat = chiral.dual_basis(space)
        print(f"dual coefficients {space}:")
        for row in mat:
            print("  [" + ", ".join(str(v) for v in row) + "]")
    return 0


def cmd_construct(args) -> int:
    from fullfield import ffa as ffa_mod

    bundle = load_bundle(args.bundle)
    chiral = ChiralData(bundle)
    ffa_mod.construct(chiral)
    bundle.ffa = ffa_mod.ffa_section(chiral)
    save_bundle(bundle, args.output)
    print(f"wrote {args.output} with {len(bundle.ffa['sectors'])} sectors "
          f"and {len(bundle.ffa['blocks'])} vertex-tensor blocks")
    return 0


def cmd_verify(args) -> int:
    bundle = load_bundle(args.bundle)
    names = args.suite.split(",") if args.suite else list(DEFAULT_SUITES)
    reports = run_suites(bundle, names)
    meta = {"bundle": str(args.bundle), "suites": names}
    return _emit(reports, args, meta)


def cmd_lattice(args) -> int:
    from fullfield.lattice import (
        DiagonalFFA,
        LatticeSpec,
        check_associativity,
        check_grading_axioms,
        check_jacobi_residues,
        check_residue_lemma,
        check_skew_symmetry,
        check_virasoro,
        emit_bundle,
    )
    from fullfield.solver import SolverError

    spec = LatticeSpec(args.k, args.truncate)
    names = args.check.split(",") if args.check else list(LATTICE_CHECKS)
    for name in names:
        if name not in LATTICE_CHECKS:
            print(f"unknown lattice check {name!r}; known: {', '.join(LATTICE_CHECKS)}",
                  file=sys.stderr)
            return 2
    try:
        bundle = emit_bundle(spec, seed=args.seed)
    except SolverError as exc:
        # the solvers cannot complete the lattice ring's data (k = 3)
        where = "" if exc.conflict is None else f" (conflict: {exc.conflict})"
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    if args.emit_bundle:
        save_bundle(bundle, args.emit_bundle)
        print(f"emitted bundle to {args.emit_bundle}")
    ffa = DiagonalFFA(spec, bundle=bundle)
    reports = []
    runners = {
        "assoc": lambda: check_associativity(ffa, samples=args.samples, tol=args.tol,
                                             seed=args.seed),
        "skew": lambda: check_skew_symmetry(ffa, samples=args.samples, tol=args.tol,
                                            seed=args.seed + 1),
        "grading": lambda: check_grading_axioms(ffa),
        "virasoro": lambda: check_virasoro(ffa),
        "residue": lambda: check_residue_lemma(ffa),
        "jacobi": lambda: check_jacobi_residues(ffa, tol=max(args.tol, 1e-5),
                                                seed=args.seed + 2),
    }
    headers = {
        "assoc": "product/iterate agreement in the ordered region",
        "skew": "two-variable skew symmetry",
        "grading": "identity, creation, grading and derivative bookkeeping",
        "virasoro": "Virasoro brackets at central charge 1",
        "residue": "vacuum-channel residue extraction",
        "jacobi": "contour residue identity",
    }
    for name in names:
        rep = Report(suite=f"lattice-{name}", identity=headers[name])
        rep.records = runners[name]()
        reports.append(rep)
    meta = {"k": args.k, "truncate": args.truncate, "samples": args.samples,
            "seed": args.seed, "tol": args.tol, "checks": names}
    return _emit(reports, args, meta)


def cmd_report(args) -> int:
    with open(args.path, "rb") as fh:
        obj = json.loads(fh.read().decode("utf-8"))
    if args.format == "json":
        sys.stdout.write(canonical_bytes(obj).decode("utf-8"))
    else:
        for rep in obj.get("reports", []):
            print(f"suite {rep['suite']} [{rep['identity']}]: {rep['verdict'].upper()}")
            for rec in rep.get("records", []):
                if rec["status"] == "fail":
                    print(f"  FAIL {rec['identity']} {tuple(rec['index'])} {rec['message']}")
        print(f"overall: {obj.get('verdict', '?').upper()}")
    return 0 if obj.get("verdict") == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fullfield",
        description="Construct the diagonal sector-sum algebra from chiral "
                    "fusing data and verify its identities.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the fusion-ring invariants of a bundle")
    sp.add_argument("bundle")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("pairing", help="print pairing matrices")
    sp.add_argument("bundle")
    sp.add_argument("--triple", help="a1,a2,a3 label triple")
    sp.set_defaults(fn=cmd_pairing)

    sp = sub.add_parser("dual", help="print dual-basis coefficient matrices")
    sp.add_argument("bundle")
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("construct", help="assemble the sector-sum structure tensor")
    sp.add_argument("bundle")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("verify", help="run verification suites on a bundle")
    sp.add_argument("bundle")
    sp.add_argument("--suite", help="comma-separated suite names "
                                    f"({', '.join(DEFAULT_SUITES)})")
    sp.add_argument("--report", help="write the machine-readable report here")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("lattice", help="run the rank-1 lattice backend checks")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--truncate", type=int, default=8)
    sp.add_argument("--samples", type=int, default=5)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--check", help=f"comma-separated ({', '.join(LATTICE_CHECKS)})")
    sp.add_argument("--emit-bundle", help="write the derived bundle here")
    sp.add_argument("--report", help="write the machine-readable report here")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_lattice)

    sp = sub.add_parser("report", help="render a saved report")
    sp.add_argument("path")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BundleError, FieldOrderError, UnknownSuiteError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
