"""Command line front end.

Exit status contract: 0 all verdicts pass, 1 at least one violation,
2 usage or input errors.  Commands raise on bad input, and ``main`` alone
turns a ``ValueError`` or ``OSError`` into one "error: ..." line on stderr
and exit 2.  All configuration is via flags; no environment variables are
consulted.  ``main`` builds the parser of the dispatched command of
``COMMANDS`` alone, and the full tree only when the first argument names no
command, so each message is the full tree's.  The suites come from
``suites.SUITES`` and the lattice checks from ``LATTICE_CHECKS``;
``cmd_lattice`` alone imports ``fullfield.lattice.checks``, the one module
that loads numpy.  ``report_text`` writes every text report.
"""

from __future__ import annotations

import argparse
import json
import sys

from fullfield.bundles import canonical_bytes, load_bundle, save_bundle
from fullfield.chiral import ChiralData
from fullfield.suites import DEFAULT_SUITES, REPORT_FORMAT, Report, reports_to_obj, run_suites

# lattice check name -> (report identity header, runner); a runner takes the
# ``fullfield.lattice.checks`` module, the DiagonalFFA and the parsed flags
LATTICE_CHECKS = {
    "assoc": ("product/iterate agreement in the ordered region",
              lambda chk, ffa, a: chk.check_associativity(ffa, samples=a.samples, tol=a.tol,
                                                          seed=a.seed)),
    "skew": ("two-variable skew symmetry",
             lambda chk, ffa, a: chk.check_skew_symmetry(ffa, samples=a.samples, tol=a.tol,
                                                         seed=a.seed + 1)),
    "grading": ("identity, creation, grading and derivative bookkeeping",
                lambda chk, ffa, a: chk.check_grading_axioms(ffa)),
    "virasoro": ("Virasoro brackets at central charge 1",
                 lambda chk, ffa, a: chk.check_virasoro(ffa)),
    "residue": ("vacuum-channel residue extraction",
                lambda chk, ffa, a: chk.check_residue_lemma(ffa)),
    "jacobi": ("contour residue identity",
               lambda chk, ffa, a: chk.check_jacobi_residues(ffa, tol=max(a.tol, 1e-5),
                                                             seed=a.seed + 2)),
}

# the most records the text lists per suite; the JSON report holds every one
TEXT_RECORDS = 200


def report_text(obj: dict, verbose: bool = False) -> str:
    """A report object as text: each suite's verdict, error, failing records
    (every record if ``verbose``) and pass count, then the overall verdict."""
    lines = []
    for rep in obj["reports"]:
        lines.append(f"suite {rep['suite']} [{rep['identity']}]: {rep['verdict'].upper()}")
        if rep["error"]:
            lines.append(f"  error: {rep['error']}")
        records = rep["records"]
        shown = records if verbose else [r for r in records if r["status"] == "fail"]
        for r in shown[:TEXT_RECORDS]:
            res = "" if r["residual"] is None else f" residual={float(r['residual']):.3e}"
            msg = f" {r['message']}" if r["message"] else ""
            lines.append(f"  {r['status'].upper():4s} {r['identity']} {tuple(r['index'])}"
                         f"{res}{msg}")
        if len(shown) > TEXT_RECORDS:
            lines.append(f"  ... {len(shown) - TEXT_RECORDS} more records left out; "
                         "--format json holds them all")
        passed = sum(r["status"] == "pass" for r in records)
        lines.append(f"  {passed}/{len(records)} checks passed")
    lines.append(f"overall: {obj['verdict'].upper()}")
    return "\n".join(lines)


def _emit(reports, args, meta):
    obj = reports_to_obj(reports, meta=meta)
    report = getattr(args, "report", None)
    json_out = getattr(args, "format", "text") == "json"
    data = canonical_bytes(obj) if report or json_out else b""
    if report:
        with open(report, "wb") as fh:
            fh.write(data)
    if json_out:
        sys.stdout.write(data.decode("utf-8"))
    else:
        print(report_text(obj, verbose=getattr(args, "verbose", False)))
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


def _print_matrices(title, matrix_of, spaces) -> int:
    for space in spaces:
        print(f"{title} {space}:")
        for row in matrix_of(space):
            print("  [" + ", ".join(str(v) for v in row) + "]")
    return 0


def cmd_pairing(args) -> int:
    bundle = load_bundle(args.bundle)
    spaces = bundle.fusion.spaces()
    if args.triple:
        triple = tuple(args.triple.split(","))
        if triple not in spaces:
            raise ValueError(f"--triple {args.triple!r} names no nonzero space of the bundle")
        spaces = [triple]
    return _print_matrices("pairing", ChiralData(bundle).pairing_matrix, spaces)


def cmd_dual(args) -> int:
    bundle = load_bundle(args.bundle)
    return _print_matrices("dual coefficients", ChiralData(bundle).dual_basis,
                           bundle.fusion.spaces())


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
    from fullfield.lattice import LatticeSpec, checks, emit_bundle

    spec = LatticeSpec(args.k, args.truncate)
    # each named check once, in the order given
    names = list(dict.fromkeys(args.check.split(","))) if args.check else list(LATTICE_CHECKS)
    for name in names:
        if name not in LATTICE_CHECKS:
            raise ValueError(f"unknown lattice check {name!r}; known: {', '.join(LATTICE_CHECKS)}")
    checks._require_tol(args.tol)
    checks._require_samples(args.samples)
    bundle = emit_bundle(spec, seed=args.seed)
    if args.emit_bundle:
        save_bundle(bundle, args.emit_bundle)
        print(f"emitted bundle to {args.emit_bundle}")
    ffa = checks.DiagonalFFA(spec, bundle=bundle)
    reports = []
    for name in names:
        header, runner = LATTICE_CHECKS[name]
        rep = Report(suite=f"lattice-{name}", identity=header)
        rep.records = runner(checks, ffa, args)
        reports.append(rep)
    meta = {"k": args.k, "truncate": args.truncate, "samples": args.samples,
            "seed": args.seed, "tol": args.tol, "checks": names}
    return _emit(reports, args, meta)


def _check_report(obj) -> None:
    """Raise ValueError naming the first field ``report_text`` cannot read."""
    def need(ok, where, what):
        if not ok:
            raise ValueError(f"not a report: {where} {what}")

    need(isinstance(obj, dict) and obj.get("format") == REPORT_FORMAT,
         "format", f"must be {REPORT_FORMAT!r}")
    need(obj.get("verdict") in ("pass", "fail"), "verdict", "must be 'pass' or 'fail'")
    need(isinstance(obj.get("reports"), list), "reports", "must be a list")
    for i, rep in enumerate(obj["reports"]):
        where = f"reports[{i}]"
        need(isinstance(rep, dict), where, "must be an object")
        for key in ("suite", "identity", "verdict", "error"):
            need(isinstance(rep.get(key), str), f"{where}.{key}", "must be a string")
        need(isinstance(rep.get("records"), list), f"{where}.records", "must be a list")
        for j, rec in enumerate(rep["records"]):
            at = f"{where}.records[{j}]"
            need(isinstance(rec, dict) and isinstance(rec.get("status"), str),
                 f"{at}.status", "must be a string")
            if rec["status"] == "fail":
                for key, kind, what in (("identity", str, "a string"), ("index", list, "a list"),
                                        ("message", str, "a string")):
                    need(isinstance(rec.get(key), kind), f"{at}.{key}", f"must be {what}")
                res = rec.get("residual", "")  # null, or a string float() reads
                try:
                    ok = res is None or type(res) is str and float(res) is not None
                except ValueError:
                    ok = False
                need(ok, f"{at}.residual", "must be null or a number string")


def cmd_report(args) -> int:
    with open(args.path, "rb") as fh:
        obj = json.loads(fh.read().decode("utf-8"))
    _check_report(obj)
    if args.format == "json":
        sys.stdout.write(canonical_bytes(obj).decode("utf-8"))
    else:
        print(report_text(obj))
    return 0 if obj["verdict"] == "pass" else 1


def _arg(*flags, **keywords):
    return flags, keywords


_BUNDLE = _arg("bundle")
_REPORT = _arg("--report", help="write the machine-readable report here")
_FORMAT = _arg("--format", choices=("text", "json"), default="text")
_VERBOSE = _arg("--verbose", action="store_true")

# command name -> (help, handler, arguments as (flags, keywords) pairs)
COMMANDS = {
    "validate": ("check the fusion-ring invariants of a bundle", cmd_validate, [_BUNDLE]),
    "pairing": ("print pairing matrices", cmd_pairing,
                [_BUNDLE, _arg("--triple", help="a1,a2,a3 label triple")]),
    "dual": ("print dual-basis coefficient matrices", cmd_dual, [_BUNDLE]),
    "construct": ("assemble the sector-sum structure tensor", cmd_construct,
                  [_BUNDLE, _arg("-o", "--output", required=True)]),
    "verify": ("run verification suites on a bundle", cmd_verify,
               [_BUNDLE, _arg("--suite", help="comma-separated suite names "
                                              f"({', '.join(DEFAULT_SUITES)})"),
                _REPORT, _FORMAT, _VERBOSE]),
    "lattice": ("run the rank-1 lattice backend checks", cmd_lattice,
                [_arg("--k", type=int, required=True), _arg("--truncate", type=int, default=8),
                 _arg("--samples", type=int, default=5), _arg("--seed", type=int, default=1),
                 _arg("--tol", type=float, default=1e-6),
                 _arg("--check", help=f"comma-separated ({', '.join(LATTICE_CHECKS)})"),
                 _arg("--emit-bundle", help="write the derived bundle here"),
                 _REPORT, _FORMAT, _VERBOSE]),
    "report": ("render a saved report", cmd_report, [_arg("path"), _FORMAT]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.  The usage line
    lists every command either way; the full tree keeps argparse's default
    metavar, since a metavar also renames ``command`` in its errors."""
    p = argparse.ArgumentParser(prog="fullfield", description="Construct the diagonal sector-sum "
                                "algebra from chiral fusing data and verify its identities.")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, fn, arguments) in COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flags, keywords in arguments:
                sp.add_argument(*flags, **keywords)
            sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
