"""Suite orchestration and reports.

Each suite wraps one family of identity checks; ``run_suites`` resolves the
declared prerequisites, executes in dependency order, and assembles
deterministic reports (their JSON rendering, ``bundles.canonical_bytes``,
is byte-stable for a fixed bundle, seed and flag set).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from fullfield import ffa as ffa_mod
from fullfield.bundles import Bundle, BundleError
from fullfield.chiral import CheckRecord, ChiralData
from fullfield.fusion import Violation


@dataclass
class Report:
    suite: str
    identity: str
    records: list = dc_field(default_factory=list)
    error: str = ""

    @property
    def verdict(self) -> str:
        if self.error:
            return "fail"
        return "fail" if any(r.status == "fail" for r in self.records) else "pass"

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "identity": self.identity,
            "verdict": self.verdict,
            "error": self.error,
            "records": [
                {
                    "identity": r.identity,
                    "index": list(r.index),
                    "status": r.status,
                    "path": r.path,
                    "residual": None if r.residual is None else repr(r.residual),
                    "message": r.message,
                }
                for r in self.records
            ],
        }

    def to_text(self, verbose: bool = False) -> str:
        lines = [f"suite {self.suite} [{self.identity}]: {self.verdict.upper()}"]
        if self.error:
            lines.append(f"  error: {self.error}")
        shown = self.records if verbose else [r for r in self.records if r.status == "fail"]
        for r in shown[:200]:
            lines.append("  " + str(r))
        passed = sum(1 for r in self.records if r.status == "pass")
        lines.append(f"  {passed}/{len(self.records)} checks passed")
        return "\n".join(lines)


def _records_from_violations(violations: list[Violation]) -> list[CheckRecord]:
    out = [CheckRecord("fusion-invariant", v.labels, "fail", message=v.message)
           for v in violations]
    if not out:
        out = [CheckRecord("fusion-invariant", (), "pass")]
    return out


class SuiteInputs:
    """What the suite runners of one ``run_suites`` call read.

    ``ffa.construct`` runs on first use, once for every FFA suite; a
    ``construct`` error is kept and raised again for each of them.
    """

    def __init__(self, chiral: ChiralData):
        self.chiral = chiral

    @cached_property
    def _refusal(self) -> BundleError | None:
        try:
            ffa_mod.construct(self.chiral)
        except BundleError as exc:
            return exc
        return None

    def ffa(self) -> ChiralData:
        if self._refusal is not None:
            raise self._refusal
        return self.chiral


def _suite_validate(chiral: ChiralData):
    return _records_from_violations(
        chiral.fusion.validate(field_order=chiral.field.order))


def _suite_s3(chiral: ChiralData):
    return chiral.verify_s3_relations() + chiral.verify_s3_invariance()


def _on_chiral(check):
    def run(inputs: SuiteInputs):
        return check(inputs.chiral)
    return run


def _on_ffa(check):
    def run(inputs: SuiteInputs):
        return check(inputs.ffa())
    return run


# suite name -> (identity header, prerequisites, runner)
SUITES: dict[str, tuple[str, tuple[str, ...], object]] = {
    "validate": ("fusion-ring invariants", (), _on_chiral(_suite_validate)),
    "pentagon": ("reassociation consistency of the fusing tensor", (),
                 _on_chiral(ChiralData.verify_pentagon)),
    "pairing": ("intertwiner-space pairing symmetry and canonical values",
                ("validate",), _on_chiral(ChiralData.verify_pairing_properties)),
    "nondegeneracy": ("pairing nondegeneracy and the left-inverse normalization",
                      ("validate",), _on_chiral(ChiralData.verify_nondegeneracy)),
    "dual": ("dual-basis duality and canonical duals", ("nondegeneracy",),
             _on_chiral(ChiralData.verify_dual_basis)),
    "fusing": ("fusing-tensor delta contraction against dual bases",
               ("nondegeneracy",), _on_chiral(ChiralData.verify_prop_fusing)),
    "s3": ("S3-action relations and sqrt-weighted form invariance",
           ("nondegeneracy",), _on_chiral(_suite_s3)),
    "ffa-assoc": ("structure-level associativity of the sector-sum algebra",
                  ("nondegeneracy",), _on_ffa(ffa_mod.verify_associativity_structure)),
    "skew": ("structure-level skew symmetry with cancelling phases",
             ("nondegeneracy",), _on_ffa(ffa_mod.verify_skew_symmetry_structure)),
    "single-valued": ("integral left/right weight difference per sector",
                      ("nondegeneracy",), _on_ffa(ffa_mod.verify_single_valuedness)),
    "invariance": ("invariance of the sector bilinear form",
                   ("nondegeneracy",), _on_ffa(ffa_mod.verify_invariance_structure)),
    "unit": ("unit sector acts by canonical blocks",
             ("nondegeneracy",), _on_ffa(ffa_mod.verify_unit_blocks)),
}

DEFAULT_SUITES = ("validate", "pentagon", "pairing", "nondegeneracy", "dual",
                  "fusing", "s3", "ffa-assoc", "skew", "single-valued",
                  "invariance", "unit")


class UnknownSuiteError(ValueError):
    pass


def resolve_suites(names) -> list[str]:
    """Requested suites plus prerequisites, in dependency order."""
    for name in names:
        if name not in SUITES:
            raise UnknownSuiteError(
                f"unknown suite {name!r}; known: {', '.join(DEFAULT_SUITES)}")
    wanted: set[str] = set()

    def add(name):
        if name in wanted:
            return
        for dep in SUITES[name][1]:
            add(dep)
        wanted.add(name)

    for name in names:
        add(name)
    return [name for name in DEFAULT_SUITES if name in wanted]


def run_suites(bundle: Bundle, names=None) -> list[Report]:
    order = resolve_suites(names if names else DEFAULT_SUITES)
    inputs = SuiteInputs(ChiralData(bundle))
    reports = []
    for name in order:
        identity, _deps, runner = SUITES[name]
        rep = Report(suite=name, identity=identity)
        try:
            rep.records = runner(inputs)
        except BundleError as exc:
            rep.error = str(exc)
        reports.append(rep)
    return reports


def reports_to_obj(reports: list[Report], meta: dict | None = None) -> dict:
    return {
        "format": "ffa-report-v1",
        "meta": meta or {},
        "verdict": "pass" if all(r.verdict == "pass" for r in reports) else "fail",
        "reports": [r.to_obj() for r in reports],
    }


def reports_to_text(reports: list[Report], verbose: bool = False) -> str:
    body = "\n".join(r.to_text(verbose=verbose) for r in reports)
    verdict = "pass" if all(r.verdict == "pass" for r in reports) else "fail"
    return f"{body}\noverall: {verdict.upper()}"
