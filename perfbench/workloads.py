"""The benchmark's workloads: set-up, one pass from fresh objects, output gate.

``ops`` lists one pass as ``(op, thunk)`` pairs built from fresh objects;
``check`` compares one op's output with the references under
``perfbench/refs`` and returns ``(ok, detail)``.  An op fails if it raised,
exited with the wrong status, or its output differs from the reference.
``fullfield`` is imported inside ``setup`` so that the set-up time includes
the import.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

LATTICE_ARGV = ("lattice", "--k", "1", "--truncate", "6", "--format", "json")
# Tolerances of the numeric lattice checks as the CLI runs them (--tol
# default 1e-6; jacobi uses max(tol, 1e-5)).
LATTICE_TOL = {"lattice-assoc": 1e-6, "lattice-skew": 1e-6, "lattice-jacobi": 1e-5}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv) -> tuple[int, bytes]:
    """``fullfield.cli.main`` in-process: (exit status, stdout bytes)."""
    from fullfield.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class ExactVerify:
    """``verify --format json`` on the 12 bundles that load strictly, plus
    ``validate`` on ``mut_validate``; the seed does not apply."""

    name = "exact-verify"
    seeded = False

    def setup(self, seed: int):
        import fullfield.cli  # noqa: F401

        ops = _read_json(REFS / "exact_verify.json")["ops"]
        for op in ops:  # the inputs; each pass parses them again through the CLI
            (ROOT / op["argv"][1]).read_bytes()
        return ops

    def ops(self, ops):
        return [(op["name"], functools.partial(run_cli, op["argv"])) for op in ops]

    def check(self, ops, name, output):
        code, out = output
        want = next(op for op in ops if op["name"] == name)
        ok = code == want["exit"] and sha256(out) == want["sha256"]
        return ok, f"exit {code}, {len(out)} bytes"


class LatticeK1:
    """``lattice --k 1 --truncate 6 --format json`` with all six checks at the
    default samples and tol; the seed selects the lattice ``--seed``."""

    name = "lattice-k1"
    seeded = True

    def __init__(self, argv=LATTICE_ARGV):
        self.argv = tuple(argv)

    @staticmethod
    def lattice_seed(seed: int) -> int:
        pool = _read_json(REFS / "lattice_k1" / "pool.json")["seeds"]
        return pool[seed % len(pool)]

    def setup(self, seed: int):
        import fullfield.cli  # noqa: F401
        import fullfield.lattice  # noqa: F401

        lseed = self.lattice_seed(seed)
        return lseed, _read_json(REFS / "lattice_k1" / f"seed_{lseed}.json")

    def ops(self, state):
        lseed, _ref = state
        return [("lattice", functools.partial(run_cli, self.argv + ("--seed", str(lseed))))]

    def check(self, state, name, output):
        _lseed, ref = state
        code, out = output
        if code != ref["exit"]:
            return False, f"exit {code}, want {ref['exit']}"
        try:
            got = json.loads(out.decode("utf-8"))
        except ValueError as exc:
            return False, f"report is not JSON: {exc}"
        diff = report_diff(got, ref["report"])
        return diff is None, diff or "matches"


def report_diff(got: dict, ref: dict) -> str | None:
    """First difference between two lattice reports, or None.

    Exact-path records must be equal field by field.  Numeric records must
    keep identity, index, path and status, and their residual must stay
    within the check's tolerance of the reference residual.
    """
    for key in ("format", "meta", "verdict"):
        if got.get(key) != ref.get(key):
            return f"{key} differs"
    if len(got["reports"]) != len(ref["reports"]):
        return "report count differs"
    for rep, rrep in zip(got["reports"], ref["reports"]):
        suite = rrep["suite"]
        for key in ("suite", "identity", "verdict", "error"):
            if rep.get(key) != rrep.get(key):
                return f"{suite}: {key} differs"
        if len(rep["records"]) != len(rrep["records"]):
            return f"{suite}: record count differs"
        for i, (rec, rrec) in enumerate(zip(rep["records"], rrep["records"])):
            if rrec["path"] != "numeric":
                if rec != rrec:
                    return f"{suite} record {i} differs"
                continue
            for key in ("identity", "index", "path", "status"):
                if rec[key] != rrec[key]:
                    return f"{suite} record {i}: {key} differs"
            tol = LATTICE_TOL[suite]
            if abs(float(rec["residual"]) - float(rrec["residual"])) > tol:
                return f"{suite} record {i}: residual {rec['residual']} vs {rrec['residual']}"
    return None


def make_fixtures_module():
    """``scripts/make_fixtures.py``, for its fusion tables and markers."""
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Fixtures:
    """Regenerate z2k1, z4k2, ising and fibonacci and compare them with the
    shipped bytes; then criterion 8 at k=1 and k=2.  The seed does not apply."""

    name = "fixtures"
    seeded = False

    def __init__(self, lattice_ks=(1, 2)):
        self.lattice_ks = tuple(lattice_ks)

    def setup(self, seed: int):
        import fullfield.bundles  # noqa: F401
        import fullfield.lattice  # noqa: F401
        import fullfield.solver  # noqa: F401

        return make_fixtures_module(), _read_json(REFS / "fixtures.json")

    def ops(self, state):
        from fullfield.bundles import bundle_to_obj, canonical_bytes
        from fullfield.lattice import LatticeSpec, emit_bundle

        mf, _ref = state
        emitted = {}  # criterion 8 reads the bundles the fixture ops emit

        def lattice_fixture(k):
            emitted[k] = emit_bundle(LatticeSpec(k, 8), seed=1)
            return canonical_bytes(bundle_to_obj(emitted[k]))

        def solver_fixture(fusion, solve_order, field_order, name):
            return canonical_bytes(bundle_to_obj(
                solver_bundle(mf, fusion(), solve_order, field_order, name)))

        ops = [(f"z{2 * k}k{k}", functools.partial(lattice_fixture, k))
               for k in self.lattice_ks]
        ops.append(("ising", functools.partial(
            solver_fixture, mf.ising_fusion, 16, 32, "ising")))
        ops.append(("fibonacci", functools.partial(
            solver_fixture, mf.fibonacci_fusion, 20, 20, "fibonacci")))
        ops += [(f"criterion8_k{k}", lambda k=k: oracle_among_solutions(k, emitted[k]))
                for k in self.lattice_ks]
        return ops

    def check(self, state, name, output):
        _mf, ref = state
        if name in ref["fixtures"]:
            ok = sha256(output) == ref["fixtures"][name]["sha256"]
            return ok, f"{len(output)} bytes"
        return output == ref["criterion8"][name], f"member {output}"


def with_pins(fusion, field, assignment: dict) -> dict:
    """``assignment`` plus the pinned unit-slot entries it lacks, appended."""
    from fullfield.solver import admissible_tuples, pinned_value

    full = dict(assignment)
    for key in admissible_tuples(fusion):
        if key not in full:
            pin = pinned_value(fusion, key, field)
            if pin:
                full[key] = pin
    return full


def solver_bundle(mf, fusion, solve_order: int, field_order: int, name: str):
    """Pentagon solution 0 lifted into Q(zeta_field_order), then solve_sigma."""
    from fullfield.bundles import Bundle
    from fullfield.cyclotomic import CycField
    from fullfield.solver import solve_pentagon, solve_sigma

    field = CycField(field_order)
    scale = field_order // solve_order
    sol = solve_pentagon(fusion, solve_order)[0]
    lifted = {key: field.scalar({e * scale: c for e, c in val.coeffs.items()})
              for key, val in sol.items()}
    f = {(key, (0, 0, 0, 0)): val for key, val in with_pins(fusion, field, lifted).items()}
    sigma12, sigma23 = solve_sigma(field, fusion, f)
    return Bundle(field=field, fusion=fusion, f=f, sigma12=sigma12, sigma23=sigma23,
                  canonical=mf.canonical_markers(fusion),
                  provenance={"generator": f"pentagon-solver:{name}",
                              "solution_index": 0, "version": "0.1.0"})


def oracle_among_solutions(k: int, bundle) -> bool:
    """Criterion 8: the oracle's F, pins filled in, is a pentagon solution."""
    from fullfield.lattice import lattice_fusion
    from fullfield.solver import solve_pentagon

    fusion = lattice_fusion(k)
    oracle_f = {key: val for (key, _), val in bundle.f.items()}
    return any(with_pins(fusion, bundle.field, sol) == oracle_f
               for sol in solve_pentagon(fusion, 8 * k))


WORKLOADS = {w.name: w for w in (ExactVerify(), LatticeK1(), Fixtures())}
