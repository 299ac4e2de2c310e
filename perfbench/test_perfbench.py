"""The benchmark's own tests: exact counts repeat, and the output gate can fail.

    python3 -m pytest -q perfbench/test_perfbench.py

The traced workloads run at minimal size: a few bundles, the cheap lattice
checks at truncation 4, and fixtures at k=1 only.
"""

from __future__ import annotations

import copy
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MINIMAL_BUNDLES = ("verify trivial", "verify z2k1", "verify fibonacci", "validate mut_validate")


def minimal_workloads():
    return [
        (workloads.ExactVerify(), 0),
        (workloads.LatticeK1(argv=("lattice", "--k", "1", "--truncate", "4",
                                   "--check", "grading,residue", "--format", "json")), 1),
        (workloads.Fixtures(lattice_ks=(1,)), 0),
    ]


def minimal_state(workload, seed):
    state = workload.setup(seed)
    if isinstance(workload, workloads.ExactVerify):
        state = [op for op in state if op["name"] in MINIMAL_BUNDLES]
    return state


def traced_counts(workload, state) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(workload, state, [])
    finally:
        tracer.uninstall()
    summary = tracer.summary(1.0)
    return {**summary["calls"], **summary["counts"]}


def test_counts_repeat_exactly():
    os.chdir(workloads.ROOT)
    for workload, seed in minimal_workloads():
        state = minimal_state(workload, seed)
        first = traced_counts(workload, state)
        second = traced_counts(workload, state)
        assert first, workload.name
        assert first == second, workload.name


def test_tracer_restores_every_attribute():
    from fullfield import suites
    from fullfield.lattice import checks, oracle

    before = (oracle.emit_bundle, checks.emit_bundle, checks.DiagonalFFA.apply,
              dict(suites.SUITES))
    tracer = Tracer()
    tracer.install()
    assert checks.emit_bundle is not before[1]
    assert checks.emit_bundle is oracle.emit_bundle
    tracer.uninstall()
    assert (oracle.emit_bundle, checks.emit_bundle, checks.DiagonalFFA.apply,
            dict(suites.SUITES)) == before


def _fail_frac(rows) -> float:
    return sum(1 for _op, ok, _d in rows if not ok) / len(rows)


def test_flipped_reference_byte_counts_as_failed_op():
    os.chdir(workloads.ROOT)
    workload = workloads.ExactVerify()
    ops = minimal_state(workload, 0)
    _passes, rows = run.measure(workload, ops, 0)
    assert _fail_frac(rows) == 0
    bad = copy.deepcopy(ops)
    digest = bad[0]["sha256"]
    bad[0]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    _passes, rows = run.measure(workload, bad, 0)
    assert [op for op, ok, _d in rows if not ok] == [bad[0]["name"]]
    assert _fail_frac(rows) > 0


def test_negated_f_entry_counts_as_failed_op(monkeypatch):
    import fullfield.lattice as lattice

    real = lattice.emit_bundle

    def emit_negated(spec, seed=None):
        bundle = real(spec, seed=seed)
        key = (("0",) * 6, (0, 0, 0, 0))  # a unit-slot entry pinned to 1
        bundle.f[key] = -bundle.f[key]
        return bundle

    monkeypatch.setattr(lattice, "emit_bundle", emit_negated)
    workload = workloads.Fixtures(lattice_ks=(1,))
    state = workload.setup(0)
    _passes, rows = run.measure(workload, state, 0)
    failed = {op for op, ok, _d in rows if not ok}
    assert {"z2k1", "criterion8_k1"} <= failed
    assert {"ising", "fibonacci"}.isdisjoint(failed)
    assert _fail_frac(rows) > 0


def test_lattice_gate_tolerates_only_what_the_check_tolerates():
    lseed = workloads.LatticeK1.lattice_seed(0)
    ref = workloads._read_json(workloads.REFS / "lattice_k1" / f"seed_{lseed}.json")["report"]
    assert workloads.report_diff(copy.deepcopy(ref), ref) is None

    def first(report, path):
        for rep in report["reports"]:
            for rec in rep["records"]:
                if rec["path"] == path:
                    return rep["suite"], rec
        raise AssertionError(path)

    got = copy.deepcopy(ref)
    suite, rec = first(got, "numeric")
    rec["residual"] = repr(float(rec["residual"]) + workloads.LATTICE_TOL[suite] / 2)
    assert workloads.report_diff(got, ref) is None
    rec["residual"] = repr(float(rec["residual"]) + 2 * workloads.LATTICE_TOL[suite])
    assert "residual" in workloads.report_diff(got, ref)

    got = copy.deepcopy(ref)
    _suite, rec = first(got, "exact")
    rec["message"] += "."
    assert workloads.report_diff(got, ref) is not None

    got = copy.deepcopy(ref)
    _suite, rec = first(got, "numeric")
    rec["status"] = "fail" if rec["status"] == "pass" else "pass"
    assert "status" in workloads.report_diff(got, ref)


def test_raising_op_counts_as_failed_op_and_the_run_reports(monkeypatch, capsys):
    os.chdir(workloads.ROOT)
    workload = workloads.ExactVerify()
    ops = minimal_state(workload, 0)
    from fullfield import cli

    real = cli.main

    def main(argv):
        if argv == ops[1]["argv"]:
            raise KeyError("fault in the program")
        if argv == ops[2]["argv"]:
            raise SystemExit(2)  # as argparse does on a usage error
        return real(argv)

    monkeypatch.setattr(cli, "main", main)
    _passes, rows = run.measure(workload, ops, 0)
    failed = [op for op, ok, _d in rows if not ok]
    assert failed == [ops[1]["name"], ops[2]["name"]]
    assert _fail_frac(rows) > 0

    monkeypatch.setattr(run, "probe_setup", lambda name, seed: 0.1)
    monkeypatch.setattr(run.WORKLOADS["exact-verify"], "setup", lambda seed: ops)
    args = run.argparse.Namespace(workload="exact-verify", seed=0, seconds=0, trace=0,
                                  setup_probe=False)
    assert run.run_workload(args) == 0
    result = run.json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == len(ops)
    assert result["metrics"]["ok_frac"]["value"] < 1
