import collections
import errno
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from fullfield import cli
from fullfield.bundles import canonical_bytes
from fullfield.chiral import CheckRecord
from fullfield.cli import main
from fullfield.fixtures import fixture_bytes
from fullfield.suites import Report, reports_to_obj

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the benchmark's references for the exact layer and one lattice seed,
# recorded from the same CLI
EXACT_REFS = json.loads((ROOT / "perfbench" / "refs" / "exact_verify.json").read_text())
LATTICE_REF = json.loads((ROOT / "perfbench" / "refs" / "lattice_k1" / "seed_5.json").read_text())
# SHA-256 of the CLI output for that argv; test_report_pinned says how it
# differs from the reference
LATTICE_SHA256 = "9485abacf4c934a532d572947ce7be1a632248c3acb2d934f0aa1f3a215fb107"
# the same digest for the other two seeds of the benchmark's lattice pool
LATTICE_POOL_SHA256 = {
    13: "b1085a805d65bae8894cdd2d940710c2026064b24b3f372a455693439c4bc721",
    29: "12aad65017d51b639ffcc2fe8b857a60763095d414033f49055b5c62dace6163",
}


@pytest.fixture()
def fixture_dir(tmp_path):
    for name in ("trivial", "z2k1", "ising", "mut_fusing", "mut_pairing", "mut_validate"):
        (tmp_path / f"{name}.json").write_bytes(fixture_bytes(name))
    return tmp_path


class TestValidate:
    def test_valid_bundle(self, fixture_dir, capsys):
        assert main(["validate", str(fixture_dir / "ising.json")]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_bundle(self, fixture_dir, capsys):
        assert main(["validate", str(fixture_dir / "mut_validate.json")]) == 1
        assert "unit-duality" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2


class TestVerify:
    def test_paper_suite_set_passes(self, fixture_dir, capsys):
        code = main(["verify", str(fixture_dir / "ising.json"),
                     "--suite", "pentagon,pairing,fusing,s3,ffa-assoc,skew,invariance"])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_mutated_bundle_fails_with_nonzero_exit(self, fixture_dir, capsys):
        code = main(["verify", str(fixture_dir / "mut_fusing.json"),
                     "--suite", "fusing"])
        assert code == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self, fixture_dir, capsys):
        assert main(["verify", str(fixture_dir / "ising.json"),
                     "--suite", "nonsense"]) == 2

    def test_report_reproducible(self, fixture_dir, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for path in (r1, r2):
            assert main(["verify", str(fixture_dir / "z2k1.json"),
                         "--suite", "pentagon,fusing",
                         "--report", str(path), "--format", "json"]) == 0
            # the report file holds the bytes written to stdout
            assert path.read_bytes() == capsys.readouterr().out.encode("utf-8")
        assert r1.read_bytes() == r2.read_bytes()

    def test_canonical_index_out_of_range_is_input_error(self, fixture_dir, tmp_path, capsys):
        obj = json.loads((fixture_dir / "z2k1.json").read_text(encoding="utf-8"))
        obj["chiral"]["canonical"][0]["index"] = 5
        path = tmp_path / "bad_index.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "chiral.canonical[0]" in capsys.readouterr().err

    def test_record_of_wrong_json_type_is_input_error(self, fixture_dir, tmp_path, capsys):
        obj = json.loads((fixture_dir / "trivial.json").read_text(encoding="utf-8"))
        obj["chiral"]["f"] = [1]
        path = tmp_path / "bad_record.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: chiral.f[0]: must be an object, got 1\n"

    def test_json_and_text_verdicts_agree(self, fixture_dir, capsys):
        main(["verify", str(fixture_dir / "mut_fusing.json"), "--suite", "fusing",
              "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "fail"
        main(["verify", str(fixture_dir / "mut_fusing.json"), "--suite", "fusing"])
        assert "overall: FAIL" in capsys.readouterr().out

    def test_every_suite_names_an_identity(self, fixture_dir, capsys):
        main(["verify", str(fixture_dir / "trivial.json"), "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert all(rep["identity"] for rep in obj["reports"])


@pytest.mark.parametrize("op", EXACT_REFS["ops"], ids=lambda op: op["name"])
def test_report_bytes_pinned(op, monkeypatch, capsys):
    # the reports name their bundle by the relative path in argv
    monkeypatch.chdir(ROOT)
    code = main(op["argv"])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == op["exit"]
    assert hashlib.sha256(out).hexdigest() == op["sha256"]


class TestInspection:
    def test_pairing_triple(self, fixture_dir, capsys):
        assert main(["pairing", str(fixture_dir / "ising.json"),
                     "--triple", "sigma,sigma,eps"]) == 0
        assert "pairing" in capsys.readouterr().out

    @pytest.mark.parametrize("triple", ["nope,sigma,eps", "sigma,sigma,sigma", "sigma,sigma"])
    def test_pairing_triple_must_name_a_nonzero_space(self, fixture_dir, triple, capsys):
        assert main(["pairing", str(fixture_dir / "ising.json"), "--triple", triple]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --triple {triple!r} names no nonzero space "
                                "of the bundle\n")
        assert captured.out == ""

    def test_dual(self, fixture_dir, capsys):
        assert main(["dual", str(fixture_dir / "trivial.json")]) == 0
        assert "dual coefficients" in capsys.readouterr().out

    def test_construct_writes_output(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["construct", str(fixture_dir / "z2k1.json"),
                     "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert "ffa" in obj
        assert obj["ffa"]["sectors"] == [["0", "0"], ["1", "1"]]


class TestLattice:
    def test_exact_checks_and_emit(self, tmp_path, capsys):
        out = tmp_path / "z2.json"
        code = main(["lattice", "--k", "1", "--truncate", "6", "--samples", "2",
                     "--seed", "1", "--tol", "1e-6",
                     "--check", "grading,residue", "--emit-bundle", str(out)])
        assert code == 0
        assert out.exists()
        assert main(["verify", str(out), "--suite", "pentagon,dual"]) == 0

    def test_report_pinned(self, capsys):
        argv = ["lattice", "--k", "1", "--truncate", "6", "--format", "json", "--seed", "5"]
        assert argv == LATTICE_REF["argv"]
        assert main(argv) == LATTICE_REF["exit"]
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LATTICE_SHA256
        got, ref = json.loads(out), LATTICE_REF["report"]
        assert {key: got[key] for key in ref if key != "reports"} == \
            {key: ref[key] for key in ref if key != "reports"}
        assert [rep["suite"] for rep in got["reports"]] == [rep["suite"] for rep in ref["reports"]]
        for rep, rrep in zip(got["reports"], ref["reports"]):
            if rep["suite"] == "lattice-assoc":
                # the reference predates the count of stable nonzero entries
                for rec in rep["records"]:
                    rec["message"] = re.sub(r" \(\d+ nonzero\)", "", rec["message"])
            if rep["suite"] != "lattice-jacobi":
                # residuals are strings in the report, so this compares them exactly
                assert rep == rrep
                continue
            # the reference holds the quadrature's residuals; the residue sums
            # keep every record's identity, index, path and status
            assert {k: v for k, v in rep.items() if k != "records"} == \
                {k: v for k, v in rrep.items() if k != "records"}
            keys = ("identity", "index", "path", "status")
            assert [[rec[k] for k in keys] for rec in rep["records"]] == \
                [[rec[k] for k in keys] for rec in rrep["records"]]

    @pytest.mark.parametrize("seed", sorted(LATTICE_POOL_SHA256))
    def test_pool_seed_report_pinned(self, seed, capsys):
        argv = LATTICE_REF["argv"][:-1] + [str(seed)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LATTICE_POOL_SHA256[seed]

    def test_jacobi_passes_at_the_default_truncation(self, capsys):
        assert main(["lattice", "--k", "1", "--seed", "0", "--check", "jacobi"]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("truncate", ["1", "2"])
    def test_low_truncation_assoc_is_usage_error(self, truncate, capsys):
        assert main(["lattice", "--k", "1", "--truncate", truncate, "--check", "assoc"]) == 2
        assert "needs truncation >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("k, truncate", [("1", "3"), ("1", "4"), ("2", "3")])
    def test_vanishing_increment_assoc_is_usage_error(self, k, truncate, capsys):
        # the iterate does not move from T - 2 to T here, so its convergence
        # ratio would read 0 and fail every record of the correct model
        assert main(["lattice", "--k", k, "--truncate", truncate, "--check", "assoc"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: associativity sample 0 at T = {truncate}: "
                                       "the backward increment |value(T-2) - value(T)| of the "
                                       "iterate is exactly 0")
        assert captured.out == ""

    @pytest.mark.parametrize("check, tol", [
        *(("skew,jacobi", tol) for tol in ("inf", "-inf", "nan", "0", "-1", "1")),
        ("grading", "inf"),
    ])
    def test_tol_outside_the_open_unit_interval_is_usage_error(self, check, tol, capsys):
        # inf and 1 pass every numeric record, while nan, 0 and -1 fail the
        # correct model; every check list refuses them, before any work
        assert main(["lattice", "--k", "1", "--truncate", "6", "--check", check,
                     f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: a numeric check needs a finite tol with 0 < tol < 1, "
                                f"got {float(tol)}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_no_samples_is_usage_error(self, samples, capsys):
        # no sample means no record, which used to read "0/0 checks passed"
        assert main(["lattice", "--k", "1", "--truncate", "4", "--samples", samples,
                     "--check", "assoc,skew"]) == 2
        captured = capsys.readouterr()
        assert f"needs samples >= 1, got {samples}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("check", ["grading", "assoc,skew"])
    def test_no_samples_is_refused_before_any_work(self, check, monkeypatch, capsys):
        # every check list refuses samples < 1 before the bundle is emitted;
        # --check grading, which takes no sample, used to exit 0
        def no_emit(*args, **kwargs):
            raise AssertionError("emit_bundle was called")

        monkeypatch.setattr("fullfield.lattice.emit_bundle", no_emit)
        assert main(["lattice", "--k", "6", "--truncate", "12", "--samples", "0",
                     "--check", check]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: a sampled check needs samples >= 1, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("check", ["grading", "residue"])
    @pytest.mark.parametrize("k, T", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_truncation_below_two_levels_is_usage_error(self, check, k, T, capsys):
        # both checks read states two levels above each lowest weight
        # h_a <= k/4; at T = 1 and 2 the correct model failed identity,
        # creation and dressed-mixed records, and at T = 3 it passes
        assert main(["lattice", "--k", str(k), "--truncate", str(T), "--check", check]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: the {check} check reads states two levels above each "
                                f"sector's lowest weight and needs truncation >= 3 at k = {k}, "
                                f"got {T}\n")
        assert captured.out == ""
        assert main(["lattice", "--k", str(k), "--truncate", "3", "--check", check]) == 0

    def test_unsolvable_level_is_reported(self, capsys):
        # at k = 3 the sigma constraints contradict each other; the error
        # names the first contradicted constraint instead of a traceback
        assert main(["lattice", "--k", "3", "--check", "grading"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no S3 action")
        assert "'kind': 'pairing'" in captured.err and "('2', '2', '4')" in captured.err
        assert captured.out == ""

    def test_unknown_check_is_usage_error(self):
        assert main(["lattice", "--k", "1", "--check", "bogus"]) == 2

    def test_level_outside_the_oracle_envelope_is_usage_error(self, capsys):
        # the oracle's four-point fits at the default truncation find too few
        # matches at k = 5; an input error, not a violation
        assert main(["lattice", "--k", "5", "--check", "grading"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "sectors (0,3,6)" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_repeated_check_runs_once(self, capsys):
        assert main(["lattice", "--k", "1", "--truncate", "6", "--check", "grading,grading",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [rep["suite"] for rep in obj["reports"]] == ["lattice-grading"]
        assert obj["meta"]["checks"] == ["grading"]

    def test_unknown_check_names_every_check(self, capsys):
        names = "assoc, skew, grading, virasoro, residue, jacobi"
        assert main(["lattice", "--k", "1", "--check", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown lattice check 'nope'; known: {names}\n"
        assert captured.out == ""
        with pytest.raises(SystemExit):
            main(["lattice", "--help"])
        assert f"comma-separated ({names})" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "{dir}"], id="verify"),
    pytest.param(["report", "{dir}"], id="report"),
    pytest.param(["construct", "{dir}/z2k1.json", "-o", "{dir}"], id="construct"),
    pytest.param(["verify", "{dir}/trivial.json", "--report", "{dir}"], id="verify-report"),
])
def test_directory_is_input_error(argv, fixture_dir, capsys):
    # an OSError other than a missing file is an input error too, not a crash
    assert main([a.format(dir=fixture_dir) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno {errno.EISDIR}] Is a directory: '{fixture_dir}'\n"
    assert captured.out == ""


def _outcome(argv, capsys):
    """(exit status, stdout, stderr) of ``main(argv)``, argparse exits included."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestParser:
    """``main`` builds the dispatched command's parser alone; every outcome
    must be the one the parser of every command gives."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["nope"],
        *([name, "--help"] for name in cli.COMMANDS),
        ["verify"], ["lattice"], ["construct", "x.json"],
        ["verify", "x.json", "--format", "yaml"], ["report", "r.json", "--format", "xml"],
        ["verify", "x.json", "--bogus"], ["lattice", "--k", "1", "--check", "nope"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_outcome_is_the_full_tree_outcome(self, argv, monkeypatch, capsys):
        got = _outcome(argv, capsys)
        full_tree = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_tree())
        assert got == _outcome(argv, capsys)

    def test_usage_lists_every_command(self, capsys):
        status, out, err = _outcome(["verify", "x.json", "--bogus"], capsys)
        assert status == 2 and out == ""
        # argparse wraps the usage line at the terminal width
        assert " ".join(err.split()) == ("usage: fullfield [-h] {" + ",".join(cli.COMMANDS) + "} "
                                         "... fullfield: error: unrecognized arguments: --bogus")

    @pytest.mark.parametrize("argv, error", [
        ([], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope'"),
    ])
    def test_errors_name_the_command_argument(self, argv, error, capsys):
        # a metavar on the full tree would rename "command" in these errors
        status, out, err = _outcome(argv, capsys)
        assert status == 2 and out == "" and f"fullfield: error: {error}" in err

    def test_main_reads_sys_argv(self, fixture_dir, monkeypatch, capsys):
        argv = ["verify", str(fixture_dir / "trivial.json"), "--format", "json"]
        want = _outcome(argv, capsys)
        assert want[0] == 0 and want[1].startswith("{")
        monkeypatch.setattr(sys, "argv", ["fullfield", *argv])
        assert _outcome(None, capsys) == want
        monkeypatch.setattr(sys, "argv", ["fullfield", "nope"])
        status, out, err = _outcome(None, capsys)
        assert status == 2 and out == "" and "invalid choice: 'nope'" in err


def test_import_loads_neither_numpy_nor_the_lattice_package():
    # the exact commands start without numpy; only cmd_lattice imports it
    code = ("import sys, fullfield.cli; "
            "print(sorted({'numpy', 'fullfield.lattice'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"


def test_the_oracle_and_the_fixture_script_leave_numpy_unloaded():
    # the lattice package exports its exact half alone; only the numeric
    # checks in fullfield.lattice.checks load numpy
    script = ROOT / "scripts" / "make_fixtures.py"
    steps = [
        "import fullfield.lattice",
        "from fullfield.lattice import LatticeSpec, emit_bundle; emit_bundle(LatticeSpec(1, 8))",
        "emit_bundle(LatticeSpec(2, 8))",
        "from fullfield.lattice import lattice_fusion; import fullfield.solver as solver; "
        "solver.solve_pentagon(lattice_fusion(2), 16)",
        "import importlib.util; spec = importlib.util.spec_from_file_location('make_fixtures', "
        f"{str(script)!r}); spec.loader.exec_module(importlib.util.module_from_spec(spec))",
    ]
    code = "import sys\n" + "".join(f"{step}\nprint('numpy' in sys.modules)\n" for step in steps)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "False\n" * len(steps)


class TestReportCommand:
    def test_roundtrip(self, fixture_dir, tmp_path, capsys):
        path = tmp_path / "rep.json"
        main(["verify", str(fixture_dir / "trivial.json"), "--report", str(path)])
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        text = capsys.readouterr().out
        assert "overall: PASS" in text
        assert main(["report", str(path), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "pass"

    @pytest.mark.parametrize("argv", [
        pytest.param(["verify", "{dir}/ising.json"], id="verify"),
        pytest.param(["lattice", "--k", "1", "--truncate", "6", "--seed", "5"], id="lattice-k1"),
    ])
    def test_json_output_is_the_report_file(self, argv, fixture_dir, tmp_path, capsys):
        # --format json writes the canonical bytes of the report it read
        path = tmp_path / "rep.json"
        main([a.format(dir=fixture_dir) for a in argv] + ["--report", str(path)])
        capsys.readouterr()
        main(["report", str(path), "--format", "json"])
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()

    @pytest.mark.parametrize("argv, shown", [
        pytest.param(["verify", "{dir}/mut_pairing.json"], "  error: pairing(", id="verify"),
        pytest.param(["lattice", "--k", "1", "--truncate", "6", "--seed", "17",
                      "--check", "jacobi,grading"], " residual=", id="lattice-k1"),
    ])
    def test_text_is_the_text_the_command_printed(self, argv, shown, fixture_dir, tmp_path,
                                                  capsys):
        # errors, residuals and pass counts included
        path = tmp_path / "rep.json"
        assert main([a.format(dir=fixture_dir) for a in argv] + ["--report", str(path)]) == 1
        printed = capsys.readouterr().out
        assert shown in printed and "checks passed" in printed
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().out == printed

    def test_text_counts_the_records_it_leaves_out(self, tmp_path, capsys):
        rep = Report(suite="many", identity="more failing records than the text lists",
                     records=[CheckRecord("x", (i,), "fail") for i in range(203)])
        path = tmp_path / "rep.json"
        path.write_bytes(canonical_bytes(reports_to_obj([rep], meta={})))
        assert main(["report", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [*(f"  FAIL x ({i},)" for i in range(200)),
                             "  ... 3 more records left out; --format json holds them all",
                             "  0/203 checks passed", "overall: FAIL"]

    @pytest.mark.parametrize("edit, where", [
        pytest.param(lambda o: [1], "format", id="list"),
        pytest.param(lambda o: {"reports": 3}, "format", id="no-format"),
        pytest.param(lambda o: {**o, "reports": 3}, "reports", id="reports-not-list"),
        pytest.param(lambda o: {**o, "verdict": None}, "verdict", id="no-verdict"),
        pytest.param(lambda o: o["reports"][0].pop("identity") and o, "reports[0].identity",
                     id="no-identity"),
        pytest.param(lambda o: o["reports"][1]["records"][0].pop("status") and o,
                     "reports[1].records[0].status", id="no-status"),
        pytest.param(lambda o: o["reports"][2].update(error=None) or o, "reports[2].error",
                     id="error-not-string"),
        pytest.param(lambda o: o["reports"][1].pop("records") and o, "reports[1].records",
                     id="no-records"),
        *(pytest.param(lambda o, res=res: o["reports"][1]["records"][0].update(
            status="fail", residual=res) or o, "reports[1].records[0].residual",
            id=f"residual-{res}") for res in ("x", 0.5, [])),
        pytest.param(lambda o: json.loads(fixture_bytes("trivial")), "format", id="bundle"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_refuses_what_is_not_a_report(self, fixture_dir, tmp_path, capsys, edit, where, fmt):
        path = tmp_path / "rep.json"
        main(["verify", str(fixture_dir / "trivial.json"), "--report", str(path)])
        capsys.readouterr()
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["report", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: not a report: {where} must be")


def test_caches_stay_per_instance(fixture_dir, monkeypatch, capsys):
    # every verify builds its own field and chiral data, so a second run in
    # the same process redoes every elimination and every square root
    from fullfield import cyclotomic, linalg

    counts = collections.Counter()
    solve, sqrt = linalg.solve, cyclotomic.CycField._sqrt_uncached
    monkeypatch.setattr(linalg, "solve", lambda *a: counts.update(["solve"]) or solve(*a))
    monkeypatch.setattr(cyclotomic.CycField, "_sqrt_uncached",
                        lambda field, a: counts.update(["sqrt"]) or sqrt(field, a))
    runs = []
    for _ in range(2):
        counts.clear()
        assert main(["verify", str(fixture_dir / "ising.json"), "--format", "json"]) == 0
        runs.append(dict(counts))
    capsys.readouterr()
    assert runs[0] == runs[1] and runs[0]["solve"] > 0 and runs[0]["sqrt"] > 0
