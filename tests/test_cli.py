import hashlib
import json
import pathlib
import re
import shutil

import pytest

from fullfield.cli import main
from fullfield.fixtures import fixture_bytes

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
    for name in ("trivial", "z2k1", "ising", "mut_fusing", "mut_validate"):
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

    def test_report_reproducible(self, fixture_dir, tmp_path):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for path in (r1, r2):
            assert main(["verify", str(fixture_dir / "z2k1.json"),
                         "--suite", "pentagon,fusing",
                         "--report", str(path), "--format", "json"]) == 0
        assert r1.read_bytes() == r2.read_bytes()

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

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_no_samples_is_usage_error(self, samples, capsys):
        # no sample means no record, which used to read "0/0 checks passed"
        assert main(["lattice", "--k", "1", "--truncate", "4", "--samples", samples,
                     "--check", "assoc,skew"]) == 2
        captured = capsys.readouterr()
        assert f"needs samples >= 1, got {samples}" in captured.err
        assert captured.out == ""

    def test_unknown_check_is_usage_error(self):
        assert main(["lattice", "--k", "1", "--check", "bogus"]) == 2


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
