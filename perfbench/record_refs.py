#!/usr/bin/env python3
"""Record the reference outputs the benchmark's output gate compares with.

    python3 perfbench/record_refs.py

Run once, at the commit whose outputs are the references.  A change that
claims a speed-up must not re-record them: its outputs must match these.
The lattice seeds recorded are those of ``refs/lattice_k1/pool.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    LATTICE_ARGV,
    REFS,
    Fixtures,
    make_fixtures_module,
    run_cli,
    sha256,
)

FIXTURE_DIR = Path("src") / "fullfield" / "fixtures"


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def record_exact_verify() -> None:
    from fullfield.fixtures import MUTATIONS, REGULAR

    ops = []
    for name in REGULAR + MUTATIONS:
        if name == "mut_validate":  # verify rejects it with exit 2 by design
            continue
        ops.append({"name": f"verify {name}",
                    "argv": ["verify", str(FIXTURE_DIR / f"{name}.json"), "--format", "json"],
                    "want_exit": 1 if name in MUTATIONS else 0})
    ops.append({"name": "validate mut_validate",
                "argv": ["validate", str(FIXTURE_DIR / "mut_validate.json")],
                "want_exit": 1})
    for op in ops:
        code, out = run_cli(op["argv"])
        if code != op.pop("want_exit"):
            raise SystemExit(f"{op['name']}: unexpected exit {code}")
        op.update(exit=code, sha256=sha256(out), bytes=len(out))
    write_json(REFS / "exact_verify.json", {"ops": ops})


def record_fixtures() -> None:
    outputs = {name: thunk() for name, thunk in Fixtures().ops((make_fixtures_module(), None))}
    fixtures = {}
    for name in ("z2k1", "z4k2", "ising", "fibonacci"):
        shipped = (FIXTURE_DIR / f"{name}.json").read_bytes()
        if outputs[name] != shipped:
            raise SystemExit(f"regenerated {name} differs from the shipped fixture")
        fixtures[name] = {"sha256": sha256(shipped), "bytes": len(shipped)}
    criterion8 = {k: v for k, v in outputs.items() if k.startswith("criterion8_")}
    if not all(criterion8.values()):
        raise SystemExit(f"criterion 8 does not hold: {criterion8}")
    write_json(REFS / "fixtures.json", {"fixtures": fixtures, "criterion8": criterion8})


def record_lattice() -> None:
    for seed in json.loads((REFS / "lattice_k1" / "pool.json").read_text())["seeds"]:
        code, out = run_cli(LATTICE_ARGV + ("--seed", str(seed)))
        write_json(REFS / "lattice_k1" / f"seed_{seed}.json",
                   {"argv": list(LATTICE_ARGV) + ["--seed", str(seed)], "exit": code,
                    "report": json.loads(out.decode("utf-8"))})


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as in run.py, before numpy is imported
    os.chdir(ROOT)
    record_exact_verify()
    record_fixtures()
    record_lattice()
    return 0


if __name__ == "__main__":
    sys.exit(main())
