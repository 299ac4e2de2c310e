#!/usr/bin/env python3
"""Benchmark of ``fullfield``: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a checkout; it works from the checkout's root.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
PROBE_TIMEOUT_S = 60
TRACE_DIR = ROOT / ".perfbench"
# Where cores are shared with other machines' work, the speed one gives this
# process can drift by half over minutes.  Times are scaled to a reference
# speed by the CPU time of a fixed pure-Python kernel measured on the same
# core as the work: a reported second is a second on a core where the kernel
# takes REF_KERNEL_S.  See perfbench/README.md, "Scaled times".
REF_KERNEL_S = 0.002
PACE_PERIOD_S = 0.1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def pace_kernel() -> Fraction:
    """Fixed work: int, dict and Fraction arithmetic, as in ``fullfield``."""
    acc, table = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i % 97, i % 13 + 1)
        table[i % 64] = table.get(i % 64, 0) + i * i
    return acc


def kernel_s() -> float:
    t0 = time.thread_time()
    pace_kernel()
    return time.thread_time() - t0


class Pacer:
    """Times ``pace_kernel`` every PACE_PERIOD_S from a second thread while
    passes run; the process is pinned to one core, so it shares their core."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        kernel_s()  # warm
        while not self._stop.wait(PACE_PERIOD_S):
            self.samples.append(kernel_s())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, since: int) -> float:
        """REF_KERNEL_S over the kernel's mean time from sample ``since`` on.

        The mean, not the median: the core switches between fast and slow
        stretches, and a pass's time grows with the share of slow ones.
        """
        recent = self.samples[since:] or self.samples[-1:] or [REF_KERNEL_S]
        return REF_KERNEL_S / statistics.fmean(recent)


def setup(workload, seed: int):
    """Import ``fullfield`` from this checkout and read inputs and references.

    Returns the set-up time, scaled by the kernel timed around it, and the
    workload's state.
    """
    src = ROOT / "src"
    if not (src / "fullfield" / "__init__.py").is_file():
        raise SystemExit(f"error: no fullfield package under {src}")
    sys.path.insert(0, str(src))
    kernel_s()  # warm
    ks = [kernel_s() for _ in range(5)]
    t0 = time.perf_counter()
    state = workload.setup(seed)
    took = time.perf_counter() - t0
    ks += [kernel_s() for _ in range(5)]
    return took * REF_KERNEL_S / statistics.fmean(ks), state


def probe_setup(name: str, seed: int) -> float:
    """Scaled set-up time of one fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, state, rows: list) -> tuple[float, float]:
    """One pass, op by op, each op checked; returns its wall and CPU seconds.

    An op that raises is a failed op, and the pass goes on to the next op.
    The check, a hash or a report comparison, is timed with its op.
    """
    wall = cpu = 0.0
    for name, thunk in workload.ops(state):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            ok, detail = workload.check(state, name, thunk())
        except Exception:  # any fault of the program fails the op, not the run
            ok, detail = False, "raised " + traceback.format_exc(limit=-3)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        rows.append((name, ok, detail))
    return wall, cpu


def measure(workload, state, seconds: float, pacer=None):
    """Passes in a closed loop for about ``seconds``, at least one.

    Another pass starts only if it is expected to end nearer to ``seconds``
    than stopping now would, judged by the median pass so far.  Each pass is
    ``(wall, cpu, scale)``; the scale is 1 without a pacer.
    """
    passes, rows = [], []
    start = time.perf_counter()
    while True:
        since = len(pacer.samples) if pacer is not None else 0
        wall, cpu = run_pass(workload, state, rows)
        passes.append((wall, cpu, pacer.scale(since) if pacer is not None else 1.0))
        typical = statistics.median(w for w, _c, _s in passes)
        if time.perf_counter() - start + typical / 2 >= seconds:
            return passes, rows


def measure_traced(workload, state, seconds: float):
    """A warm-up pass, then untraced and traced passes in turn for about
    ``seconds``, so that both sides of ``trace.overhead_frac`` see the same
    drift and neither holds the process's first, slower pass."""
    rows, untraced, traced, traces = [], [], [], []
    run_pass(workload, state, rows)
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, state, rows)[0])
        tracer = Tracer()
        tracer.install()
        try:
            wall, _cpu = run_pass(workload, state, rows)
        finally:
            tracer.uninstall()
        traced.append((wall, tracer.summary(wall)))
        traces.append([list(s) for s in tracer.spans])
        typical = statistics.median(u + t for u, (t, _s) in zip(untraced, traced))
        if time.perf_counter() - start + typical / 2 >= seconds:
            return untraced, traced, traces, rows


def layer_metrics(untraced, traced) -> dict:
    """Per-layer values: medians of per-pass self times, counts of the first pass."""
    first = traced[0][1]
    out = {}
    for name in Tracer.span_names():
        out[f"{name}_s"] = statistics.median(s["self_s"].get(name, 0.0) for _w, s in traced)
        out[f"{name}_calls"] = first["calls"].get(name, 0)
    counts = first["counts"]
    for name in Tracer.count_names():
        out[name] = counts.get(name, 0)
    sqrt_calls = out["cyclotomic.sqrt_calls"]
    out["cyclotomic.sqrt_cache_hit_ratio"] = (
        (sqrt_calls - out["cyclotomic.sqrt_computed"]) / sqrt_calls if sqrt_calls else 0.0)
    out["trace.overhead_frac"] = (statistics.median(w for w, _s in traced)
                                  / statistics.median(untraced) - 1)
    out["trace.top_cover_frac"] = statistics.median(s["top_cover_frac"] for _w, s in traced)
    return out


def write_trace(name: str, seed: int, traces) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"], "passes": traces}, fh)
    return path


def run_workload(args) -> int:
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    first_setup, state = setup(workload, args.seed)
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    if args.trace:
        untraced, traced, traces, rows = measure_traced(workload, state, args.seconds)
        values = layer_metrics(untraced, traced)
        wanted = spec["per_layer"]
        print(f"trace written to {write_trace(workload.name, args.seed, traces)}")
        print(f"{len(untraced)} untraced and {len(traced)} traced passes after a warm-up pass")
    else:
        with Pacer() as pacer:
            passes, rows = measure(workload, state, args.seconds, pacer)
        setups = [first_setup] + [probe_setup(workload.name, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
        failed = sum(1 for _op, ok, _d in rows if not ok)
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(w * k for w, _c, k in passes),
            "pass_cpu_s": statistics.median(c * k for _w, c, k in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (len(rows) - failed) / len(rows),
        }
        wanted = spec["end_to_end"]
        print(f"{len(passes)} passes; unscaled median pass "
              f"{statistics.median(w for w, _c, _k in passes):.4g} s wall, "
              f"{statistics.median(c for _w, c, _k in passes):.4g} s CPU; "
              f"median scale {statistics.median(k for _w, _c, k in passes):.4g}")

    attempted = len(rows)
    failed = sum(1 for _op, ok, _d in rows if not ok)
    for op, ok, detail in rows:
        if not ok:
            print(f"FAILED op {op}: {detail}")
    seed_note = (f"lattice seed {workload.lattice_seed(args.seed)}" if workload.seeded
                 else "seed does not apply")
    print(f"{workload.name}: {seed_note}, "
          f"fail_frac {failed / attempted:.4f} ({failed}/{attempted} ops)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    spec = load_spec()
    results = {}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit {proc.returncode} without a result\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        results[w["name"]] = json.loads(lines[-1])
    names = list(results)
    print(f"{'metric':<36} {'unit':<6} " + " ".join(f"{n:>14}" for n in names))
    print(f"{'fail_frac':<36} {'ratio':<6} "
          + " ".join(f"{r['failed'] / r['attempted']:>14.4g}" for r in results.values()))
    for m in results[names[0]]["metrics"]:
        unit = results[names[0]]["metrics"][m]["unit"]
        print(f"{m:<36} {unit:<6} "
              + " ".join(f"{r['metrics'][m]['value']:>14.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # one compute thread: numpy's BLAS pool would compete with the caller
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # one core for the work and the pacer that times the box's speed on it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
