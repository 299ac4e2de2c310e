"""Spans and counters recorded around calls into ``fullfield``'s layers.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each traced
function or method, at every module or class attribute that holds it, with a
wrapper, and ``Tracer.uninstall`` puts the originals back.  Spans stay in
memory as ``[name, start, end, parent]`` rows until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, attribute, span name); the attribute may be ``Class.method``.
SPANS = (
    ("fullfield.lattice.checks", "check_associativity", "checks.assoc"),
    ("fullfield.lattice.checks", "check_skew_symmetry", "checks.skew"),
    ("fullfield.lattice.checks", "check_grading_axioms", "checks.grading"),
    ("fullfield.lattice.checks", "check_virasoro", "checks.virasoro"),
    ("fullfield.lattice.checks", "check_residue_lemma", "checks.residue"),
    ("fullfield.lattice.checks", "check_jacobi_residues", "checks.jacobi"),
    ("fullfield.lattice.checks", "DiagonalFFA.apply", "checks.apply"),
    ("fullfield.lattice.checks", "DiagonalFFA.apply_first", "checks.apply"),
    ("fullfield.lattice.checks", "DiagonalFFA.__init__", "checks.DiagonalFFA"),
    ("fullfield.lattice.model", "LatticeModel.components", "model.components"),
    ("fullfield.lattice.oracle", "emit_bundle", "oracle.emit_bundle"),
    ("fullfield.lattice.oracle", "raw_f_ratio", "oracle.raw_f_ratio"),
    ("fullfield.lattice.oracle", "CanonicalGauge.__init__", "oracle.CanonicalGauge"),
    ("fullfield.solver", "solve_pentagon", "solver.solve_pentagon"),
    ("fullfield.solver", "solve_sigma", "solver.solve_sigma"),
    ("fullfield.ffa", "construct", "ffa.construct"),
    ("fullfield.bundles", "load_bundle", "bundles.load_bundle"),
)

# (module, attribute, counter name): counted, but too frequent for a span.
COUNTS = (
    ("fullfield.cyclotomic", "CycScalar.__mul__", "cyclotomic.mul_calls"),
    ("fullfield.cyclotomic", "CycScalar.inverse", "cyclotomic.inverse_calls"),
    ("fullfield.cyclotomic", "CycField.sqrt", "cyclotomic.sqrt_calls"),
    ("fullfield.cyclotomic", "CycField._sqrt_uncached", "cyclotomic.sqrt_computed"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def span_names() -> list[str]:
        from fullfield.suites import SUITES

        names = dict.fromkeys(name for _m, _a, name in SPANS)
        return [*names, *(f"suite.{name}" for name in SUITES)]

    @staticmethod
    def count_names() -> list[str]:
        return [name for _m, _a, name in COUNTS]

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapped) -> int:
        """Point every ``fullfield`` attribute holding ``original`` at ``wrapped``."""
        holders = [mod for name, mod in list(sys.modules.items())
                   if name == "fullfield" or name.startswith("fullfield.")]
        holders += [obj for mod in holders for obj in vars(mod).values()
                    if isinstance(obj, type) and obj.__module__.startswith("fullfield")]
        hits = 0
        for holder in {id(h): h for h in holders}.values():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
                    hits += 1
        return hits

    def _wrap_all(self, table, make) -> None:
        for module, attr, name in table:
            holder = importlib.import_module(module)
            for part in attr.split(".")[:-1]:
                holder = getattr(holder, part)
            original = vars(holder)[attr.split(".")[-1]]
            if not self._replace(original, make(name, original)):
                raise RuntimeError(f"no attribute holds {module}.{attr}")

    def install(self) -> None:
        """Wrap every traced call site; the suite runners are wrapped in place."""
        from fullfield import suites

        self._wrap_all(SPANS, self._span)
        self._wrap_all(COUNTS, self._count)
        for name, (identity, deps, runner) in list(suites.SUITES.items()):
            self._undo.append((suites.SUITES, name, (identity, deps, runner)))
            suites.SUITES[name] = (identity, deps, self._span(f"suite.{name}", runner))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._undo = []

    def summary(self, wall_s: float) -> dict:
        """Per-name self time and call count, and the top-level span cover."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        top_s = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                top_s += dur
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(self.counts),
                "top_cover_frac": top_s / wall_s if wall_s > 0 else 0.0}
