"""Fusion-ring data: labels, unit, dual involution, weights, multiplicities.

This layer is purely combinatorial; it validates the structural constraints a
bundle must satisfy before any fusing tensor is loaded, and it enumerates the
pentagon equations (``FusionData.pentagon_instances``), which both the exact
checker (``ChiralData.verify_pentagon``) and the pentagon solver read.

It also holds the one table of index conventions.  ``key_spaces`` maps an F
key to the four spaces of its multiplicity slots, and ``label_key`` sorts
label tuples in declared label order; the bundle parser and writer, the
exact checker, the pentagon solver and the gauge transport all read them.
Its S3 part gives the spaces the generators sigma12 (skew symmetry) and
sigma23 (contragredient) map a space to, the canonical spaces of a label,
and the F keys of the vacuum-channel weight F_a, of the pairing
contractions and of the left-inverse normalization.  The exact checker
(``ChiralData``), the solvers (``solve_sigma``; ``_gauge_fix`` frees the
spaces outside ``canonical_spaces``), the algebra checks (``ffa``) and the
bundle generators all read these methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm

Space = tuple[str, str, str]


@dataclass(frozen=True)
class Violation:
    code: str
    labels: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        where = ",".join(self.labels)
        return f"[{self.code}] ({where}) {self.message}"


@dataclass(frozen=True, eq=False)
class FusionData:
    """The finite label set with unit, dual map, conformal weights and N's.

    ``rules`` holds only nonzero multiplicities, keyed (a1, a2, a3) for the
    dimension of the space of maps a1 x a2 -> a3.
    """

    labels: tuple[str, ...]
    unit: str
    dual: dict[str, str]
    weights: dict[str, Fraction]
    rules: dict[Space, int] = field(default_factory=dict)

    def n(self, a1: str, a2: str, a3: str) -> int:
        return self.rules.get((a1, a2, a3), 0)

    # -- validation ---------------------------------------------------------

    def validate(self, field_order: int | None = None) -> list[Violation]:
        """Every violated invariant, with the offending label tuple."""
        out: list[Violation] = []
        labset = set(self.labels)
        e = self.unit

        if e not in labset:
            out.append(Violation("unit-missing", (e,), "unit label not declared"))
            return out
        for a in self.labels:
            if a not in self.dual:
                out.append(Violation("dual-missing", (a,), "no dual assigned"))
                return out
            if self.dual[a] not in labset:
                out.append(Violation("dual-range", (a,), "dual maps outside label set"))
                return out
        for key in self.rules:
            for a in key:
                if a not in labset:
                    out.append(Violation("rule-label", key, "fusion rule uses unknown label"))
                    return out

        if self.dual[e] != e:
            out.append(Violation("unit-dual", (e,), "dual of the unit is not the unit"))
        for a in self.labels:
            if self.dual[self.dual[a]] != a:
                out.append(Violation("dual-involution", (a,), "dual map is not an involution"))

        if self.weights.get(e, None) != 0:
            out.append(Violation("unit-weight", (e,), "unit weight must be 0"))
        for a in self.labels:
            if a not in self.weights:
                out.append(Violation("weight-missing", (a,), "no weight assigned"))
            elif self.weights[a] != self.weights.get(self.dual[a]):
                out.append(
                    Violation("dual-weight", (a, self.dual[a]),
                              "weight differs from the dual label's weight"))

        for a in self.labels:
            for b in self.labels:
                want = 1 if a == b else 0
                if self.n(e, a, b) != want:
                    out.append(Violation("unit-left", (e, a, b),
                                         f"N(e,a;b) = {self.n(e, a, b)}, want {want}"))
                if self.n(a, e, b) != want:
                    out.append(Violation("unit-right", (a, e, b),
                                         f"N(a,e;b) = {self.n(a, e, b)}, want {want}"))
                want_e = 1 if b == self.dual[a] else 0
                if self.n(a, b, e) != want_e:
                    code = "unit-duality" if b == self.dual[a] else "extra-unit-channel"
                    out.append(Violation(code, (a, b, e),
                                         f"N(a,b;e) = {self.n(a, b, e)}, want {want_e}"))

        for (a1, a2, a3), n in sorted(self.rules.items()):
            if n < 0:
                out.append(Violation("negative", (a1, a2, a3), "negative multiplicity"))
            if self.n(*self.sigma12_space((a1, a2, a3))) != n:
                out.append(Violation("commutativity", (a1, a2, a3),
                                     "N(a1,a2;a3) != N(a2,a1;a3)"))
            if self.n(*self.sigma23_space((a1, a2, a3))) != n:
                out.append(Violation("sigma23-symmetry", (a1, a2, a3),
                                     "N(a1,a2;a3) != N(a1,a3';a2')"))
            d1, d2, d3 = self.dual[a1], self.dual[a2], self.dual[a3]
            if self.n(d1, d2, d3) != n:
                out.append(Violation("prime-symmetry", (a1, a2, a3),
                                     "N(a1',a2';a3') != N(a1,a2;a3)"))

        if field_order is not None:
            need = 2 * lcm(*(w.denominator for w in self.weights.values()), 1)
            if field_order % need:
                out.append(Violation(
                    "field-order", (),
                    f"weight phases need 2*lcm(denominators) = {need} to divide "
                    f"the field order {field_order}"))

        return out

    # -- enumeration --------------------------------------------------------

    def label_key(self, labels) -> tuple[int, ...]:
        """Sort key of a label tuple: lexicographic in declared label order."""
        return tuple(map(self.labels.index, labels))

    @cached_property
    def _nonzero(self) -> tuple[Space, ...]:
        # sorted once per instance: ``rules`` is not changed after the first read
        return tuple(sorted((k for k, n in self.rules.items() if n > 0), key=self.label_key))

    def spaces(self) -> list[Space]:
        """All (a1, a2, a3) with N > 0, lexicographic in declared order."""
        return list(self._nonzero)

    def primed(self, space: Space) -> Space:
        a1, a2, a3 = space
        return (self.dual[a1], self.dual[a2], self.dual[a3])

    # -- the S3 table -------------------------------------------------------

    def sigma12_space(self, space: Space) -> Space:
        """The space sigma12 (skew symmetry) maps ``space`` to."""
        a1, a2, a3 = space
        return (a2, a1, a3)

    def sigma23_space(self, space: Space) -> Space:
        """The space sigma23 (contragredient) maps ``space`` to."""
        a1, a2, a3 = space
        return (a1, self.dual[a3], self.dual[a2])

    def canonical_spaces(self, a: str) -> tuple[Space, ...]:
        """The spaces of label ``a`` with a canonical basis, in order: the
        module map (e, a, a), its skew image (a, e, a) and the vacuum
        channel (a, a', e)."""
        e = self.unit
        return ((e, a, a), (a, e, a), (a, self.dual[a], e))

    def weight_key(self, a: str) -> tuple[str, ...]:
        """The F key of the canonical vacuum-channel weight F_a."""
        e = self.unit
        return (a, e, a, self.dual[a], a, e)

    def key_spaces(self, key6: tuple[str, ...]) -> tuple[Space, ...]:
        """The four spaces of the F key (b1, b5, b4, b2, b3, b6), in the order
        of its multiplicity slots (i, j, l, k): F[i, j, l, k] relates the
        (b1, b5; b4) x (b2, b3; b5) basis to the (b6, b3; b4) x (b1, b2; b6)
        basis."""
        b1, b5, b4, b2, b3, b6 = key6
        return ((b1, b5, b4), (b2, b3, b5), (b6, b3, b4), (b1, b2, b6))

    def pairing_keys(self, space: Space) -> tuple[tuple[str, ...], ...]:
        """The F keys of the two fusing expressions for the pairing of
        ``space`` with its primed space: the first is contracted with
        sigma23 of the primed space, the second with sigma23 of ``space``."""
        a1, a2, a3 = space
        d, e = self.dual, self.unit
        return ((d[a1], a3, a2, a1, a2, e), (a1, d[a3], d[a2], d[a1], d[a2], e))

    def normalization_keys(self, space: Space) -> tuple[tuple[str, ...], ...]:
        """The F keys F1, F2 of the left-inverse identity on ``space`` = (x, y, z):
        sum_{k, n} F1[0, 0, k, j] * F2[k, n, 0, 0] * (sigma12 sigma23)[n][i]
        = delta_ij F_x, with k running over the intermediate space (z, y', x)."""
        x, y, z = space
        d, e = self.dual, self.unit
        return ((x, e, x, y, d[y], z), (z, d[y], x, d[z], x, e))

    def pentagon_instances(self):
        """Every pentagon equation, one per pair of trees and basis indices.

        Yields ``(cell, index, lhs, rhs)``: ``cell`` is (a1, a2, a3, a4, d),
        ``index`` is (b, c, i, j, k, v, s, p, r, t), and the equation says
        that the sum over ``lhs`` of products of three F entries equals the
        sum over ``rhs`` of products of two.  Each F entry is named
        ``(key6, mults)``; only entries with nonempty multiplicity ranges
        occur.  Instances of one cell come consecutively, cells in label
        order.

        The trees are read from two indexes built once per call from
        ``rules``: the y with N(x, y; z) > 0 per (x, z), and the x per
        (y, z).  Both lists keep label order, so the instances come in the
        order of a scan over all labels, which the pentagon solver's
        equation order depends on.
        """
        labels = self.labels
        n = self.rules.get
        ys: dict[tuple[str, str], list[str]] = {}
        xs: dict[tuple[str, str], list[str]] = {}
        for x, y, z in product(labels, repeat=3):
            if n((x, y, z), 0) > 0:
                ys.setdefault((x, z), []).append(y)
                xs.setdefault((y, z), []).append(x)
        for a1, a2, a3, a4, d in product(labels, repeat=5):
            lefts = [(b, c) for b in ys.get((a1, d), ()) for c in ys.get((a2, b), ())
                     if n((a3, a4, c), 0)]
            if not lefts:
                continue
            rights = [(v, s) for v in xs.get((a4, d), ()) for s in xs.get((a3, v), ())
                      if n((a1, a2, s), 0)]
            for b, c in lefts:
                mids = [u for u in xs.get((a4, b), ()) if n((a2, a3, u), 0)]
                for i, j, k in product(range(n((a1, b, d), 0)), range(n((a2, c, b), 0)),
                                       range(n((a3, a4, c), 0))):
                    for v, s in rights:
                        for p, r, t in product(range(n((v, a4, d), 0)), range(n((s, a3, v), 0)),
                                               range(n((a1, a2, s), 0))):
                            lhs = [(((a2, c, b, a3, a4, u), (j, k, mm, nn)),
                                    ((a1, b, d, u, a4, v), (i, mm, p, q)),
                                    ((a1, u, v, a2, a3, s), (q, nn, r, t)))
                                   for u in mids
                                   for mm, nn, q in product(range(n((u, a4, b), 0)),
                                                            range(n((a2, a3, u), 0)),
                                                            range(n((a1, u, v), 0)))]
                            rhs = [(((a1, b, d, a2, c, s), (i, j, l1, t)),
                                    ((s, c, d, a3, a4, v), (l1, k, p, r)))
                                   for l1 in range(n((s, c, d), 0))]
                            yield ((a1, a2, a3, a4, d), (b, c, i, j, k, v, s, p, r, t),
                                   lhs, rhs)
