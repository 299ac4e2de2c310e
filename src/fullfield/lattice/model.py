"""Exact truncated Fock-space engine for the rank-1 lattice model.

States are dictionaries keyed by ``(parts, q)`` where ``parts`` is a
descending tuple of positive integers (Heisenberg creation modes alpha(-n))
and ``q`` an integer lattice point meaning q*alpha/(2k).  The weight of a
basis state is q^2/(4k) + sum(parts).  State coefficients are exact
Fractions; phases enter only in the scalar-derivation layer.  The component
engine keys levels by the integer offset from q^2/(4k), q = qu + qv, and
holds integer numerators over D = (2k)^B B!, B = floor(T - q^2/(4k)): the
exponential's coefficients qu^l / ((2k)^l z_lam) have l = l(lam) <= B and
z_lam | |lam|! | B!, and the dressing recursion multiplies by integers only.

Four readers sit on those numerators.  ``components`` returns every output
as a Fraction.  ``coefficient`` reads a single output key: it touches only
the basis pairs whose charges sum to the key's, adds their numerators (as
integers when the input coefficients are integers) and divides by D once.
``DiagonalFFA._column`` (:mod:`fullfield.lattice.checks`) compiles one input
column of a vertex operator from them as floats.  The oracle's four-point
fit ``_fit_f`` sums its inner series by level and length on the integers,
reads the outer entry in closed form and divides only the fitted leads by D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

StateKey = tuple[tuple[int, ...], int]
FockVector = dict  # StateKey -> coefficient


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of a lattice run: Z*alpha with <alpha,alpha> = 2k, cutoff T."""

    k: int
    truncation: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.truncation < 1:
            raise ValueError("truncation must be a positive integer")


def _partitions(budget: int):
    """All partitions (descending tuples) of total <= budget, incl. ()."""
    out = [()]
    def rec(prefix, maxpart, left):
        for p in range(min(maxpart, left), 0, -1):
            cur = prefix + (p,)
            out.append(cur)
            rec(cur, p, left - p)
    rec((), budget, budget)
    return out


def _z(lam: tuple[int, ...]) -> int:
    """z_lam = prod_p p^m_p m_p! over the multiplicities m_p of lam."""
    return prod(p ** lam.count(p) * factorial(lam.count(p)) for p in set(lam))


class LatticeModel:
    """Operator engine for one value of k, with component caching."""

    def __init__(self, k: int):
        self.k = k
        self.two_k = 2 * k
        self._comp_cache: dict = {}
        self._tables: dict = {}
        self._denominators: dict = {}
        self._profiles: dict = {}  # the oracle's inner length profiles

    # -- sectors and weights -------------------------------------------------

    def sector(self, q: int) -> int:
        return q % self.two_k

    def sector_weight(self, j: int) -> Fraction:
        j = j % self.two_k
        return Fraction(min(j, self.two_k - j) ** 2, 4 * self.k)

    def min_rep(self, j: int) -> int:
        """Lattice point of minimal norm in sector j, in (-k, k]."""
        j = j % self.two_k
        return j if j <= self.k else j - self.two_k

    def state_weight(self, key: StateKey) -> Fraction:
        parts, q = key
        return Fraction(q * q, 4 * self.k) + sum(parts)

    def vec_weight(self, vec: FockVector) -> Fraction:
        """Weight of a homogeneous vector (raises if mixed)."""
        weights = {self.state_weight(key) for key in vec}
        if len(weights) != 1:
            raise ValueError(f"not homogeneous: weights {sorted(weights)}")
        return weights.pop()

    def lowest(self, j: int) -> FockVector:
        return {((), self.min_rep(j)): Fraction(1)}

    def vacuum(self) -> FockVector:
        return {((), 0): Fraction(1)}

    def charged(self, q: int) -> FockVector:
        return {((), q): Fraction(1)}

    # -- cocycle --------------------------------------------------------------

    def eps(self, q1: int, q2: int) -> int:
        """Sign making the exponential operators an intertwiner family.

        The requirements are the commutator sign against the even sublattice
        and the cocycle identity anchored on it; both hold for the floor form
        below, and the product/iterate comparison then descends to sectors.
        """
        return -1 if (q2 * (q1 // self.two_k)) % 2 else 1

    def pair_norm(self, q: int) -> int:
        """Lattice-part normalization of the contragredient pairing."""
        return -1 if (self.k * (q // self.two_k)) % 2 else 1

    # -- basic operators -------------------------------------------------------

    def alpha(self, n: int, vec: FockVector) -> FockVector:
        out: FockVector = {}
        for (parts, q), c in vec.items():
            if n == 0:
                _acc(out, (parts, q), c * q)
            elif n < 0:
                newparts = tuple(sorted(parts + (-n,), reverse=True))
                _acc(out, (newparts, q), c)
            else:
                cnt = parts.count(n)
                if cnt:
                    idx = parts.index(n)
                    newparts = parts[:idx] + parts[idx + 1:]
                    _acc(out, (newparts, q), c * cnt * n * self.two_k)
        return out

    def virasoro(self, n: int, vec: FockVector, cap: Fraction | int | None = None) -> FockVector:
        """L(n) = (1/4k) sum_j :alpha(j) alpha(n-j):, truncated at weight cap."""
        out: FockVector = {}
        quarter = Fraction(1, 4 * self.k)
        for key, c in vec.items():
            parts, _q = key
            maxpart = parts[0] if parts else 0
            # unordered pairs (a, b), a <= b, a + b = n; annihilating side first
            b_lo = -((-n) // 2)  # ceil(n/2)
            for b in range(b_lo, maxpart + 1):
                a = n - b
                first = self.alpha(b, {key: c})
                if not first:
                    continue
                second = self.alpha(a, first)
                if not second:
                    continue
                mult = 1 if a == b else 2
                for k2, c2 in second.items():
                    if cap is not None and self.state_weight(k2) > cap:
                        continue
                    _acc(out, k2, c2 * quarter * mult)
        # no zero is stored (_acc): this copies; kept until its peak-RSS effect is settled
        return {k2: v for k2, v in out.items() if v}

    def exp_virasoro(self, n: int, scale: Fraction, vec: FockVector,
                     cap: Fraction | int) -> FockVector:
        """exp(scale * L(n)) for n = +-1, truncated at weight cap."""
        if n not in (1, -1):
            raise ValueError(f"exp_virasoro supports n = +1 or -1, got n = {n}")
        out: FockVector = dict(vec)
        term = vec
        fact = Fraction(1)
        ell = 0
        while term:
            ell += 1
            fact *= ell
            term = self.virasoro(n, term, cap)
            coef = scale ** ell / fact
            for key, c in term.items():
                _acc(out, key, c * coef)
        return {key: c for key, c in out.items() if c}

    # -- contragredient pairing -------------------------------------------------

    def heis_norm(self, parts: tuple[int, ...]) -> int:
        return self.two_k ** len(parts) * _z(parts)

    def pair(self, functional: FockVector, vec: FockVector):
        """Contragredient pairing; first argument is the primed-module side."""
        total = None
        for (parts, qf), cf in functional.items():
            c2 = vec.get((parts, -qf))
            if c2 is None:
                continue
            sign = -1 if len(parts) % 2 else 1
            term = cf * c2 * (sign * self.heis_norm(parts) * self.pair_norm(-qf))
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    # -- graded components of intertwining operators ----------------------------

    def components(self, u: FockVector, v: FockVector, T: int) -> dict[Fraction, FockVector]:
        """Graded components of Y(u, z)v, keyed by output weight <= T.

        The z-exponent of the weight-m component is m - wt(u) - wt(v).
        Bilinear over basis states, exact and cached.
        """
        out: dict[Fraction, FockVector] = {}
        for (mu, qu), cu in u.items():
            for (nu, qv), cv in v.items():
                base = self._components_basis(mu, qu, nu, qv, T)
                q = qu + qv
                base_w = Fraction(q * q, 4 * self.k)
                c = Fraction(cu * cv, self._denominator(q, T)[1])
                for off, vec in base.items():
                    tgt = out.setdefault(base_w + off, {})
                    for key, n in vec.items():
                        _acc(tgt, key, c * n)
        return _clean(out)

    def coefficient(self, u: FockVector, v: FockVector, key: StateKey, T: int) -> Fraction:
        """The coefficient of the output ``key`` in Y(u, z)v, cut at weight T.

        Equal to ``components(u, v, T).get(weight, {}).get(key, 0)`` for the
        key's weight, but reads one entry of each basis pair whose charges
        sum to the key's and divides their summed numerators by D once.
        """
        parts, q = key
        off = sum(parts)
        total = 0
        for (mu, qu), cu in u.items():
            for (nu, qv), cv in v.items():
                if qu + qv == q:
                    n = self._components_basis(mu, qu, nu, qv, T).get(off, {}).get(key)
                    if n:
                        total += cu * cv * n
        return Fraction(total, self._denominator(q, T)[1])

    def _denominator(self, q: int, T) -> tuple[int, int]:
        """(B, D) of charge q at cutoff T: the largest weight offset
        B = floor(T - q^2/(4k)) and the common denominator D = (2k)^B B!,
        tabled per (q^2, T)."""
        ck = (q * q, T)
        hit = self._denominators.get(ck)
        if hit is None:
            top = (4 * self.k * T - q * q) // (4 * self.k)
            hit = self._denominators[ck] = top, self.two_k ** max(top, 0) * factorial(max(top, 0))
        return hit

    def _partition_table(self, budget: int) -> list:
        """(lam, |lam|, l(lam), z_lam) for each of ``_partitions(budget)``."""
        if budget not in self._tables:
            self._tables[budget] = [(lam, sum(lam), len(lam), _z(lam))
                                    for lam in _partitions(budget)]
        return self._tables[budget]

    def _components_basis(self, mu, qu, nu, qv, T) -> dict[int, dict[StateKey, int]]:
        """Components of Y(mu, qu; z)(nu, qv) as {weight offset: {key: n}},
        each coefficient n / D over the ``_denominator(qu + qv, T)``."""
        ck = (mu, qu, nu, qv, T)
        hit = self._comp_cache.get(ck)
        if hit is not None:
            return hit
        if mu:
            res = self._components_dressed(mu, qu, nu, qv, T)
        else:
            res = self._components_exp(qu, nu, qv, T)
        self._comp_cache[ck] = res
        return res

    def _components_dressed(self, mu, qu, nu, qv, T) -> dict[int, dict[StateKey, int]]:
        # Y(alpha(-n)u0, z) = sum_{p>0} C(p-1,n-1) z^{p-n} alpha(-p) Y(u0, z)
        #   + (-1)^(n-1) sum_{m>=0} C(m+n-1,n-1) z^{-m-n} Y(u0, z) alpha(m)
        n = mu[0]
        rest = mu[1:]
        top = self._denominator(qu + qv, T)[0]
        out: dict[int, dict[StateKey, int]] = {}
        c0 = self._components_basis(rest, qu, nu, qv, T)
        for off, vec in c0.items():
            for p in range(1, top - off + 1):
                bc = comb(p - 1, n - 1)
                if not bc:
                    continue
                raised = self.alpha(-p, vec)
                tgt = out.setdefault(off + p, {})
                for key, c in raised.items():
                    _acc(tgt, key, c * bc)
        sign = -1 if (n - 1) % 2 else 1
        # m = 0 term: alpha(0) eigenvalue qv
        if qv:
            for off, vec in c0.items():
                tgt = out.setdefault(off, {})
                for key, c in vec.items():
                    _acc(tgt, key, c * sign * qv)
        for m in sorted(set(nu)):
            cnt = nu.count(m)
            idx = nu.index(m)
            reduced = nu[:idx] + nu[idx + 1:]
            coeff = sign * comb(m + n - 1, n - 1) * cnt * m * self.two_k
            cm = self._components_basis(rest, qu, reduced, qv, T)
            for off, vec in cm.items():
                tgt = out.setdefault(off, {})
                for key, c in vec.items():
                    _acc(tgt, key, c * coeff)
        return _clean(out)

    def _components_exp(self, qu, nu, qv, T) -> dict[int, dict[StateKey, int]]:
        # Y(e^{qu}, z) on the basis state (nu, qv):
        #  1. annihilation conjugation alpha(-n) -> alpha(-n) - qu z^{-n},
        #  2. creation dressing exp(sum qu/(2k n) z^n alpha(-n)),
        #  3. cocycle sign, lattice shift; z-powers are weight bookkeeping.
        q_out = qu + qv
        top = self._denominator(q_out, T)[0]
        if top < 0:
            return {}
        # D qu^l / ((2k)^l z_lam) = level[l] * (B! // z_lam), signed by the cocycle
        sign = self.eps(qu, qv)
        level = [sign * qu ** ell * self.two_k ** (top - ell) for ell in range(top + 1)]
        top_fact = factorial(top)
        out: dict[int, dict[StateKey, int]] = {}
        # annihilation picks: t of the c modes p taken by the conjugation, as
        # (kept weight, factor, kept modes), in lexicographic order of the
        # counts t; a prefix whose kept modes already exceed top is dropped
        picks = [(0, 1, ())]
        for p in sorted(set(nu), reverse=True):
            c = nu.count(p)
            picks = [(off + p * (c - t), factor * comb(c, t) * (-qu) ** t, kept + (p,) * (c - t))
                     for off, factor, kept in picks for t in range(c + 1)
                     if off + p * (c - t) <= top]
        for off0, factor, kept_t in picks:
            for lam, size, ell, z in self._partition_table(top - off0):
                num = factor * level[ell] * (top_fact // z)
                if not num:
                    continue
                parts = tuple(sorted(kept_t + lam, reverse=True))
                tgt = out.setdefault(off0 + size, {})
                _acc(tgt, (parts, q_out), num)
        return _clean(out)


def _acc(d: dict, key, val) -> None:
    cur = d.get(key)
    if cur is None:
        if val:
            d[key] = val
    else:
        s = cur + val
        if s:
            d[key] = s
        else:
            del d[key]


def _clean(comps: dict) -> dict:
    # no zero is stored (_acc): this copies; kept until its peak-RSS effect is settled
    return {m: {k: c for k, c in vec.items() if c}
            for m, vec in comps.items() if any(vec.values())}


def vec_add(a: FockVector, b: FockVector) -> FockVector:
    out = dict(a)
    for k, v in b.items():
        _acc(out, k, v)
    return out


def vec_scale(a: FockVector, s) -> FockVector:
    return {k: s * v for k, v in a.items() if s * v}
