"""Exact arithmetic in a fixed cyclotomic field Q(zeta_N).

Every structure constant in a data bundle lives in one cyclotomic field whose
order N is declared once.  Scalars are stored in the power basis
``1, z, ..., z^(phi(N)-1)`` (z a primitive N-th root of unity) with Fraction
coefficients, reduced modulo the N-th cyclotomic polynomial after every
operation, so equality is literal comparison of coefficient maps.  Products
and inverses of monomials c*z^e take a fast path that builds the same
coefficient map, in the same insertion order, as the general routine.  Each
field memoizes the inverses of its multi-term scalars and its square roots,
keyed by the scalar, so a value asked for again is not computed again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import mpmath

from fullfield.linalg import solve


class FieldOrderError(ValueError):
    """Raised for invalid field orders or cross-field arithmetic."""


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic-leading or +-1 lead.
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c % lead:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[i - dn] = q
        if q:
            for j, cd in enumerate(den):
                num[i - dn + j] -= q * cd
    if any(num[:dn]):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, index = degree."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _split_primes(n: int, count: int) -> list[tuple[int, tuple[int, ...]]]:
    """The first ``count`` primes p = 1 (mod n), each with the powers
    w^0 .. w^(n-1) mod p of a primitive n-th root of unity w mod p."""
    factors = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    out = []
    p = 1
    while len(out) < count:
        p += n
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        for x in range(2, p):
            w = pow(x, (p - 1) // n, p)
            if all(pow(w, n // q, p) != 1 for q in factors):
                break
        pows = [1]
        for _ in range(n - 1):
            pows.append(pows[-1] * w % p)
        out.append((p, tuple(pows)))
    return out


class CycField:
    """The field Q(zeta_N) with precomputed reduction data.

    All scalars produced by one instance share it; mixing scalars from fields
    of different order raises :class:`FieldOrderError`.
    """

    def __init__(self, order: int):
        if order < 2 or order % 2:
            raise FieldOrderError(f"field order must be a positive even integer, got {order}")
        self.order = order
        phi = cyclotomic_polynomial(order)
        self.degree = len(phi) - 1
        # x^k in the power basis, for k = degree .. order-1
        self._reduce_pow: dict[int, tuple[int, ...]] = {}
        rep = [-c for c in phi[: self.degree]]  # x^degree
        self._reduce_pow[self.degree] = tuple(rep)
        for k in range(self.degree + 1, order):
            shifted = [0] + rep[:-1]
            top = rep[-1]
            if top:
                for e in range(self.degree):
                    shifted[e] += top * self._reduce_pow[self.degree][e]
            rep = shifted
            self._reduce_pow[k] = tuple(rep)
        self._units = tuple(j for j in range(1, order) if gcd(j, order) == 1)
        self._split_primes = _split_primes(order, 8)
        self._embed_inverse = None
        self._inverse_cache: dict = {}
        self._sqrt_cache: dict = {}

    # -- constructors ------------------------------------------------------

    def scalar(self, coeffs: dict[int, Fraction | int] | None = None) -> "CycScalar":
        raw: dict[int, Fraction] = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                raw[e % self.order] = raw.get(e % self.order, Fraction(0)) + c
        return CycScalar(self, self._reduce(raw))

    def zero(self) -> "CycScalar":
        return CycScalar(self, {})

    def one(self) -> "CycScalar":
        return CycScalar(self, {0: Fraction(1)})

    def rational(self, q) -> "CycScalar":
        q = Fraction(q)
        return CycScalar(self, {0: q} if q else {})

    def zeta(self, k: int = 1) -> "CycScalar":
        return self.scalar({k: 1})

    def root_of_unity(self, p: int, q: int) -> "CycScalar":
        """The exact value of exp(pi*i*p/q), requiring 2q | N."""
        if q <= 0:
            raise FieldOrderError(f"root_of_unity needs q > 0, got {q}")
        if self.order % (2 * q):
            raise FieldOrderError(
                f"exp(pi*i*{p}/{q}) needs 2*{q} | field order, got order {self.order}"
            )
        return self.zeta((self.order * p) // (2 * q) % self.order)

    # -- internals ---------------------------------------------------------

    def _reduce(self, raw: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for e, c in raw.items():
            if not c:
                continue
            if e < self.degree:
                out[e] = out.get(e, Fraction(0)) + c
            else:
                for b, rc in enumerate(self._reduce_pow[e]):
                    if rc:
                        out[b] = out.get(b, Fraction(0)) + c * rc
        return {e: c for e, c in out.items() if c}

    def _check(self, other: "CycScalar") -> None:
        if other.field.order != self.order:
            raise FieldOrderError(
                f"mixed field orders {self.order} and {other.field.order}"
            )

    # -- numeric embedding and square roots --------------------------------

    def sqrt(self, a: "CycScalar") -> "CycScalar | None":
        """Principal square root of ``a`` if it lies in the field, else None.

        Principal means the embedding has argument in [0, pi), matching the
        convention sqrt(|w|) * exp(i*arg(w)/2) with arg(w) in [0, 2*pi).

        Three stages decide, in order:

        1. a rational ``a = (n/d)^2`` gets ``n/d`` directly, and
           ``a = -(n/d)^2`` gets ``i*n/d`` when 4 | N; every other rational
           goes on;
        2. a residue proof: if a reduction of ``a`` at a split prime
           p = 1 (mod N) and some primitive N-th root of unity mod p is a
           quadratic non-residue, ``a`` is no square in the field: None;
        3. a numeric search over the sign patterns of the conjugate roots,
           each read back as integers over the lcm of the denominators of
           ``a`` and checked by squaring, at a precision that grows with
           that lcm and the size of ``a``.
        """
        self._check(a)
        if not a.coeffs:
            return self.zero()
        if a in self._sqrt_cache:
            return self._sqrt_cache[a]
        got = self._sqrt_uncached(a)
        self._sqrt_cache[a] = got
        return got

    def _sqrt_uncached(self, a: "CycScalar") -> "CycScalar | None":
        q = a.as_rational()
        if q is not None:
            num, den = isqrt(abs(q.numerator)), isqrt(q.denominator)
            if num * num == abs(q.numerator) and den * den == q.denominator:
                if q > 0:
                    return self.rational(Fraction(num, den))
                if self.order % 4 == 0:
                    return self.zeta(self.order // 4) * Fraction(num, den)
        if self._has_nonresidue(a):
            return None
        return self._sqrt_search(a)

    def _has_nonresidue(self, a: "CycScalar") -> bool:
        """Whether some reduction of ``a`` at a split prime is a non-residue.

        z -> w^j (w a primitive N-th root mod p, j a unit) is a ring map from
        the p-integral elements onto F_p.  A root of a p-integral ``a`` is
        p-integral, since Z[z] is the ring of integers, so if ``a`` is a
        square every nonzero reduction is a quadratic residue.  Primes that
        divide a denominator of ``a`` are skipped.
        """
        n = self.order
        for p, pows in self._split_primes:
            if any(c.denominator % p == 0 for c in a.coeffs.values()):
                continue
            terms = [(e, c.numerator * pow(c.denominator, -1, p))
                     for e, c in a.coeffs.items()]
            for j in self._units:
                v = sum(c * pows[j * e % n] for e, c in terms) % p
                if v and pow(v, (p - 1) // 2, p) == p - 1:
                    return True
        return False

    def _sqrt_search(self, a: "CycScalar") -> "CycScalar | None":
        # With den the lcm of a's coefficient denominators, den^2 * a is
        # integral, so a root den * sqrt(a) in the field lies in Z[z], whose
        # power basis is a Z-basis: each sign pattern's solve is rounded to
        # integers over den and checked by squaring.  The digits cover
        # |den * sqrt(a)| <= den * (sum |a_e| + 1) with 30 to spare.
        units = self._units
        den = lcm(*(c.denominator for c in a.coeffs.values()))
        size = sum(abs(c) for c in a.coeffs.values())
        dps = max(60, len(str(den * (int(size) + 1))) + 30)
        with mpmath.workdps(dps):
            conj_a = {j: self._embed_conj(a, j) for j in units}
            # Solve M c = v for each admissible sign pattern on the free
            # conjugate-pair representatives; sign at j=1 fixed to principal.
            reps = [j for j in units if j <= self.order - j]
            frees = [j for j in reps if j != 1]
            if self._embed_inverse is None or self._embed_inverse[0] < dps:
                m_rows = [[mpmath.expjpi(mpmath.mpf(2 * j * e) / self.order)
                           for e in range(self.degree)] for j in units]
                self._embed_inverse = (dps, mpmath.inverse(mpmath.matrix(m_rows)))
            minv = self._embed_inverse[1]
            for bits in range(1 << len(frees)):
                v: dict[int, mpmath.mpc] = {}
                v[1] = _principal_sqrt(conj_a[1])
                for t, j in enumerate(frees):
                    s = 1 if (bits >> t) & 1 == 0 else -1
                    v[j] = s * _principal_sqrt(conj_a[j])
                for j in reps:
                    other = (self.order - j) % self.order
                    if other in units and other not in v:
                        v[other] = mpmath.conj(v[j])
                sol = minv * mpmath.matrix([v[j] for j in units])
                ints = [int(mpmath.nint(den * sol[e].real)) for e in range(self.degree)]
                cand = CycScalar(self, {e: Fraction(n, den) for e, n in enumerate(ints) if n})
                if cand * cand == a:
                    # v[1] took its sign from a numeric value whose imaginary
                    # part may be only rounding: fix it on the exact root
                    val = self._embed_conj(cand, 1)
                    real = cand.conjugate() == cand
                    if (mpmath.re(val) if real else mpmath.im(val)) < 0:
                        return -cand
                    return cand
        return None

    def _embed_conj(self, a: "CycScalar", j: int) -> mpmath.mpc:
        val = mpmath.mpc(0)
        for e, c in a.coeffs.items():
            val += mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(
                mpmath.mpf(2 * ((j * e) % self.order)) / self.order
            )
        return val

    def __repr__(self) -> str:
        return f"CycField({self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, CycField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("CycField", self.order))


def _principal_sqrt(w: mpmath.mpc) -> mpmath.mpc:
    s = mpmath.sqrt(w)
    if mpmath.arg(s) < 0:
        s = -s
    return s


class CycScalar:
    """An element of Q(zeta_N), always in canonical reduced form.

    Immutable; arithmetic returns new scalars.  Integers and Fractions mix
    in on either side of ``+`` and ``*``, and on the right of ``-`` and ``/``.
    """

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: CycField, coeffs: dict[int, Fraction]):
        self.field = field
        self.coeffs = coeffs
        self._hash: int | None = None

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "CycScalar | None":
        if isinstance(other, CycScalar):
            self.field._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other) -> "CycScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            v = out.get(e, Fraction(0)) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return CycScalar(self.field, out)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.field, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "CycScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> "CycScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        n = field.order
        if len(self.coeffs) == 1 and len(o.coeffs) == 1:
            # monomial times monomial: one reduction row, in _reduce's order
            ((e1, c1),) = self.coeffs.items()
            ((e2, c2),) = o.coeffs.items()
            c = c1 * c2
            e = (e1 + e2) % n
            if not c:
                return CycScalar(field, {})
            if e < field.degree:
                return CycScalar(field, {e: c})
            return CycScalar(field, {b: c * rc for b, rc in enumerate(field._reduce_pow[e]) if rc})
        raw: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = (e1 + e2) % n
                raw[e] = raw.get(e, Fraction(0)) + c1 * c2
        return CycScalar(field, field._reduce(raw))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        A monomial is inverted directly.  Any other scalar is solved for once
        per field, by Gauss-Jordan elimination of a * x = 1, and the result is
        memoized in the field, as square roots are.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        if len(self.coeffs) == 1:
            ((e, c),) = self.coeffs.items()
            return self.field.zeta(-e) * (1 / c)
        cache = self.field._inverse_cache
        if self in cache:
            return cache[self]
        d = self.field.degree
        # Columns: self * zeta^j in the power basis.
        cols = []
        for j in range(d):
            col = self * self.field.zeta(j)
            cols.append([col.coeffs.get(e, Fraction(0)) for e in range(d)])
        # Solve sum_j x_j * cols[j] = e_0.
        x = solve([[cols[j][e] for j in range(d)] for e in range(d)],
                  [[Fraction(1 if e == 0 else 0)] for e in range(d)], Fraction(1))
        if x is None:  # pragma: no cover - nonzero elements are invertible
            raise ZeroDivisionError("singular multiplication matrix")
        cache[self] = CycScalar(self.field, {j: x[j][0] for j in range(d) if x[j][0]})
        return cache[self]

    def __truediv__(self, other) -> "CycScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def conjugate(self) -> "CycScalar":
        """Complex conjugation: exponent map k -> N - k, then reduction."""
        n = self.field.order
        raw = {(-e) % n: c for e, c in self.coeffs.items()}
        return CycScalar(self.field, self.field._reduce(raw))

    # -- predicates, hashing, display --------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.field.order == other.field.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field.order, frozenset(self.coeffs.items())))
        return self._hash

    def __complex__(self) -> complex:
        """The value at 32 digits, rounded once to a double."""
        with mpmath.workdps(32):
            return complex(self.field._embed_conj(self, 1))

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) == {0}:
            return self.coeffs[0]
        return None

    def literal(self) -> list[list[int]]:
        """Bundle-file scalar literal: sorted (exponent, num, den) triples."""
        return [[e, c.numerator, c.denominator] for e, c in sorted(self.coeffs.items())]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Cyc(0)"
        terms = []
        for e, c in sorted(self.coeffs.items()):
            terms.append(f"{c}*z{e}" if e else f"{c}")
        return f"Cyc[{self.field.order}]({' + '.join(terms)})"


def scalar_from_literal(field: CycField, literal) -> CycScalar:
    """Parse the bundle scalar literal format; the empty list is zero."""
    coeffs: dict[int, Fraction] = {}
    for item in literal:
        if len(item) != 3:
            raise ValueError(f"scalar literal triple must have 3 entries, got {item!r}")
        e, num, den = item
        if not all(isinstance(v, int) for v in (e, num, den)):
            raise ValueError(f"scalar literal entries must be integers, got {item!r}")
        if not 0 <= e < field.order:
            raise ValueError(f"scalar literal exponent {e} outside 0..{field.order - 1}")
        if den <= 0:
            raise ValueError(f"scalar literal denominator must be positive, got {den}")
        coeffs[e] = coeffs.get(e, Fraction(0)) + Fraction(num, den)
    return field.scalar(coeffs)
