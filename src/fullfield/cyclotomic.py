"""Exact arithmetic in a fixed cyclotomic field Q(zeta_N).

Every structure constant in a data bundle lives in one cyclotomic field whose
order N is declared once.  Scalars are stored in the power basis
``1, z, ..., z^(phi(N)-1)`` (z a primitive N-th root of unity) as integer
numerators over one positive denominator, in lowest terms and reduced modulo
the N-th cyclotomic polynomial after every operation, so equality is literal
comparison of a numerator map and a denominator.  Sums, products, the
reduction, conjugation and the rational read-out run on these integers.
Products and inverses of monomials c*z^e take a fast path that builds the
same numerator map, in the same insertion order, as the general routine; a
product with 1, like a sum with 0, returns the other operand.  Each field
memoizes the inverses of its multi-term scalars and its square roots, keyed
by the scalar, so a value asked for again is not computed again.

``CycScalar.coeffs`` is a read-only {exponent: Fraction} view of a scalar,
built on first use, in the numerators' insertion order.  Its readers are
``literal``, ``repr``, the numeric embedding (whose sum follows that order, so
the bits of ``complex()`` depend on it) and callers that lift a scalar into a
larger field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from types import MappingProxyType

import mpmath

from fullfield.linalg import mat_inv

_ONE = {0: 1}  # the numerators of 1, compared against and never mutated


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
        # z^k in the power basis, for k = degree .. order-1, as the
        # (exponent, integer coefficient) pairs of its nonzero terms
        self._reduce_pow: dict[int, tuple[tuple[int, int], ...]] = {}
        top_row = [-c for c in phi[: self.degree]]  # z^degree
        rep = top_row
        for k in range(self.degree, order):
            if k > self.degree:
                top = rep[-1]
                rep = [0] + rep[:-1]
                if top:
                    for e in range(self.degree):
                        rep[e] += top * top_row[e]
            self._reduce_pow[k] = tuple((b, c) for b, c in enumerate(rep) if c)
        self._units = tuple(j for j in range(1, order) if gcd(j, order) == 1)
        self._split_primes = _split_primes(order, 8)
        self._trace_inverse = None
        self._inverse_cache: dict = {}
        self._sqrt_cache: dict = {}

    # -- constructors ------------------------------------------------------

    def scalar(self, coeffs: dict[int, Fraction | int]) -> "CycScalar":
        fracs = [(e % self.order, Fraction(c)) for e, c in coeffs.items()]
        den = lcm(*(c.denominator for _e, c in fracs))
        raw: dict[int, int] = {}
        for e, c in fracs:
            if c:
                raw[e] = raw.get(e, 0) + c.numerator * (den // c.denominator)
        return self._lowest(self._reduce(raw), den)

    def zero(self) -> "CycScalar":
        return CycScalar(self, {})

    def one(self) -> "CycScalar":
        return CycScalar(self, {0: 1})

    def rational(self, q) -> "CycScalar":
        if type(q) is int:
            return CycScalar(self, {0: q} if q else {})
        q = Fraction(q)
        return CycScalar(self, {0: q.numerator} if q else {}, q.denominator)

    def zeta(self, k: int = 1) -> "CycScalar":
        k %= self.order
        return CycScalar(self, dict(self._reduce_pow[k]) if k >= self.degree else {k: 1})

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

    def _reduce(self, raw: dict[int, int]) -> dict[int, int]:
        """Integer numerators of ``raw`` (exponents below N) in the power basis.

        Terms land in the order of ``raw``, each high power spread over its
        row in ascending exponent, and zero sums are dropped at the end.
        """
        out: dict[int, int] = {}
        degree, rows = self.degree, self._reduce_pow
        for e, c in raw.items():
            if not c:
                continue
            if e < degree:
                out[e] = out.get(e, 0) + c
            else:
                for b, rc in rows[e]:
                    out[b] = out.get(b, 0) + c * rc
        return {e: c for e, c in out.items() if c}

    def _lowest(self, num: dict[int, int], den: int) -> "CycScalar":
        """The scalar num/den, with den > 0, brought to lowest terms."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return CycScalar(self, num, den)

    def _inverse_uncached(self, a: "CycScalar") -> "CycScalar":
        """1/a for a = A/den, A its integer numerators, as den * P / N(A).

        P is the product of the Galois conjugates z -> z^j of A over the
        units j != 1, and N(A) = A * P is the norm of A, a nonzero integer.
        The terms are listed in ascending exponent.
        """
        n = self.order
        p = self.one()
        for j in self._units[1:]:
            p = p * CycScalar(self, self._reduce({j * e % n: c for e, c in a.num.items()}))
        norm = (CycScalar(self, a.num) * p).num[0]
        top = a.den if norm > 0 else -a.den
        return self._lowest({e: top * p.num[e] for e in sorted(p.num)}, abs(norm))

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
        3. a search over the sign patterns of the conjugate roots: each
           gives the integer traces w_f = Tr(den * b * z^-f) of a candidate
           root b (den the denominator of ``a``) at the digits of the bound
           |w_f| <= phi(N) * den * (sum |a_e| + 1) plus 30, at least 60;
           they are rounded, solved exactly against the integer trace form,
           and the candidate is checked by squaring.
        """
        self._check(a)
        if not a.num:
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
        divide the denominator of ``a`` are skipped.
        """
        n = self.order
        for p, pows in self._split_primes:
            if a.den % p == 0:
                continue
            inv = pow(a.den, -1, p)
            terms = [(e, c * inv) for e, c in a.num.items()]
            for j in self._units:
                v = sum(c * pows[j * e % n] for e, c in terms) % p
                if v and pow(v, (p - 1) // 2, p) == p - 1:
                    return True
        return False

    def _sqrt_search(self, a: "CycScalar") -> "CycScalar | None":
        # With den the denominator of a, a root b makes c = den * b an element
        # of Z[z], so its traces w_f = Tr(c z^-f) are integers with G c = w,
        # G[e][f] = c_N(f - e).  Each sign pattern of the conjugate roots gives
        # w_f = sum over units j of +-den sqrt(sigma_j(a)) z^(-jf); w is
        # rounded, c = (q G^-1) w / q read back if q divides every entry, and
        # c / den checked by squaring.  The digits cover |w_f| <= phi(N) * den
        # * (sum |a_e| + 1) with 30 to spare, and the principal sign of the
        # root found is read at them too, so they never drop below 60.
        n, deg, den = self.order, self.degree, a.den
        size = sum(abs(c) for c in a.num.values()) // den
        dps = max(60, len(str(deg * den * (size + 1))) + 30)
        if self._trace_inverse is None:  # G^-1 is exact, q its denominators' lcm
            trace = [sum((self.zeta(j * d) for j in self._units), self.zero()).num.get(0, 0)
                     for d in range(deg)]
            ginv = mat_inv([[trace[abs(f - e)] for f in range(deg)] for e in range(deg)],
                           Fraction(1), Fraction(0))
            q = lcm(*(x.denominator for row in ginv for x in row))
            self._trace_inverse = q, [[x.numerator * (q // x.denominator) for x in row]
                                      for row in ginv]
        q, qginv = self._trace_inverse
        with mpmath.workdps(dps):
            # one row of terms per conjugate pair j, N - j, as twice the real
            # part (j alone at N = 2, where j = N - j), with 100 fraction bits;
            # the patterns sign the rows after the first, as flipping every
            # row would negate the candidate
            rows = []
            for j in self._units:
                if j <= n - j:
                    r = den * mpmath.sqrt(self._embed_conj(a, j)) * (2 if 2 * j < n else 1)
                    rows.append([int(mpmath.nint(mpmath.re(
                        r * mpmath.expjpi(mpmath.mpf(-2 * j * f) / n)) * 2 ** 100))
                        for f in range(deg)])
            for bits in range(1 << (len(rows) - 1)):
                w = rows[0]
                for t, row in enumerate(rows[1:]):
                    s = -1 if bits >> t & 1 else 1
                    w = [x + s * y for x, y in zip(w, row)]
                w = [(x + 2 ** 99) >> 100 for x in w]
                qc = [sum(g * x for g, x in zip(grow, w)) for grow in qginv]
                if any(x % q for x in qc):
                    continue
                cand = self._lowest({e: x // q for e, x in enumerate(qc) if x}, den)
                if cand * cand == a:
                    # the roots of a are +-cand: take the principal one,
                    # arg in [0, pi), by its exact embedding at j = 1
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


class CycScalar:
    """An element of Q(zeta_N), always in canonical reduced form.

    ``num`` maps power-basis exponents to nonzero integer numerators over the
    one positive denominator ``den``, with gcd(den, *num) == 1; zero is
    ``{}`` over 1.  ``coeffs`` is the same value as a read-only
    {exponent: Fraction} view, built on first use, whose readers are
    ``literal``, ``repr``, the numeric embedding behind ``complex()`` and
    callers that lift a scalar into a larger field.

    Immutable; arithmetic returns new scalars.  Integers and Fractions mix
    in on either side of ``+`` and ``*``, and on the right of ``-`` and ``/``.
    """

    __slots__ = ("field", "num", "den", "_coeffs", "_hash")

    def __init__(self, field: CycField, num: dict[int, int], den: int = 1):
        self.field = field
        self.num = num
        self.den = den
        self._coeffs: MappingProxyType | None = None
        self._hash: int | None = None

    @property
    def coeffs(self) -> MappingProxyType:
        if self._coeffs is None:
            den = self.den
            self._coeffs = MappingProxyType({e: Fraction(c, den) for e, c in self.num.items()})
        return self._coeffs

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "CycScalar | None":
        if isinstance(other, CycScalar):
            self.field._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other) -> "CycScalar":
        if other.__class__ is CycScalar and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        da, db = self.den, o.den
        if da == db:
            out = dict(self.num)
            scale = 1
        else:
            g = gcd(da, db)
            scale, da = da // g, da * (db // g)
            out = {e: c * (db // g) for e, c in self.num.items()}
        for e, c in o.num.items():
            v = out.get(e, 0) + c * scale
            if v:
                out[e] = v
            else:
                del out[e]
        return self.field._lowest(out, da)

    __radd__ = __add__

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.field, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "CycScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> "CycScalar":
        field = self.field
        if other.__class__ is CycScalar and other.field is field:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        a, b = self.num, o.num
        if o.den == 1 and b == _ONE:
            return self
        if self.den == 1 and a == _ONE:
            return o
        n = field.order
        if len(a) == 1 and len(b) == 1:
            # monomial times monomial: one reduction row, in _reduce's order;
            # a row's entries have gcd 1 (z^e is a unit of Z[z]), so the
            # terms stay in lowest terms
            ((e1, c1),) = a.items()
            ((e2, c2),) = b.items()
            c, den = c1 * c2, self.den * o.den
            g = gcd(c, den)
            if g != 1:
                c, den = c // g, den // g
            e = (e1 + e2) % n
            if e < field.degree:
                return CycScalar(field, {e: c}, den)
            return CycScalar(field, {k: c * rc for k, rc in field._reduce_pow[e]}, den)
        raw: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % n
                raw[e] = raw.get(e, 0) + c1 * c2
        return field._lowest(field._reduce(raw), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        A monomial is inverted directly.  Any other scalar is inverted once
        per field, by ``CycField._inverse_uncached``, and the result is
        memoized in the field, as square roots are.
        """
        if not self.num:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        field = self.field
        if len(self.num) == 1:
            # (c/den) z^e inverts to (den/c) z^-e, in lowest terms already
            ((e, c),) = self.num.items()
            top = self.den if c > 0 else -self.den
            e = -e % field.order
            if e < field.degree:
                return CycScalar(field, {e: top}, abs(c))
            return CycScalar(field, {k: top * rc for k, rc in field._reduce_pow[e]}, abs(c))
        cache = field._inverse_cache
        if self not in cache:
            cache[self] = field._inverse_uncached(self)
        return cache[self]

    def __truediv__(self, other) -> "CycScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def conjugate(self) -> "CycScalar":
        """Complex conjugation: exponent map k -> N - k, then reduction.

        An automorphism of Z[z] keeps the numerators' gcd, so the result is
        in lowest terms over the same denominator.
        """
        n = self.field.order
        raw = {-e % n: c for e, c in self.num.items()}
        return CycScalar(self.field, self.field._reduce(raw), self.den)

    # -- predicates, hashing, display --------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.rational(other)
        return (self.num == other.num and self.den == other.den
                and self.field.order == other.field.order)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field.order, self.den, frozenset(self.num.items())))
        return self._hash

    def __complex__(self) -> complex:
        """The value at 32 digits, rounded once to a double."""
        with mpmath.workdps(32):
            return complex(self.field._embed_conj(self, 1))

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        num = self.num
        if not num:
            return Fraction(0)
        if len(num) == 1 and 0 in num:
            return Fraction(num[0], self.den)
        return None

    def literal(self) -> list[list[int]]:
        """Bundle-file scalar literal: sorted (exponent, num, den) triples."""
        return [[e, c.numerator, c.denominator] for e, c in sorted(self.coeffs.items())]

    def __repr__(self) -> str:
        if not self.num:
            return "Cyc(0)"
        terms = []
        for e, c in sorted(self.coeffs.items()):
            terms.append(f"{c}*z{e}" if e else f"{c}")
        return f"Cyc[{self.field.order}]({' + '.join(terms)})"


def scalar_from_literal(field: CycField, literal) -> CycScalar:
    """Parse the bundle scalar literal format; the empty list is zero."""
    if type(literal) is not list:
        raise ValueError(f"scalar literal must be a list of triples, got {literal!r}")
    for item in literal:
        if type(item) is not list or len(item) != 3:
            raise ValueError(f"scalar literal triple must be a list of 3 entries, got {item!r}")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in item):
            raise ValueError(f"scalar literal entries must be integers, got {item!r}")
        e, _num, den = item
        if not 0 <= e < field.order:
            raise ValueError(f"scalar literal exponent {e} outside 0..{field.order - 1}")
        if den <= 0:
            raise ValueError(f"scalar literal denominator must be positive, got {den}")
    den = lcm(*(item[2] for item in literal))
    raw: dict[int, int] = {}
    for e, num, d in literal:
        raw[e] = raw.get(e, 0) + num * (den // d)
    return field._lowest(field._reduce(raw), den)
