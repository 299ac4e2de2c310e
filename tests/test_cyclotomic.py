import cmath
import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from fullfield.chiral import ChiralData
from fullfield.cyclotomic import (
    CycField,
    CycScalar,
    FieldOrderError,
    cyclotomic_polynomial,
    scalar_from_literal,
)
from fullfield.fixtures import MUTATIONS, REGULAR, load_fixture
from fullfield.linalg import solve

F4 = CycField(4)
F8 = CycField(8)
F20 = CycField(20)
F32 = CycField(32)


def rationals():
    return st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))


def scalars(field):
    return st.dictionaries(st.integers(0, field.order - 1), rationals(),
                           max_size=4).map(field.scalar)


class TestArith:
    def test_i_plus_minus_i_cancels(self):
        assert F4.zeta(1) + F4.zeta(3) == F4.zero()
        assert F8.zeta(2) + F8.zeta(6) == F8.zero()

    def test_sqrt2_squares_to_two(self):
        s = F8.zeta(1) + F8.zeta(7)
        assert s * s == F8.rational(2)

    def test_inverse_of_one_plus_zeta5(self):
        # verified by multiplying back and reducing
        a = F20.rational(1) + F20.zeta(4)  # zeta_20^4 is a primitive 5th root
        inv = a.inverse()
        assert a * inv == F20.one()
        with pytest.raises(ZeroDivisionError):
            F20.zero().inverse()

    def test_mixed_order_rejected(self):
        with pytest.raises(FieldOrderError):
            F4.zeta(1) + F8.zeta(1)

    def test_odd_order_rejected(self):
        with pytest.raises(FieldOrderError):
            CycField(5)

    @settings(max_examples=60, deadline=None)
    @given(scalars(F8), scalars(F8), scalars(F8))
    def test_ring_axioms_exact(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(scalars(F8))
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a

    @settings(max_examples=25, deadline=None)
    @given(scalars(F8), scalars(F8))
    def test_embedding_is_a_homomorphism(self, a, b):
        tol = 10 * 1e-15
        scale = max(abs(complex(a * b)), abs(complex(a + b)), 1.0)
        assert abs(complex(a * b) - complex(a) * complex(b)) <= tol * scale
        assert abs(complex(a + b) - (complex(a) + complex(b))) <= tol * scale


def _lowest_terms(x):
    return x.den > 0 and all(x.num.values()) and gcd(x.den, *x.num.values()) == 1


class TestIntegerForm:
    # every result is integer numerators over one positive denominator in
    # lowest terms, and == and hash are those of the value
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([F8, F20, F32]).flatmap(
        lambda f: st.tuples(scalars(f), scalars(f), scalars(f))))
    def test_results_in_lowest_terms(self, abc):
        a, b, c = abc
        results = [a, b, a + b, a - b, a * b, a * b * c, -a, a.conjugate(), a + 3,
                   a * Fraction(2, 3)]
        if b:
            results += [a / b, b.inverse()]
        for x in results:
            assert _lowest_terms(x), x
            twin = x.field.scalar(dict(reversed(list(x.coeffs.items()))))
            assert twin == x and hash(twin) == hash(x)
            for y in results:
                assert (x == y) == (dict(x.coeffs) == dict(y.coeffs))

    def test_zero_is_empty_over_one(self):
        for x in (F8.zero(), F8.zeta(1) - F8.zeta(1), F8.rational(Fraction(0, 5)),
                  F8.scalar({1: Fraction(1, 3), 5: Fraction(1, 3)})):
            assert x.num == {} and x.den == 1 and not x

    def test_coeffs_is_a_read_only_view(self):
        x = F8.scalar({1: Fraction(1, 2), 3: Fraction(-2, 3)})
        assert (x.num, x.den) == ({1: 3, 3: -4}, 6)
        assert list(x.coeffs.items()) == [(1, Fraction(1, 2)), (3, Fraction(-2, 3))]
        with pytest.raises(TypeError):
            x.coeffs[0] = Fraction(1)


def _schoolbook_reduce(raw, order):
    """Fraction coefficients of sum c*z^e mod Phi_order, term by term.

    Each z^e is reduced by long division by the cyclotomic polynomial and
    its remainder spread in ascending exponent, so terms land in the order
    of ``raw``; zero terms are skipped and zero sums dropped at the end.
    """
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    out = {}
    for e, c in raw.items():
        if not c:
            continue
        poly = [0] * e + [1]
        for top in range(e, d - 1, -1):  # Phi is monic
            q = poly[top]
            if q:
                for i, p in enumerate(phi):
                    poly[top - d + i] -= q * p
        for b, rc in enumerate(poly[:d]):
            if rc:
                out[b] = out.get(b, Fraction(0)) + c * rc
    return {b: c for b, c in out.items() if c}


def _general_product(a, b):
    """Coefficients of a * b by the full double loop and a schoolbook reduction."""
    n = a.field.order
    raw = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = (e1 + e2) % n
            raw[e] = raw.get(e, Fraction(0)) + c1 * c2
    return _schoolbook_reduce(raw, n)


class TestMonomialProduct:
    # the one-coefficient fast path in __mul__ must give the general dict,
    # values and insertion order both (embeddings sum in dict order)
    @pytest.mark.parametrize("order", range(4, 33, 2))
    def test_monomial_pairs_match_general_product(self, order):
        field = CycField(order)
        for e1 in range(order):  # raw exponents at and above phi(N) too
            a = CycScalar(field, {e1: -3}, 2)
            for e2 in range(order):
                b = CycScalar(field, {e2: 5}, 7)
                got = (a * b).coeffs
                want = _general_product(a, b)
                assert got == want and list(got.items()) == list(want.items()), (e1, e2)

    @pytest.mark.parametrize("order", range(4, 33, 2))
    def test_random_mixed_elements_match_general_product(self, order):
        field = CycField(order)
        rng = random.Random(order)

        def element(size):
            return field.scalar({rng.randrange(order): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                 for _ in range(size)})

        for _ in range(40):
            a, b = element(rng.randint(1, 4)), element(rng.randint(1, 4))
            got = (a * b).coeffs
            want = _general_product(a, b)
            assert got == want and list(got.items()) == list(want.items())


class TestProductWithOne:
    # the shortcut for a factor 1 must give the general product, values and
    # insertion order both, on either side and for int and Fraction operands
    @pytest.mark.parametrize("order", [8, 20, 32])
    def test_product_with_one_is_the_other_operand(self, order):
        field = CycField(order)
        others = [field.zero(), field.rational(Fraction(-3, 5)), CycScalar(field, {1: -3}, 2),
                  field.scalar({3: Fraction(1, 2), 0: -2, 1: Fraction(5, 3)})]
        for one in (field.one(), 1, Fraction(1)):
            for x in others:
                want = _general_product(x, field.one())
                for got in (x * one, one * x):
                    assert got == x and list(got.coeffs.items()) == list(want.items()), (one, x)
        for q in (0, 5, -1, Fraction(-7, 3)):
            for got in (field.one() * q, q * field.one()):
                assert got == field.rational(q) and _lowest_terms(got), q


def _general_inverse(a):
    """Coefficients of 1/a by the Gauss-Jordan solve of a * x = 1."""
    field = a.field
    d, n = field.degree, field.order
    cols = [_schoolbook_reduce({(e + j) % n: c for e, c in a.coeffs.items()}, n)
            for j in range(d)]
    x = solve([[cols[j].get(e, Fraction(0)) for j in range(d)] for e in range(d)],
              [[Fraction(1 if e == 0 else 0)] for e in range(d)], Fraction(1))
    return {j: x[j][0] for j in range(d) if x[j][0]}


class TestMonomialInverse:
    # the one-coefficient fast path in inverse must give the general solve's
    # dict, values and insertion order both
    @pytest.mark.parametrize("order", range(4, 33, 2))
    def test_monomials_match_general_inverse(self, order):
        field = CycField(order)
        for e in range(order):  # raw exponents at and above phi(N) too
            for c in (Fraction(1), Fraction(-3, 2), Fraction(5, 7)):
                a = CycScalar(field, {e: c.numerator}, c.denominator)
                got = a.inverse().coeffs
                want = _general_inverse(a)
                assert got == want and list(got.items()) == list(want.items()), (e, c)


class TestGeneralInverse:
    # a multi-term inverse is computed once per field and memoized; it and
    # the memo must hand back the general solve's dict, values and insertion
    # order
    @pytest.mark.parametrize("order", range(4, 33, 2))
    def test_random_elements_match_general_inverse(self, order, monkeypatch):
        field = CycField(order)
        rng = random.Random(order)
        computed = []
        real = CycField._inverse_uncached
        monkeypatch.setattr(CycField, "_inverse_uncached",
                            lambda f, a: computed.append(a) or real(f, a))
        for _ in range(20):
            size = rng.randint(2, min(4, field.degree))
            a = field.scalar({e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                          rng.randint(1, 5))
                              for e in rng.sample(range(field.degree), size)})
            assert len(a.coeffs) == size
            got = a.inverse().coeffs
            want = _general_inverse(a)
            assert got == want and list(got.items()) == list(want.items()), a
            # an equal scalar built apart, keys reversed, reads the memo
            before = len(computed)
            twin = CycScalar(field, dict(reversed(list(a.num.items()))), a.den)
            assert twin is not a and twin.inverse() == a.inverse()
            assert list(twin.inverse().coeffs.items()) == list(want.items())
            assert len(computed) == before
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()


class TestRootOfUnity:
    def test_quarter_turn(self):
        assert F8.root_of_unity(1, 4) == F8.zeta(1)

    def test_full_turn_is_one(self):
        for field in (F4, F8, F20, F32):
            assert field.root_of_unity(2, 1) == field.one()

    def test_pi_over_16_matches_float(self):
        val = complex(F32.root_of_unity(1, 16))
        want = complex(math.cos(math.pi / 16), math.sin(math.pi / 16))
        assert abs(val - want) < 1e-12

    def test_unit_modulus(self):
        for p in range(1, 8):
            assert abs(abs(complex(F8.root_of_unity(p, 4))) - 1) < 1e-13

    def test_order_too_small(self):
        with pytest.raises(FieldOrderError):
            F4.root_of_unity(1, 16)


class TestSqrt:
    def test_sqrt_two_in_zeta8(self):
        s = F8.sqrt(F8.rational(2))
        assert s is not None
        assert s * s == F8.rational(2)
        assert abs(complex(s) - math.sqrt(2)) < 1e-12

    def test_sqrt_one(self):
        assert F8.sqrt(F8.one()) == F8.one()

    def test_sqrt_two_absent_in_zeta4(self):
        assert F4.sqrt(F4.rational(2)) is None
        # independent check: (u + v*i)^2 = 2 over Q forces v = 0 or u = 0,
        # and neither u^2 = 2 nor -v^2 = 2 has a rational solution
        assert not _rational_square(Fraction(2))
        assert not _rational_square(Fraction(-2))

    def test_principal_branch(self):
        # arg of the root lies in [0, pi): sqrt(-1) = +i, not -i
        s = F8.sqrt(F8.rational(-1))
        assert s == F8.zeta(2)
        for val in (F8.zeta(1), F8.zeta(3) * 3, F8.rational(Fraction(9, 4))):
            root = F8.sqrt(val * val)
            assert root is not None
            assert root * root == val * val
            arg = cmath.phase(complex(root))
            assert -1e-12 <= arg < math.pi

    @pytest.mark.parametrize("order", [20, 24])
    def test_search_gives_positive_root_of_real_square(self, order):
        # a real r = b + conj(b) has a numeric embedding whose imaginary
        # part is only rounding; the search must still return the positive
        # root of r^2, not the one at arg pi
        field = CycField(order)
        rng = random.Random(order)
        cases = [field.scalar({0: 3, 1: -3, 3: -3, 5: 3})] if order == 24 else []
        for _ in range(40):
            b = field.scalar({rng.randrange(order): Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
                              for _ in range(rng.randint(1, 3))})
            cases.append(b + b.conjugate())
        checked = 0
        for r in cases:
            if r.as_rational() is not None:
                continue  # the rational path answers these before the search
            checked += 1
            root = field._sqrt_search(r * r)
            assert root in (r, -r), r
            assert complex(root).real > 0, r
            assert field.sqrt(r * r) == root
        assert checked >= 30

    @pytest.mark.parametrize("order", [16, 20, 24, 40])
    def test_embedding_inverse(self, order):
        # the inverse built from the integer Gram matrix inverts M[j][e] = z^(je)
        field = CycField(order)
        b = field.zeta(1) + 2
        assert field._sqrt_search(b * b) == b
        dps, minv = field._embed_inverse
        with mpmath.workdps(dps):
            m = mpmath.matrix([[mpmath.expjpi(mpmath.mpf(2 * j * e) / order)
                                for e in range(field.degree)] for j in field._units])
            assert mpmath.mnorm(m * minv - mpmath.eye(field.degree), 1) < mpmath.mpf(10) ** -50

    def test_search_reads_denominators_up_to_the_bound(self):
        # 99999988/99999989's nearest double is closer to 99999989/99999990:
        # the coefficient must be read from the multi-digit value, not from
        # a float
        b = Fraction(99999988, 99999989) + F8.zeta(1) / 3
        assert F8.sqrt(b * b) == b

    @pytest.mark.parametrize("q", [10**8 + 7, 10**20 + 39, 10**31 + 33, 10**60 + 7])
    def test_search_precision_follows_the_denominators(self, q):
        # b*b has coefficient denominators near 9*q^2, beyond 60 digits for
        # the larger q; the search raises its precision to match
        b = Fraction(q - 1, q) + F8.zeta(1) / 3
        field = CycField(8)
        assert field._sqrt_search(b * b) == b
        assert field.sqrt(b * b) == b
        assert field.sqrt(b * b * F8.zeta(1)) is None

    @settings(max_examples=20, deadline=None)
    @given(scalars(F8))
    def test_sqrt_roundtrip(self, a):
        sq = a * a
        root = F8.sqrt(sq)
        assert root is not None
        assert root * root == sq


def _items(x):
    return None if x is None else list(x.coeffs.items())


def _strict_f_a():
    for name in REGULAR + MUTATIONS:
        if name == "mut_validate":  # loads only non-strictly
            continue
        chiral = ChiralData(load_fixture(name))
        for a in chiral.fusion.labels:
            yield name, a, chiral.f_a(a)


def _corpus(order):
    """Seeded elements of Q(zeta_order): squares, random elements, rationals."""
    field = CycField(order)
    rng = random.Random(1000 + order)

    def element():
        return field.scalar({rng.randrange(order): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(rng.randint(1, 3))})

    out = []
    for _ in range(3):
        b = element()
        out += [b * b, b * b * rng.choice((-1, 2, 3, Fraction(-1, 2)))]
    out += [element() for _ in range(2)]
    for q in (1, Fraction(9, 25), 2, 3):
        out += [field.rational(q), field.rational(-q)]
    return [a for a in out if a]


class TestSqrtFastPaths:
    # the rational path and the residue proof must answer as the numeric
    # search does, which stays behind them in _sqrt_uncached
    @staticmethod
    def _agree(elements):
        search = {}  # one field per order, so the embedding is inverted once
        for a in elements:
            order = a.field.order
            want = search.setdefault(order, CycField(order))._sqrt_search(a)
            assert _items(CycField(order).sqrt(a)) == _items(want), a

    def test_fixture_f_a(self):
        self._agree(dict.fromkeys(fa for _name, _a, fa in _strict_f_a()))

    @pytest.mark.parametrize("order", range(4, 33, 2))
    def test_seeded_corpus(self, order):
        self._agree(_corpus(order))

    def test_edge_cases(self):
        assert F8.sqrt(F8.rational(-4)) == F8.zeta(2) * 2
        f6 = CycField(6)
        assert f6.sqrt(f6.rational(-4)) is None
        root = f6.sqrt(f6.rational(-3))
        assert root is not None and root * root == f6.rational(-3)
        self._agree([F8.rational(-4), f6.rational(-4), f6.rational(-3)])

    def test_rational_roots_beyond_the_search(self):
        # the rational path answers these first, and the search agrees
        q = Fraction(1, 10**9 + 7)
        assert F8._sqrt_search(F8.rational(q * q)) == F8.rational(q)
        assert F8.sqrt(F8.rational(q * q)) == F8.rational(q)
        assert F8.sqrt(F8.rational(-q * q)) == F8.zeta(2) * q


class TestResidueProof:
    @pytest.mark.parametrize("order", range(4, 33, 2))
    def test_never_rejects_a_square(self, order):
        field = CycField(order)
        rng = random.Random(order)
        # denominators include the split primes, which the proof must skip
        dens = [1, 2, 3] + [p for p, _pows in field._split_primes[:3]]
        for _ in range(30):
            a = field.scalar({rng.randrange(order): Fraction(rng.randint(-9, 9), rng.choice(dens))
                              for _ in range(rng.randint(1, 4))})
            assert not field._has_nonresidue(a * a), a

    def test_ising_sigma_never_reaches_the_search(self):
        chiral = ChiralData(load_fixture("ising"))
        field = CycField(32)
        f_sigma = field.scalar(chiral.f_a("sigma").coeffs)
        assert field._has_nonresidue(f_sigma)
        assert field.sqrt(f_sigma) is None
        assert field._embed_inverse is None

    def test_rejects_the_non_square_f_a(self):
        rejected = {(name, a) for name, a, fa in _strict_f_a() if fa.field._has_nonresidue(fa)}
        assert ("ising", "sigma") in rejected and ("fibonacci", "tau") in rejected


def _rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    return rn * rn == num and rd * rd == den


class TestLiterals:
    def test_roundtrip(self):
        a = F8.scalar({1: Fraction(1, 2), 3: Fraction(-2, 3)})
        assert scalar_from_literal(F8, a.literal()) == a

    def test_empty_is_zero(self):
        assert scalar_from_literal(F8, []) == F8.zero()

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            scalar_from_literal(F8, [[8, 1, 1]])

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            scalar_from_literal(F8, [[0, 1, 0]])


class TestEmbedPrecision:
    def test_zeta8(self):
        val = complex(F8.zeta(1))
        assert abs(val - cmath.exp(1j * math.pi / 4)) < 1e-15

    def test_zero(self):
        assert complex(F8.zero()) == 0j

    def test_sqrt2_element(self):
        # complex() rounds the value once, so an irrational read-out is the
        # correctly rounded double
        assert complex(F8.zeta(1) + F8.zeta(7)).real == math.sqrt(2)
        assert complex(F20.sqrt(F20.rational(5))).real == math.sqrt(5)
