"""Exact arithmetic core: hand-checked values plus algebraic property tests."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clawgenus.polynomials import (
    NEG_INF,
    IntPoly,
    Sqrt3Poly,
    exact_div,
    remainder_sequence,
    signed_pseudo_rem,
)


def P(*coeffs):
    return IntPoly(coeffs)


def gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """The last entry of the remainder sequence of the primitive parts,
    with a positive leading coefficient: the primitive gcd."""
    g = remainder_sequence(p.primitive_part(), q.primitive_part())[-1]
    return -g if g.lead < 0 else g


class TestIntPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0, 0).coeffs == ()

    def test_zero_degree_is_sentinel(self):
        assert P().degree == NEG_INF
        assert P().degree < 0
        with pytest.raises(TypeError):
            [1, 2][P().degree]  # the sentinel must not index silently

    def test_degree_and_lead(self):
        assert P(0, 40, 24).degree == 2
        assert P(0, 40, 24).lead == 24
        assert P(7).degree == 0

    def test_equals_and_hashes_only_as_a_polynomial(self):
        assert P(5) != 5 and 5 not in {P(5)} and P() != 0
        assert P(1, 2) == IntPoly([1, 2, 0]) and hash(P(1, 2)) == hash(IntPoly([1, 2, 0]))
        assert P(5) in {P(5)} and P() in {IntPoly(): None}
        with pytest.raises(TypeError):
            P(5) + 5
        with pytest.raises(TypeError):
            P(5) - 5

    def test_add_cancellation(self):
        assert P(1, 1) + P(1, -1) == P(2)

    def test_add_identity(self):
        p = P(3, 0, 5)
        assert p + P() == p

    def test_add_table_rows(self):
        # sum of the n=0 and n=1 coefficient rows, combined by hand
        assert P(2, 2) + P(0, 40, 24) == P(2, 42, 24)

    def test_mul_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_mul_monomial_shift(self):
        p = P(3, 1, 4)
        assert IntPoly.monomial(2) * p == p.shift(2) == P(0, 0, 3, 1, 4)
        assert P().shift(3) == P()

    def test_mul_scalar_sixteen(self):
        assert P(3, 45, 16) * 16 == P(48, 720, 256)

    def test_eval(self):
        assert P(2, 2).eval(1) == 4
        assert P(2, 2).eval(-1) == 0
        assert P(0, 48, 720, 256).eval(1) == 1024  # 2**10
        assert P(1, 1).eval(Fraction(1, 2)) == Fraction(3, 2)

    def test_sign_at_matches_eval(self):
        p = P(-3, 0, 2, -1)
        for x in (Fraction(-5, 4), Fraction(0), Fraction(7, 2), -2, 4):
            v = p.eval(Fraction(x))
            assert p.sign_at(x) == (v > 0) - (v < 0)

    def test_derivative(self):
        assert P(2, 2).derivative() == P(2)
        assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)
        assert P(3, 45, 16).derivative() == P(45, 32)
        assert P(5).derivative() == P()

    def test_content_and_primitive(self):
        assert P(6, -9, 12).content() == 3
        assert P(6, -9, 12).primitive_part() == P(2, -3, 4)
        assert P(-4, -6).primitive_part() == P(-2, -3)  # sign kept

    def test_exact_scalar_div(self):
        assert P(8, 8).exact_scalar_div(4) == P(2, 2)
        with pytest.raises(ValueError, match="coefficient 9 not divisible by 4"):
            P(8, 9).exact_scalar_div(4)
        with pytest.raises(ValueError, match="^coefficient 10 not divisible by 4$"):
            P(4, 10, 9).exact_scalar_div(4)  # the first of two
        with pytest.raises(ZeroDivisionError, match="division of polynomial by zero"):
            P(8, 8).exact_scalar_div(0)

    def test_negative_powers_are_refused(self):
        with pytest.raises(ValueError, match="power must be nonnegative"):
            IntPoly.monomial(-1)
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            P(1, 1).shift(-1)

    def test_str(self):
        assert str(P()) == "0"
        assert str(P(2, 2)) == "2 + 2z"
        assert str(P(0, 40, 24)) == "40z + 24z^2"
        assert str(P(1, -1)) == "1 - z"


class TestPolyDivision:
    def test_exact_div(self):
        p = P(2, 2) * P(3, 0, 1)
        assert exact_div(p, P(2, 2)) == P(3, 0, 1)

    def test_exact_div_rejects_inexact(self):
        with pytest.raises(ValueError, match="division left a nonzero remainder"):
            exact_div(P(1, 0, 1), P(1, 1))
        with pytest.raises(ValueError, match="division is not exact over the integers"):
            exact_div(P(1, 0, 1), P(1, 2))  # the lead 2 does not divide 1

    def test_zero_divisors_are_refused(self):
        with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
            exact_div(P(1, 1), P())
        with pytest.raises(ZeroDivisionError, match="pseudo-division by zero polynomial"):
            signed_pseudo_rem(P(1, 1), P())

    def test_signed_pseudo_rem_is_positive_multiple(self):
        f, g = P(-3, 0, 1), P(1, 2)  # rem(f, g) at z=-1/2: f(-1/2) = -11/4
        r = signed_pseudo_rem(f, g)
        assert r.degree == 0
        assert r.sign_at(Fraction(-1, 2)) == f.sign_at(Fraction(-1, 2))

    def test_gcd(self):
        common = P(1, 3, 1)
        a, b = common * P(2, 1), common * P(-5, 0, 3)
        assert gcd(a, b) == common
        assert gcd(P(1, 1), P(1, 0, 1)).degree == 0
        assert gcd(P(), P(0, 2)) == P(0, 1)

    def test_gcd_with_zero_is_the_primitive_part(self):
        assert gcd(P(0, 2), P()) == P(0, 1)
        assert gcd(P(0, -6, -4), P()) == P(0, 3, 2)


class TestRemainderSequence:
    def test_sturm_sequence_of_z_squared_plus_one(self):
        f = P(1, 0, 1)
        assert remainder_sequence(f, f.derivative()) == [f, P(0, 2), P(-1)]

    def test_stops_before_a_zero_remainder(self):
        f = P(1, 1) * P(1, 1)
        assert remainder_sequence(f, P(1, 1)) == [f, P(1, 1)]

    def test_zero_second_argument_gives_the_first_alone(self):
        assert remainder_sequence(P(3, 1), P()) == [P(3, 1)]

    def test_entries_after_the_first_two_are_primitive(self):
        f = P(48, 720, 256) * P(7, 3, 5)
        seq = remainder_sequence(f, f.derivative())
        assert len(seq) > 3 and all(q.content() == 1 for q in seq[2:])


class TestSqrt3:
    def test_multiplicative_identity(self):
        one_plus = Sqrt3Poly(P(1), P(1))
        assert one_plus * P(1) == one_plus == P(1) * one_plus

    def test_poly_roundtrip_and_mul(self):
        p = Sqrt3Poly(P(1, 2), P(0, 1))  # (1 + 2z) + z sqrt(3)
        assert p * P(0, 1) == Sqrt3Poly(P(0, 1, 2), P(0, 0, 1)) == P(0, 1) * p
        assert p - p * P(1) == Sqrt3Poly()

    def test_poly_normalization(self):
        assert Sqrt3Poly(P(0, 0), P(0)) == Sqrt3Poly()
        assert not Sqrt3Poly(P(0, 0), P(0)).rat

    def test_product_of_two_elements_is_refused(self):
        """The explicit route's step is the one product rule of Z[sqrt 3]."""
        one_plus = Sqrt3Poly(P(1), P(1))
        with pytest.raises(TypeError):
            one_plus * one_plus
        with pytest.raises(TypeError):
            one_plus * 2


small_ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
polys = st.lists(small_ints, max_size=8).map(IntPoly)
nonzero_polys = polys.filter(bool)
rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)
tiny_ints = st.integers(min_value=-100, max_value=100)
tiny_polys = st.lists(tiny_ints, max_size=5).map(IntPoly)


class TestGcdProperties:
    @given(tiny_polys, tiny_polys, tiny_polys)
    def test_gcd_is_primitive_positive_and_divides_both(self, p, q, c):
        p, q = p * c, q * c
        assume(p or q)
        g = gcd(p, q)
        assert g.content() == 1 and g.lead > 0
        exact_div(p, g)
        exact_div(q, g)
        if c:
            exact_div(g, c.primitive_part())  # a common factor divides the gcd


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_int_poly_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(rationals, rationals, rationals)
    def test_rational_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=50)
    @given(tiny_polys, tiny_polys, tiny_polys, tiny_polys, tiny_polys, tiny_polys)
    def test_sqrt3_poly_axioms(self, a, b, c, d, s, t):
        """Z[sqrt 3][z] under addition and scaling by Z[z], the operations
        ``Sqrt3Poly`` keeps, is a module."""
        p, q = Sqrt3Poly(a, b), Sqrt3Poly(c, d)
        assert p + q == q + p and (p + q) - q == p
        assert (p + q) * s == p * s + q * s
        assert p * (s + t) == p * s + p * t
        assert (p * s) * t == p * (s * t)

    @given(nonzero_polys, nonzero_polys)
    def test_degree_is_additive(self, p, q):
        assert (p * q).degree == p.degree + q.degree

    @given(polys, polys, rationals)
    def test_eval_is_a_homomorphism(self, p, q, x):
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)


def trimmed(cs) -> tuple[int, ...]:
    """cs without its trailing zeros, popped one at a time."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def schoolbook_add(a: list[int], b: list[int], sign: int = 1) -> tuple[int, ...]:
    """a + sign * b, entry by entry, the shorter padded with zeros."""
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return trimmed(x + sign * y for x, y in zip(a, b))


def schoolbook_mul(a: list[int], b: list[int]) -> tuple[int, ...]:
    """Every product a_i b_j added into entry i + j."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def schoolbook_dot(pairs) -> tuple[int, ...]:
    """The schoolbook products of the pairs (a, b), added one pair at a time."""
    out: tuple[int, ...] = ()
    for a, b in pairs:
        out = schoolbook_add(list(out), list(schoolbook_mul(a, b)))
    return out


big_ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)
#: Raw coefficient lists, trailing zeros, negative entries and monomials
#: among them.
coefficient_lists = st.one_of(
    st.lists(st.one_of(st.just(0), big_ints), max_size=10),
    st.builds(lambda k, c: [0] * k + [c], st.integers(0, 9), big_ints),
)


class TestKernelsAgainstSchoolbook:
    """The ``IntPoly`` kernels give the coefficients of a plain schoolbook
    computation on the raw lists."""

    @given(coefficient_lists)
    def test_constructor(self, cs):
        assert IntPoly(cs).coeffs == IntPoly(iter(cs)).coeffs == trimmed(cs)

    @given(coefficient_lists, coefficient_lists)
    def test_add_and_sub(self, a, b):
        p, q = IntPoly(a), IntPoly(b)
        assert (p + q).coeffs == (q + p).coeffs == schoolbook_add(a, b)
        assert (p - q).coeffs == schoolbook_add(a, b, -1)
        assert (q - p).coeffs == schoolbook_add(b, a, -1)
        assert (-p).coeffs == schoolbook_add([], a, -1)

    @given(coefficient_lists, st.integers(0, 10), st.lists(big_ints, max_size=10))
    def test_cancellation_to_a_lower_degree_and_to_zero(self, a, j, low):
        """b is -a from entry j up, so a + b drops below degree j."""
        b = (low + [0] * j)[:j] + [-x for x in a[j:]]
        p, q = IntPoly(a), IntPoly(b)
        total = p + q
        assert total.coeffs == schoolbook_add(a, b) and len(total.coeffs) <= j
        assert (p - IntPoly(-x for x in b)).coeffs == total.coeffs
        assert (p - p).coeffs == (p + -p).coeffs == (p * 0).coeffs == ()

    @given(coefficient_lists, coefficient_lists)
    def test_mul(self, a, b):
        p, q = IntPoly(a), IntPoly(b)
        assert (p * q).coeffs == (q * p).coeffs == schoolbook_mul(a, b)

    @given(st.lists(st.one_of(st.just(0), big_ints), min_size=1, max_size=3),
           st.lists(big_ints, min_size=6, max_size=14))
    def test_short_times_long_in_both_orders(self, short, long):
        p, q = IntPoly(short), IntPoly(long)
        assert (p * q).coeffs == (q * p).coeffs == schoolbook_mul(short, long)

    @given(st.lists(st.tuples(coefficient_lists, coefficient_lists), max_size=4))
    def test_dot(self, pairs):
        """The empty list, zero factors on either side, negative entries and
        factors of every length order are among the lists of pairs."""
        ms, xs = [IntPoly(a) for a, _ in pairs], [IntPoly(b) for _, b in pairs]
        assert IntPoly.dot(ms, xs).coeffs == schoolbook_dot(pairs)
        assert IntPoly.dot(xs, ms).coeffs == schoolbook_dot(pairs)

    def test_dot_of_no_pairs_and_of_zero_factors_is_zero(self):
        assert IntPoly.dot((), ()) == IntPoly.dot([P()], [P(1, 2)]) == P()
        assert IntPoly.dot([P(3), P(1, 2)], [P(), P()]) == P()

    @given(coefficient_lists, coefficient_lists)
    def test_dot_of_one_pair_is_the_product(self, a, b):
        p, q = IntPoly(a), IntPoly(b)
        assert IntPoly.dot([p], [q]) == IntPoly.dot([q], [p]) == p * q
        assert IntPoly.dot([p], [q]).coeffs == schoolbook_mul(a, b)

    @given(coefficient_lists, coefficient_lists, st.lists(big_ints, max_size=10))
    def test_dot_cancels_to_a_lower_degree_and_to_zero(self, a, b, low):
        """p q + p (low - q) = p low, below the degree of p q when low is
        shorter than q; p q - q p is zero."""
        p, q = IntPoly(a), IntPoly(b)
        low = low[:max(len(q) - 1, 0)]
        total = IntPoly.dot([p, p], [q, IntPoly(low) - q])
        assert total.coeffs == schoolbook_dot([(a, b), (a, list(schoolbook_add(low, b, -1)))])
        assert total == p * IntPoly(low) and len(total) <= max(len(p) + len(low) - 1, 0)
        assert IntPoly.dot([p, q], [q, -p]) == IntPoly.dot([p, -p], [q, q]) == P()

    @given(coefficient_lists, st.one_of(st.just(0), st.just(-1), big_ints))
    def test_int_scaling(self, a, c):
        p = IntPoly(a)
        assert (p * c).coeffs == (c * p).coeffs == trimmed(x * c for x in a)


class TestDyadicSigns:
    @given(polys, small_ints, st.integers(min_value=0, max_value=64))
    def test_sign_at_dyadic_point_matches_eval(self, p, m, k):
        v = p.eval(Fraction(m, 2 ** k))
        want = (v > 0) - (v < 0)
        assert p.sign_at(m, k) == want
        assert p.sign_at(Fraction(m, 2 ** k)) == want  # same point as a Fraction

    @given(polys, st.one_of(st.just(0), small_ints),
           st.integers(min_value=0, max_value=64),
           st.integers(min_value=0, max_value=64))
    def test_sign_at_is_independent_of_how_the_point_is_written(self, p, m, k, t):
        """m / 2**k and (m << t) / 2**(k + t) are one point."""
        want = p.sign_at(m, k)
        assert p.sign_at(m << t, k + t) == want
        assert p.sign_at(Fraction(m << t), k + t) == want
        assert p.sign_at(Fraction(m << t, 1 << t), k) == want

    def test_non_dyadic_point_is_refused(self):
        with pytest.raises(ValueError, match="dyadic"):
            P(1, 1).sign_at(Fraction(1, 3))
        assert P(1, 1).eval(Fraction(1, 3)) == Fraction(4, 3)  # eval takes it

    @given(tiny_polys, small_ints, st.integers(min_value=0, max_value=64))
    def test_sign_at_a_dyadic_root_is_zero(self, q, m, k):
        assert (q * P(-m, 2 ** k)).sign_at(m, k) == 0  # root m / 2**k
