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
    poly_gcd,
    remainder_sequence,
    signed_pseudo_rem,
)

SQRT3 = 3 ** 0.5


def P(*coeffs):
    return IntPoly(coeffs)


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

    def test_constants_hash_as_the_ints_they_equal(self):
        assert P() == 0 and 0 in {P()} and 5 in {P(5)} and P(-3) in {-3: None}
        assert P(0, 1) != 1 and P(0, 1) not in {1}

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
        with pytest.raises(ValueError):
            P(8, 9).exact_scalar_div(4)

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
        with pytest.raises(ValueError):
            exact_div(P(1, 0, 1), P(1, 1))

    def test_signed_pseudo_rem_is_positive_multiple(self):
        f, g = P(-3, 0, 1), P(1, 2)  # rem(f, g) at z=-1/2: f(-1/2) = -11/4
        r = signed_pseudo_rem(f, g)
        assert r.degree == 0
        assert r.sign_at(Fraction(-1, 2)) == f.sign_at(Fraction(-1, 2))

    def test_gcd(self):
        common = P(1, 3, 1)
        a, b = common * P(2, 1), common * P(-5, 0, 3)
        assert poly_gcd(a, b) == common
        assert poly_gcd(P(1, 1), P(1, 0, 1)).degree == 0
        assert poly_gcd(P(), P(0, 2)) == P(0, 1)

    def test_gcd_with_zero_is_the_primitive_part(self):
        assert poly_gcd(P(0, 2), P()) == P(0, 1)
        assert poly_gcd(P(0, -6, -4), P()) == P(0, 3, 2)


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
    def test_norm_of_extension(self):
        one_plus = Sqrt3Poly(P(1), P(1))
        one_minus = Sqrt3Poly(P(1), P(-1))
        assert one_plus * one_minus == Sqrt3Poly(P(-2))

    def test_square_expansion(self):
        one_plus = Sqrt3Poly(P(1), P(1))
        assert one_plus * one_plus == Sqrt3Poly(P(4), P(2))
        assert one_plus * one_plus * one_plus == Sqrt3Poly(P(10), P(6))

    def test_multiplicative_identity(self):
        one_plus = Sqrt3Poly(P(1), P(1))
        assert one_plus * Sqrt3Poly(P(1)) == one_plus
        assert one_plus * 1 == one_plus == P(1) * one_plus

    def test_poly_roundtrip_and_mul(self):
        p = Sqrt3Poly(P(1, 2))
        q = Sqrt3Poly(P(), P(1))  # sqrt(3)
        assert p * q == Sqrt3Poly(P(), P(1, 2))
        assert p - p * q == Sqrt3Poly(P(1, 2), P(-1, -2))

    def test_poly_normalization(self):
        assert Sqrt3Poly(P(0, 0), P(0)) == Sqrt3Poly.zero()
        assert Sqrt3Poly(P(0, 0), P(0)).rat.is_zero()


small_ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
polys = st.lists(small_ints, max_size=8).map(IntPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)
tiny_ints = st.integers(min_value=-100, max_value=100)
# constants a + b*sqrt(3), and polynomials with both parts of degree < 5
sqrt3_scalars = st.builds(
    lambda a, b: Sqrt3Poly(P(a), P(b)), tiny_ints, tiny_ints
)
tiny_polys = st.lists(tiny_ints, max_size=5).map(IntPoly)
sqrt3_polys = st.builds(Sqrt3Poly, tiny_polys, tiny_polys)


def sqrt3_to_float(x: Sqrt3Poly) -> float:
    return x.rat[0] + x.irr[0] * SQRT3


class TestGcdProperties:
    @given(tiny_polys, tiny_polys, tiny_polys)
    def test_gcd_is_primitive_positive_and_divides_both(self, p, q, c):
        p, q = p * c, q * c
        assume(p or q)
        g = poly_gcd(p, q)
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

    @given(sqrt3_scalars, sqrt3_scalars, sqrt3_scalars)
    def test_sqrt3_scalar_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=50)
    @given(sqrt3_polys, sqrt3_polys, sqrt3_polys)
    def test_sqrt3_poly_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(nonzero_polys, nonzero_polys)
    def test_degree_is_additive(self, p, q):
        assert (p * q).degree == p.degree + q.degree

    @given(polys, polys, rationals)
    def test_eval_is_a_homomorphism(self, p, q, x):
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)

    @given(sqrt3_scalars, sqrt3_scalars)
    def test_sqrt3_matches_float_arithmetic(self, a, b):
        exact = sqrt3_to_float(a * b)
        approx = sqrt3_to_float(a) * sqrt3_to_float(b)
        assert abs(exact - approx) <= 1e-9 * max(1.0, abs(exact))


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
