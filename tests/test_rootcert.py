"""Root isolation, interlacing and concavity certification."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from inspect import signature

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clawgenus.rootcert as rootcert
from clawgenus.errors import ConsistencyError, InterlacingUndecided, StructureViolation
from clawgenus.formulas import GenusPolynomial, genus_recurrence
from clawgenus.cli import main
from clawgenus.polynomials import IntPoly, remainder_sequence
from clawgenus.rootcert import (
    InterlacingCertificate,
    Interval,
    NormalizedPoly,
    RootCertificate,
    SturmChain,
    certificate_chain,
    certify_interlacing,
    concavity_report,
    _bound_exponent,
    _halve,
    is_squarefree,
    isolate_roots,
    normalize,
    normalized_recurrence,
    sign_pattern_check,
)


#: The prime of the modular squarefree step.
Q = (1 << 31) - 1


def P(*coeffs):
    return IntPoly(coeffs)


#: (2z^3 + 6z^2 + 6z + 5)^2, a square that only a full modular reduction
#: finds.
SQUARED_CUBIC = P(25, 60, 96, 92, 60, 24, 4)


def F(a, b=1):
    return Fraction(a, b)


def root_bound(p: IntPoly) -> Fraction:
    """Cauchy bound: all real roots have magnitude below 1 + max|c|/lead."""
    return 1 + Fraction(p.max_abs_coeff(), abs(p.lead))


def cauchy_exponent(p: IntPoly) -> int:
    """The least E with 2**E at or above ``root_bound(p)``."""
    E, bound = 0, root_bound(p)
    while 2 ** E < bound:
        E += 1
    return E


def fujiwara_exponent(p: IntPoly) -> int:
    """Fujiwara's bound 2 max over i of |c_{d-i} / lead|**(1/i) in a
    power-of-two form: 1 + the largest, over the nonzero c_{d-i}, of the
    least t with 2**(t i) at or above 2**bits(c) / 2**(bits(lead) - 1), a
    power of two above |c| over one at or below |lead|; 1 if there is none."""
    cs = p.coeffs
    lead = Fraction(2) ** (abs(cs[-1]).bit_length() - 1)
    ts = []
    for i, c in enumerate(reversed(cs[:-1]), start=1):
        if c:
            t = -abs(cs[-1]).bit_length()
            while Fraction(2) ** (t * i) < 2 ** abs(c).bit_length() / lead:
                t += 1
            ts.append(t)
    return 1 + max(ts, default=0)


def endpoints(c: RootCertificate) -> list[tuple[Fraction, Fraction]]:
    """The intervals of c as rationals: the same intervals at another
    exponent give the same list."""
    return [(iv.lo, iv.hi) for iv in c.intervals]


def contains(iv: Interval, x: float) -> bool:
    return float(iv.lo) < x <= float(iv.hi) or abs(float(iv.hi) - x) < 1e-12


class TestNormalize:
    def test_seed_rows(self):
        assert normalize(genus_recurrence(0)).w == P(2, 2)
        assert normalize(genus_recurrence(1)).w == P(40, 24)
        assert normalize(genus_recurrence(2)).w == P(48, 720, 256)

    def test_rejects_low_order_garbage(self):
        g = GenusPolynomial(3, P(0, 1, 1920, 11648, 2816))
        with pytest.raises(StructureViolation):
            normalize(g)

    def test_degree_formula(self):
        for n in range(12):
            w = normalize(genus_recurrence(n))
            assert w.degree == w.w.degree == (n + 2) // 2

    def test_validation_catches_a_nonpositive_coefficient(self):
        """The degree is right, so only the positivity check can fire."""
        with pytest.raises(StructureViolation,
                           match="normalized polynomial at n=2 must have all positive"):
            NormalizedPoly(2, P(1, 0, 1)).validate()


class TestNormalizedRecurrence:
    @pytest.mark.parametrize(
        "n,coeffs",
        [
            (2, (48, 720, 256)),
            (3, (1920, 11648, 2816)),  # odd rule
            (4, (1152, 52608, 177664, 30720)),  # even rule
        ],
    )
    def test_known_rows(self, n, coeffs):
        assert normalized_recurrence(n).w == P(*coeffs)

    def test_agrees_with_normalizing_for_a_range(self):
        for n in range(25):
            assert normalized_recurrence(n).w == normalize(genus_recurrence(n)).w

    def test_mismatch_detection(self, monkeypatch):
        import clawgenus.formulas as formulas

        g2, g3, g4 = (genus_recurrence(n) for n in range(2, 5))
        bad = GenusPolynomial(2, g2.poly - P(0, 0, 0, 1))
        monkeypatch.setattr(formulas._GENUS, "last", (2, (bad, g3, g4)))
        with pytest.raises(StructureViolation):
            normalized_recurrence(2)


class TestSturm:
    def test_linear_root_counting(self):
        assert SturmChain(P(2, 2)).count(F(-2), F(0)) == 1
        assert SturmChain(P(2, 2)).count(F(-1, 2), F(0)) == 0

    def test_half_open_semantics(self):
        # root at the upper endpoint is counted, at the lower it is not
        assert SturmChain(P(2, 2)).count(F(-2), F(-1)) == 1
        assert SturmChain(P(2, 2)).count(F(-1), F(0)) == 0

    def test_quadratic(self):
        assert SturmChain(P(48, 720, 256)).count(F(-3), F(0)) == 2
        assert SturmChain(P(48, 720, 256)).count(F(-1), F(0)) == 1

    def test_counts_distinct_roots_despite_multiplicity(self):
        squared = P(1, 1) * P(1, 1)  # double root at -1
        assert SturmChain(squared).count(F(-2), F(0)) == 1

    def test_no_real_roots(self):
        assert SturmChain(P(1, 1, 1)).count(F(-10), F(10)) == 0

    def test_constant_poly(self):
        assert SturmChain(P(5)).count(F(-1), F(1)) == 0

    def test_rejects_zero_poly_and_bad_interval(self):
        with pytest.raises(ValueError):
            SturmChain(P())
        with pytest.raises(ValueError):
            SturmChain(P(1, 1)).count(F(1), F(0))

    def test_repeated_root_chains_the_squarefree_part(self):
        double = P(1, 1) * P(1, 1) * P(2, 1)
        assert SturmChain(double).polys == SturmChain(P(1, 1) * P(2, 1)).polys

    def test_variations_alone_are_not_a_root_count(self):
        chain = SturmChain(P(1, 0, 1))  # no real roots
        assert chain.variations(F(10 ** 6)) == chain.variations(F(-10 ** 6)) == 1

    @pytest.mark.parametrize("n", [0, 1, 10, 40])
    def test_one_remainder_per_chain_entry(self, monkeypatch, n):
        """Euclid runs once: no separate gcd pass before the chain."""
        import clawgenus.polynomials as polynomials

        w = normalized_recurrence(n).w
        real, calls = polynomials.signed_pseudo_rem, []

        def spy(f, g):
            calls.append(g)
            return real(f, g)

        monkeypatch.setattr(polynomials, "signed_pseudo_rem", spy)
        monkeypatch.setattr(rootcert, "signed_pseudo_rem", spy, raising=False)
        chain = SturmChain(w)
        assert len(calls) == len(chain.polys) - 2


class TestIsolation:
    def test_w0_single_interval_around_minus_one(self):
        cert = isolate_roots(normalized_recurrence(0))
        assert cert.complete and cert.degree == 1
        assert len(cert.intervals) == 1
        assert contains(cert.intervals[0], -1.0)

    def test_w1_root_at_minus_five_thirds(self):
        cert = isolate_roots(normalized_recurrence(1))
        assert cert.complete and len(cert.intervals) == 1
        assert contains(cert.intervals[0], -5 / 3)

    def test_w2_against_quadratic_formula(self):
        cert = isolate_roots(normalized_recurrence(2))
        assert cert.complete and len(cert.intervals) == 2
        lo_root = (-45 - math.sqrt(1833)) / 32
        hi_root = (-45 + math.sqrt(1833)) / 32
        assert contains(cert.intervals[0], lo_root)
        assert contains(cert.intervals[1], hi_root)

    def test_w5_has_three_intervals(self):
        cert = isolate_roots(normalized_recurrence(5))
        assert cert.complete
        assert len(cert.intervals) == 3  # ceil(6/2)

    def test_all_roots_negative(self):
        for n in range(10):
            cert = isolate_roots(normalized_recurrence(n))
            assert all(iv.hi <= 0 for iv in cert.intervals)
            assert cert.poly[0] > 0

    def test_intervals_disjoint_and_increasing(self):
        cert = isolate_roots(normalized_recurrence(9))
        ivs = cert.intervals
        assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))

    def test_each_interval_has_exactly_one_root(self):
        cert = isolate_roots(normalized_recurrence(7))
        for iv in cert.intervals:
            assert SturmChain(cert.poly).count(iv.lo, iv.hi) == 1

    def test_incomplete_certificate_for_non_real_rooted_input(self):
        from clawgenus.rootcert import NormalizedPoly

        fake = NormalizedPoly(2, P(1, 1, 1))  # complex conjugate roots
        cert = isolate_roots(fake)
        assert not cert.complete
        assert cert.intervals == ()

    def test_root_bound(self):
        assert root_bound(P(2, 2)) == 2
        assert root_bound(P(48, 720, 256)) == 1 + Fraction(720, 256)

    def test_bisection_starts_at_the_power_of_two_bound(self):
        assert _bound_exponent(P(2, 2)) == 1  # bound 2 is a power of two
        assert _bound_exponent(P(48, 720, 256)) == 2  # bound 61/16 -> 4
        assert _bound_exponent(P(1, 1000, 3)) == 9  # bound 1003/3 -> 512
        assert isolate_roots(normalized_recurrence(2)).intervals[0].lo == -4

    @given(st.lists(st.integers(-(1 << 200), 1 << 200), max_size=6),
           st.integers(-(1 << 200), 1 << 200).filter(bool))
    @example([], -1)  # a constant: Cauchy's bound 2
    @example([1 << 200], -3)
    @example([1, 0, 0], 1 << 100)  # Fujiwara's exponent -32, raised to 1
    def test_bound_exponent_is_the_smaller_of_the_two_bounds(self, low, lead):
        """The bit lengths give the exponents that the rational bounds give,
        whatever the signs, down to constants, and never one below 1."""
        p = IntPoly(low + [lead])
        want = max(min(cauchy_exponent(p), fujiwara_exponent(p)), 1)
        assert _bound_exponent(p) == want

    @pytest.mark.parametrize("n,cauchy,fujiwara", [(0, 1, 2), (1, 2, 3), (100, 54, 20)])
    def test_bound_exponent_pins(self, n, cauchy, fujiwara):
        """W_100's roots lie above -2**20, far inside Cauchy's -2**54.  W_0
        and W_1 have degree 1, where Cauchy's exponent is the smaller, and
        the minimum keeps it."""
        w = normalized_recurrence(n).w
        assert (cauchy_exponent(w), fujiwara_exponent(w)) == (cauchy, fujiwara)
        assert _bound_exponent(w) == min(cauchy, fujiwara)

    def test_json_shape(self):
        cert = isolate_roots(normalized_recurrence(2))
        d = cert.to_json_dict()
        assert sorted(d) == ["complete", "degree", "intervals", "n"]
        assert d["n"] == 2 and d["degree"] == 2 and d["complete"] is True
        assert all(
            len(q) == 4 and all(isinstance(x, int) for x in q)
            for q in d["intervals"]
        )


def cert(n: int) -> RootCertificate:
    return isolate_roots(normalized_recurrence(n))


def shared_root_pair() -> tuple[RootCertificate, RootCertificate]:
    """Complete certificates of two polynomials that share the root -1, which
    no amount of halving separates."""
    p = P(4, 5, 1)  # roots -4, -1
    q = P(2, 3, 1)  # roots -2, -1
    a = RootCertificate(
        n=1,
        intervals=(Interval(-5, -2, 0), Interval(-2, 0, 0)),
        poly=p,
    )
    b = RootCertificate(
        n=0,
        intervals=(Interval(-6, -3, 1), Interval(-3, 0, 1)),  # (-3, -3/2], (-3/2, 0]
        poly=q,
    )
    return a, b


class TestHalve:
    """Each halving keeps the root, also when it sits on an endpoint."""

    def test_root_at_the_midpoint_keeps_the_lower_half(self):
        p = P(2, 2)  # root -1
        half = _halve(p, Interval(-2, 0, 0))
        assert (half.lo, half.hi) == (F(-2), F(-1))
        assert SturmChain(p).count(half.lo, half.hi) == 1

    def test_root_at_hi_keeps_the_upper_half(self):
        p = P(2, 2)
        half = _halve(p, Interval(-2, -1, 0))
        assert (half.lo, half.hi) == (F(-3, 2), F(-1))
        assert SturmChain(p).count(half.lo, half.hi) == 1

    def test_agrees_with_sturm_count_on_isolating_intervals(self):
        for n in range(8):
            c = cert(n)
            chain = SturmChain(c.poly)
            for iv in c.intervals:
                for _ in range(6):
                    iv = _halve(c.poly, iv)
                    assert chain.count(iv.lo, iv.hi) == 1


class TestSignTable:
    def test_one_entry_per_point_however_written(self, monkeypatch):
        p, calls, real = P(2, 2), [], IntPoly.sign_at

        def sign_at(self, x, k=0):
            calls.append((x, k))
            return real(self, x, k)

        monkeypatch.setattr(IntPoly, "sign_at", sign_at)
        assert not hasattr(p, "_signs")  # made by the first read, not by __init__
        assert p.sign(-4, 2) == p.sign(-2, 1) == p.sign(-1) == 0
        assert p.sign(0, 5) == p.sign(0) == 1
        assert calls == [(-1, 0), (0, 0)] and p._signs == {(-1, 0): 0, (0, 0): 1}
        assert P(2, 2).sign(-1) == 0 and len(calls) == 3  # an equal polynomial reads its own

    def test_threads_filling_one_memo_read_true_signs(self):
        """The memo caches a pure function of the coefficients, so threads
        that race to make it and to fill it only ever store true signs."""
        w = normalized_recurrence(30).w
        points = [(x, 6) for x in range(-(1 << 9), 1)]  # many not in lowest terms
        want = [w.sign_at(x, k) for x, k in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                p = IntPoly(w.coeffs)
                with ThreadPoolExecutor(8) as pool:
                    got = list(pool.map(
                        lambda _: [p.sign(x, k) for x, k in points], range(8), timeout=60))
                assert got == [want] * 8
                assert all(s == p.sign_at(x, k) for (x, k), s in p._signs.items())
        finally:
            sys.setswitchinterval(interval)


class TestCertificateFields:
    def test_degree_and_completeness_are_read_from_the_polynomial(self):
        """A certificate is (n, intervals, poly): nothing else can be set,
        so nothing can disagree with the polynomial it certifies."""
        p = P(2, 2)
        assert list(signature(RootCertificate).parameters) == ["n", "intervals", "poly"]
        c = RootCertificate(0, (Interval(-2, 0, 0),), p)
        assert c.degree == 1 and c.complete
        assert not RootCertificate(0, (), p).complete
        assert c != RootCertificate(0, c.intervals, P(3, 3))  # the polynomial counts


class TestIntervalJson:
    @given(
        st.integers(-(1 << 80), 1 << 80),
        st.integers(-(1 << 80), 1 << 80),
        st.integers(0, 90),
    )
    def test_matches_fraction_lowest_terms(self, a, b, k):
        lo, hi = Fraction(a, 1 << k), Fraction(b, 1 << k)
        want = [lo.numerator, lo.denominator, hi.numerator, hi.denominator]
        assert Interval(a, b, k).as_json_list() == want

    @given(st.integers(-(1 << 1100), 1 << 1100), st.integers(-(1 << 1100), 1 << 1100),
           st.integers(0, 1200))
    @example(1 << 1100, 1 << 1100, 0)  # past the largest float
    @example(1, 0, 1150)  # below the smallest subnormal
    @example(3, 0, 1074)  # 3 * 2**-1075, a subnormal tie
    def test_approx_is_the_rounded_fraction(self, a, b, k):
        """Int true division rounds as ``Fraction.__float__`` does, and
        overflows where it does."""
        try:
            want = float(Fraction(a + b, 2 << k))
        except OverflowError:
            with pytest.raises(OverflowError):
                Interval(a, b, k).approx()
        else:
            assert Interval(a, b, k).approx() == want

    def test_zero_and_negative_endpoints(self):
        assert Interval(0, 0, 5).as_json_list() == [0, 1, 0, 1]
        assert Interval(-12, 0, 3).as_json_list() == [-3, 2, 0, 1]
        assert Interval(-16, -8, 2).as_json_list() == [-4, 1, -2, 1]


class TestMergeSignEvaluations:
    @pytest.mark.parametrize("n,m", [(12, 11), (20, 18)])
    def test_one_evaluation_per_halving(self, monkeypatch, n, m):
        """The sign at the kept upper endpoint is in the table, not re-read."""
        a, b = cert(n), cert(m)
        halved, calls = [], [0]
        real_halve, real_sign_at = rootcert._halve, IntPoly.sign_at

        def halve(p, iv, *rest):
            halved.append(iv)
            return real_halve(p, iv, *rest)

        def sign_at(self, x, k=0):
            calls[0] += 1
            return real_sign_at(self, x, k)

        monkeypatch.setattr(rootcert, "_halve", halve)
        monkeypatch.setattr(IntPoly, "sign_at", sign_at)
        rootcert._merge(a, b, "test")
        monkeypatch.undo()
        first = sum(iv in a.intervals or iv in b.intervals for iv in halved)
        assert len(halved) > first  # some interval is halved more than once
        assert calls[0] <= len(halved) + first


def cold_counts(monkeypatch) -> list[IntPoly]:
    """The polynomials ``isolate_roots`` counts by Descartes' rule from now on."""
    real, counted = rootcert._descartes, []
    monkeypatch.setattr(rootcert, "_descartes", lambda w, E: counted.append(w) or real(w, E))
    return counted


def sturm_isolation(np_: NormalizedPoly) -> RootCertificate:
    """The reference certificate, counted by a Sturm chain alone: the
    bisection of (-2**E, 0], 2**E the least power of two at or above
    ``root_bound``, keeps each node that holds one distinct root and splits
    each that holds more, the lower half first, so a root at a midpoint
    goes to the lower half."""
    w = np_.w
    chain, E = SturmChain(w), cauchy_exponent(w)
    found, stack = [], [(-1 << E, 0, 0)]
    while stack:
        a, b, k = stack.pop()
        roots = chain.count(F(a, 1 << k), F(b, 1 << k))
        if roots == 1:
            found.append(Interval(a, b, k))
        elif roots > 1:
            stack += [(a + b, b << 1, k + 1), (a << 1, a + b, k + 1)]
    return RootCertificate(np_.n, tuple(found), w)


def reference_endpoints(want: RootCertificate) -> list[tuple[Fraction, Fraction]]:
    """The intervals of ``want``, from ``sturm_isolation``, as the rationals
    that a cold count of its real-rooted polynomial must give.  The
    reference bisects from Cauchy's -2**C, ``isolate_roots`` from -2**E
    with E <= C, and no root lies at or below -2**E, so the nodes between
    the two starts are on the right spine and hold every root: below
    (-2**E, 0] the two trees are the same.  Only a lone root, kept by the
    first node, is read at either start."""
    ends, w = endpoints(want), want.poly
    if ends == [(-(2 ** cauchy_exponent(w)), 0)]:
        return [(-(2 ** rootcert._bound_exponent(w)), 0)]
    return ends


def reference_errors(w: IntPoly) -> list[str]:
    """What the cold certificate of w gets wrong against ``sturm_isolation``.
    It must have as many intervals as the reference, one per distinct root
    in (-2**E, 0], and exactly one root in each.  Where w is real-rooted and
    squarefree, it must give the reference's rationals
    (``reference_endpoints``); elsewhere a complex pair may lift a count of
    Descartes' rule and split a node the reference keeps."""
    np_ = NormalizedPoly(0, w)
    got, want, chain = isolate_roots(np_), sturm_isolation(np_), SturmChain(w)
    errors = [f"{chain.count(iv.lo, iv.hi)} roots in {iv}"
              for iv in got.intervals if chain.count(iv.lo, iv.hi) != 1]
    if len(got.intervals) != len(want.intervals):
        errors.append(f"{len(got.intervals)} intervals for {len(want.intervals)} roots")
    bound = math.ceil(root_bound(w))  # an integer, so sign_at reads it
    if chain.count(-bound, bound) == w.degree and endpoints(got) != reference_endpoints(want):
        errors.append("a real-rooted squarefree input lost the reference certificate")
    return errors


#: Cold inputs for Descartes' rule, each named for what it exercises.
COLD_PANEL = {
    "root-at-the-first-midpoint": P(4, 5, 1),  # (z + 1)(z + 4) on (-8, 0]
    "roots-at-zero-and-a-midpoint": P(0, 2, 1),  # z(z + 2) on (-4, 0]
    "non-dyadic-roots": P(2, 9, 9),  # (3z + 1)(3z + 2)
    "complex-pair-counted-on-top": P(2, 4, 3, 1),  # (z + 1)(z^2 + 2z + 2)
    "repeated-root": P(1, 6, 9) * P(1, 1),  # (3z + 1)^2 (z + 1)
    "w-12": normalized_recurrence(12).w,
}


def cold_mismatches() -> list[str]:
    """The names in ``COLD_PANEL`` whose cold certificate has
    ``reference_errors``."""
    return [name for name, w in COLD_PANEL.items() if reference_errors(w)]


class SplitBoundReached(Exception):
    """A cold count took more splits than ``cold_splits`` allows."""


def cold_splits(w: IntPoly, bound: int = 1000) -> int | None:
    """The de Casteljau splits a cold count of w takes, or None once they
    pass ``bound``: a count that would split forever stops there."""
    splits = []
    real = rootcert._split

    def split(cs):
        if len(splits) == bound:
            raise SplitBoundReached
        splits.append(cs)
        return real(cs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rootcert, "_split", split)
        try:
            isolate_roots(NormalizedPoly(0, w))
        except SplitBoundReached:
            return None
    return len(splits)


class TestPredecessorBrackets:
    """Isolation from the predecessor's intervals gives the Sturm certificate."""

    def test_chained_certificates_match_sturm_without_a_chain(self):
        sturm = [cert(n) for n in range(41)]
        for n in range(1, 41):
            chained = isolate_roots(normalized_recurrence(n), prev=sturm[n - 1])
            assert chained.to_json_dict() == sturm[n].to_json_dict()
            assert chained.complete is sturm[n].complete is True

    @pytest.mark.parametrize(
        "prev_n,prev_w",
        [
            (6, None),  # W_6 itself: every root shared
            (2, None),  # W_2: too few roots to bracket W_6
            (5, (1, 10, 35, 50, 24)),  # roots -1, -1/2, -1/3, -1/4
            (5, (1, 1, 1)),  # incomplete
        ],
        ids=["shared-roots", "too-few-roots", "no-alternation", "incomplete"],
    )
    def test_fallback_gives_the_sturm_certificate(self, monkeypatch, prev_n, prev_w):
        """Where the brackets fail, Descartes' rule counts W_6 cold, and as
        W_6 is real-rooted it gives the Sturm reference's certificate."""
        w6 = normalized_recurrence(6)
        prev = isolate_roots(
            normalized_recurrence(prev_n) if prev_w is None
            else NormalizedPoly(prev_n, P(*prev_w))
        )
        counted = cold_counts(monkeypatch)
        got = isolate_roots(w6, prev=prev)
        assert counted == [w6.w]  # the cold fallback ran
        assert got.to_json_dict() == sturm_isolation(w6).to_json_dict()

    def test_stalled_predecessor_falls_back_within_the_allowance(self, monkeypatch):
        """W_21 is W_20's successor: its leftmost root comes first, so W_20
        never takes the signs the brackets ask for at W_21's roots.  The
        allowance of 8 halvings per interval of W_21 (11 of them) runs out
        and Descartes' rule gives the Sturm chain's certificate."""
        prev = cert(21)
        halvings = [0]
        real_halve = rootcert._halve

        def halve(*args):
            halvings[0] += 1
            return real_halve(*args)

        monkeypatch.setattr(rootcert, "_halve", halve)
        counted = cold_counts(monkeypatch)
        w20 = normalized_recurrence(20)
        got = isolate_roots(w20, prev=prev)
        assert counted == [w20.w]
        assert halvings[0] <= 8 * 11
        assert got.to_json_dict() == sturm_isolation(w20).to_json_dict()

    def test_walk_from_w0_to_w100_builds_no_chain(self, monkeypatch):
        counted = cold_counts(monkeypatch)
        c = isolate_roots(normalized_recurrence(0))
        for n in range(1, 101):
            c = isolate_roots(normalized_recurrence(n), prev=c)
            assert c.complete
        assert counted == [normalized_recurrence(0).w]  # where the walk starts

    def test_bracket_certificates_alternate_inside_the_canonical_ones(self, monkeypatch):
        """The kept brackets of step n: W_n's gaps, each inside W_n's
        interval of the same root and holding it alone, and W_{n-1}'s
        intervals halved inside its own, each holding its root and none of
        W_n's.  The two merge with no halving.  The certificate itself is
        the one a Sturm chain gives."""
        steps = certificate_chain(map(normalized_recurrence, range(21)))
        c, consecutive, _ = next(steps)
        assert consecutive is None  # counted cold, with no predecessor
        for n, (next_c, (gaps, halved), _) in enumerate(steps, start=1):
            prev, c = c, next_c
            assert c == cert(n)
            assert gaps is not c and halved is not prev  # the brackets counted
            assert (gaps.n, halved.n) == (n, n - 1) and gaps.complete and halved.complete
            chain, prev_chain = SturmChain(c.poly), SturmChain(prev.poly)
            for own, canonical in ((gaps, c), (halved, prev)):
                assert len(own.intervals) == len(canonical.intervals)
                for iv, outer in zip(own.intervals, canonical.intervals):
                    assert outer.lo <= iv.lo < iv.hi <= outer.hi
            assert all(chain.count(iv.lo, iv.hi) == 1 for iv in gaps.intervals)
            assert all(chain.count(iv.lo, iv.hi) == 0 and prev_chain.count(iv.lo, iv.hi) == 1
                       for iv in halved.intervals)
            with monkeypatch.context() as m:
                m.setattr(rootcert, "_halve", None)  # any halving would raise
                assert [side for side, _ in rootcert._merge(gaps, halved, "test")] == [
                    k % 2 for k in range(len(gaps.intervals) + len(halved.intervals))
                ]

    @pytest.mark.parametrize(
        "n,w",
        [
            (3, (1, 1, 1)),
            (4, (2, 3, 3, 1)),  # (z + 2)(z^2 + z + 1)
            (6, (1, 2, 2, 2, 1)),  # (z + 1)^2 (z^2 + 1)
        ],
        ids=["no-real-root", "one-real-root", "repeated-root"],
    )
    def test_non_real_rooted_input_stays_incomplete(self, n, w):
        np_ = NormalizedPoly(n, P(*w))
        got = isolate_roots(np_, prev=cert(n - 1))
        assert not got.complete
        assert got.to_json_dict() == isolate_roots(np_).to_json_dict()

    def test_root_at_zero_falls_back_to_the_cold_count(self, monkeypatch):
        """z(z + 2) has the asked-for sign around the root -1 of z + 1, but
        the sample w(0) = 0 is no sign the count may rest on.  Descartes'
        rule counts the root at 0 in the node (-4, 0] it ends, and gives
        the Sturm reference's certificate."""
        np_ = NormalizedPoly(2, P(0, 2, 1))
        prev = isolate_roots(NormalizedPoly(0, P(1, 1)))
        counted = cold_counts(monkeypatch)
        got = isolate_roots(np_, prev=prev)
        assert counted == [np_.w] and got.complete
        assert got.to_json_dict() == sturm_isolation(np_).to_json_dict()

    def test_rolle_predecessor_takes_the_bracket_path(self, monkeypatch):
        """For (z + 1)(z + 4)(z + 7) the halved intervals of w' stop at
        exponent 4 but the bisection asks at exponent 5, within 4 + E."""
        w = product_of_linear_factors([(1, 1), (4, 1), (7, 1)])
        np_ = NormalizedPoly(4, w)
        prev = isolate_roots(NormalizedPoly(2, w.derivative()))
        counted = cold_counts(monkeypatch)
        got = isolate_roots(np_, prev=prev)
        assert counted == [] and got.complete
        assert got.to_json_dict() == isolate_roots(np_).to_json_dict()

    @given(st.lists(st.fractions(F(1, 60), 60, max_denominator=60), min_size=2,
                    max_size=7, unique=True))
    def test_rolle_predecessor_gives_the_sturm_certificate(self, roots):
        """The roots of w' lie strictly between neighbouring roots of w
        (Rolle), where w has the signs ``_brackets`` asks for.  A query
        finer than the brackets' exponent would fail on a negative shift."""
        w = product_of_linear_factors((r.numerator, r.denominator) for r in roots)
        d = w.degree
        prev = isolate_roots(NormalizedPoly(2 * d - 4, w.derivative()))
        assert prev.complete
        np_ = NormalizedPoly(2 * d - 2, w)
        got = isolate_roots(np_, prev=prev)
        assert got.complete
        assert got.to_json_dict() == isolate_roots(np_).to_json_dict()


#: Linear factors q z + p: dyadic roots (0 and the bisection midpoints among
#: them), non-dyadic roots and roots at -2**j, a few of them positive.
LINEAR = st.one_of(
    st.builds(lambda p, j: P(p, 1 << j), st.integers(-2, 24), st.integers(0, 5)),
    st.builds(P, st.integers(-2, 24), st.sampled_from([3, 5, 7, 9])),
    st.builds(lambda j: P(1 << j, 1), st.integers(0, 6)),
)

#: Irreducible quadratics a z^2 + b z + c, b^2 < 4ac.
QUADRATIC = st.builds(lambda a, b, c: P(b * b // (4 * a) + 1 + c, b, a),
                      st.integers(1, 4), st.integers(-6, 6), st.integers(0, 5))


class TestColdCount:
    """Without brackets, Descartes' rule counts on the Bernstein coefficients
    of the squarefree part: one interval per distinct real root, and on
    real-rooted input the Sturm reference's certificate."""

    @pytest.mark.parametrize("n", [0, 1, 34, 60, 147])
    def test_cold_claws_build_no_chain(self, n):
        np_ = normalized_recurrence(n)
        got = isolate_roots(np_)
        assert got.complete
        if n <= 60:
            assert got.to_json_dict() == sturm_isolation(np_).to_json_dict()

    def test_panel_gives_the_sturm_certificates(self):
        assert cold_mismatches() == []

    @pytest.mark.parametrize("name", ["complex-pair-counted-on-top", "repeated-root"])
    def test_input_without_simple_real_roots_stays_incomplete(self, monkeypatch, name):
        w = COLD_PANEL[name]
        counted = cold_counts(monkeypatch)
        assert not isolate_roots(NormalizedPoly(0, w)).complete
        assert counted == [w]

    @pytest.mark.parametrize("n", [16, 30])
    def test_repeated_root_is_counted_on_the_squarefree_part(self, n):
        """W_n (3z + 1)^2: no split separates the two copies of -1/3, so
        Descartes' rule on W_n (3z + 1)^2 itself would never end.  On the
        squarefree part it ends within a few dozen splits, with the Sturm
        reference's intervals, one per distinct root."""
        np_ = NormalizedPoly(n, normalized_recurrence(n).w * P(1, 6, 9))
        got = isolate_roots(np_)
        assert not got.complete
        assert endpoints(got) == endpoints(sturm_isolation(np_))
        assert cold_splits(np_.w, bound=100) is not None

    def test_counts_that_fall_short_give_up_at_once(self):
        """4z^2 + 8z + 5, roots -1 +- i/2: the top count on (-4, 0] is 2, the
        count of (-2, 0] is 2 again, and both its halves count 0.  Each
        half's count is its own sign variations, so the pair of complex
        roots drops out as soon as the halves lose it."""
        assert cold_splits(P(5, 8, 4)) == 2

    def test_zero_polynomial_is_refused_whichever_counter_runs(self):
        zero = NormalizedPoly(0, IntPoly())
        for prev in (None, cert(0)):
            with pytest.raises(ValueError, match="zero polynomial"):
                isolate_roots(zero, prev)

    def test_constants_have_no_intervals(self):
        for c in (5, -3):
            np_ = NormalizedPoly(0, P(c))
            got = isolate_roots(np_)
            assert got.intervals == () and got.complete
            assert got == sturm_isolation(np_)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(LINEAR, st.sampled_from([1, 1, 1, 1, 2])), min_size=1, max_size=5,
                    unique_by=lambda f: F(-f[0][0], f[0][1])),
           st.lists(QUADRATIC, max_size=1))
    def test_gives_the_sturm_certificate(self, linear, quadratic):
        """Repeated factors, roots at 0, at -2**j and at midpoints, and
        complex pairs: the cold certificate has the Sturm reference's number
        of intervals, one root in each, and on real-rooted squarefree input
        the reference's intervals (``reference_errors``)."""
        w = P(1)
        for f, times in linear + [(q, 1) for q in quadratic]:
            for _ in range(times):
                w = w * f
        assert reference_errors(w) == []


#: Linear factors q z + p with roots -p/q of either sign, 0 among them.
SIGNED_LINEAR = st.builds(P, st.integers(-40, 40), st.integers(1, 9))

#: Integer polynomials of degree 1 to 8 with mixed signs: products of up to
#: three linear factors, each once or twice, and perhaps an irreducible
#: quadratic, or random coefficients.
MIXED = st.one_of(
    st.builds(
        lambda linear, quadratic: math.prod(
            [f for f, times in linear for _ in range(times)] + quadratic, start=P(1)),
        st.lists(st.tuples(SIGNED_LINEAR, st.integers(1, 2)), min_size=1, max_size=3),
        st.lists(QUADRATIC, max_size=1)),
    st.builds(lambda cs: P(*cs), st.lists(st.integers(-1000, 1000), min_size=2, max_size=9)
              .filter(lambda cs: cs[-1])),
)


def start_errors(w: IntPoly) -> list[str]:
    """What the start -2**E of w's bisection gets wrong against Cauchy's
    exponent C: a start below -2**C, a real root at or below -2**E (a
    Sturm count over (-2**C, -2**E]), or on real-rooted w a cold
    certificate other than ``reference_endpoints``.  E is read through the
    module, so a mutant of ``_bound_exponent`` is read too."""
    E, C = rootcert._bound_exponent(w), cauchy_exponent(w)
    if E > C:
        return [f"start -2**{E} below Cauchy's -2**{C}"]
    chain = SturmChain(w)
    errors = []
    if E < C and chain.count(-(2 ** C), -(2 ** E)):
        errors.append(f"a root at or below -2**{E}")
    if chain.count(-(2 ** C), 2 ** C) == chain.polys[0].degree:  # real-rooted
        np_ = NormalizedPoly(0, w)
        if endpoints(isolate_roots(np_)) != reference_endpoints(sturm_isolation(np_)):
            errors.append("a real-rooted input lost the reference certificate")
    return errors


#: Inputs for the start of the bisection, each named for what it exercises.
BOUND_PANEL = {
    # roots (-7 -+ 7 sqrt 5) / 2: Fujiwara's factor 2 puts -11.3 above
    # -2**4, and the first node keeps the one root at or below 0
    "root-past-the-largest-ratio": P(-49, 7, 1),
    # roots -2.74 and -0.07, Cauchy's start -4 the tightest power of two
    "w-2": normalized_recurrence(2).w,
    # Fujiwara's start -2**7 against Cauchy's -2**17, and the root -8 at a
    # midpoint
    "eight-linear-factors": math.prod([P(j, 1) for j in range(1, 9)], start=P(1)),
}


def bound_mismatches() -> list[str]:
    """The names in ``BOUND_PANEL`` with ``start_errors``."""
    return [name for name, w in BOUND_PANEL.items() if start_errors(w)]


class TestBoundExponent:
    """The bisection starts at -2**E, E = ``_bound_exponent``, the smaller of
    Cauchy's and Fujiwara's power-of-two exponents."""

    def test_panel_starts_above_every_root(self):
        assert bound_mismatches() == []

    @settings(max_examples=150, deadline=None)
    @given(MIXED)
    def test_no_root_below_the_start_and_the_reference_certificate(self, w):
        """No real root lies at or below -2**E, and on real-rooted input the
        cold certificate is the Cauchy start's, as rationals."""
        assert start_errors(w) == []

    def test_claws_start_within_three_halvings_of_their_lowest_root(self):
        """From n = 14 Fujiwara's exponent is the smaller, and W_n's lowest
        root lies below -2**(E - 3)."""
        for n in range(14, 61):
            c = cert(n)
            assert c.intervals[0].hi <= -(2 ** (_bound_exponent(c.poly) - 3)), n


def product_of_linear_factors(roots) -> IntPoly:
    """The product of q*z + p over the pairs (p, q): roots -p/q."""
    w = P(1)
    for p, q in roots:
        w = w * P(p, q)
    return w


class TestInterlacing:
    def test_skip_pair_two_zero(self):
        ic = certify_interlacing(cert(2), cert(0))
        owners = [o for o, _ in ic.merged]
        assert owners == [2, 0, 2]
        mids = [iv.approx() for _, iv in ic.merged]
        assert mids[0] < -1 < mids[2]

    def test_consecutive_odd_equal_counts(self):
        ic = certify_interlacing(cert(1), cert(0))
        owners = [o for o, _ in ic.merged]
        assert owners == [1, 0]  # root of index 0 is rightmost for odd n

    def test_consecutive_even_one_extra(self):
        ic = certify_interlacing(cert(2), cert(1))
        owners = [o for o, _ in ic.merged]
        assert owners == [2, 1, 2]

    def test_merged_intervals_strictly_ordered(self):
        ic = certify_interlacing(cert(8), cert(7))
        ivs = [iv for _, iv in ic.merged]
        assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))

    def test_parity_patterns_over_a_range(self):
        for n in range(1, 16):
            owners = [
                o for o, _ in certify_interlacing(cert(n), cert(n - 1)).merged
            ]
            assert owners[0] == n
            assert owners[-1] == (n if n % 2 == 0 else n - 1)
        for n in range(2, 16):
            owners = [
                o for o, _ in certify_interlacing(cert(n), cert(n - 2)).merged
            ]
            assert owners[0] == owners[-1] == n

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            certify_interlacing(cert(3), cert(0))

    def test_shared_root_reports_undecided(self):
        # 4 * degree 2 * 3 bits (the coefficient 5) halvings, then it gives up
        with pytest.raises(InterlacingUndecided, match="within 24 refinement steps"):
            certify_interlacing(*shared_root_pair())

    def test_non_alternating_roots_raise(self):
        a = isolate_roots(NormalizedPoly(3, P(2, 3, 1)))  # roots -2, -1
        b = isolate_roots(NormalizedPoly(2, P(12, 7, 1)))  # roots -4, -3
        with pytest.raises(ConsistencyError, match="do not alternate at position 0"):
            certify_interlacing(a, b)

    def test_mode_follows_from_the_pair(self):
        assert InterlacingCertificate(n=4, m=3, merged=()).mode == "consecutive"
        assert InterlacingCertificate(n=4, m=2, merged=()).mode == "skip"

    def test_json_shape(self):
        d = certify_interlacing(cert(2), cert(0)).to_json_dict()
        assert sorted(d) == ["m", "merged", "mode", "n"]
        assert d["mode"] == "skip" and (d["n"], d["m"]) == (2, 0)
        assert [e["index"] for e in d["merged"]] == [2, 0, 2]


class TestSignPatterns:
    def test_pair_one_zero_by_hand(self):
        # value of the n=1 polynomial at -1 is 16; of the n=0 one at -5/3
        # is -4/3; both match the alternating pattern
        assert P(40, 24).eval(-1) == 16
        assert P(2, 2).eval(F(-5, 3)) == F(-4, 3)
        rep = sign_pattern_check(cert(1), cert(0))
        assert rep.ok and rep.hypothesis_ok

    def test_pair_two_one(self):
        rep = sign_pattern_check(cert(2), cert(1))
        assert rep.ok

    def test_all_small_pairs(self):
        for n in range(1, 12):
            assert sign_pattern_check(cert(n), cert(n - 1)).ok
        for n in range(2, 12):
            assert sign_pattern_check(cert(n), cert(n - 2)).ok

    def test_hypothesis_violation_is_reported_not_raised(self):
        # swapped roles: q's root comes first, so the hypothesis fails
        rep = sign_pattern_check(cert(0), cert(1))
        assert not rep.ok and not rep.hypothesis_ok

    def test_wrong_order_fails_fast(self):
        """W_40 passed where W_41, whose root comes first, belongs: the
        merge separates the two at once and the hypothesis fails, well
        within a second."""
        w40 = cert(40)
        w41 = isolate_roots(normalized_recurrence(41), prev=w40)
        start = time.perf_counter()
        rep = sign_pattern_check(w40, w41)
        assert time.perf_counter() - start < 1.0
        assert not rep.ok and rep.first_failure == "hypothesis violated"

    def test_wrong_sign_of_p_is_reported(self):
        w3 = normalized_recurrence(3).w
        neg3 = isolate_roots(NormalizedPoly(3, -w3))
        rep = sign_pattern_check(neg3, cert(2))
        assert rep.hypothesis_ok and rep.q_signs_ok
        assert not rep.p_signs_ok and not rep.ok
        assert rep.first_failure == "sign of p at root 1 of q"

    def test_wrong_sign_of_q_is_reported(self):
        w2 = normalized_recurrence(2).w
        neg2 = isolate_roots(NormalizedPoly(2, -w2))
        rep = sign_pattern_check(cert(3), neg2)
        assert rep.hypothesis_ok and rep.p_signs_ok
        assert not rep.q_signs_ok and not rep.ok
        assert rep.first_failure == "sign of q at root 1 of p"

    def test_exhausted_refinement_is_reported_not_raised(self):
        rep = sign_pattern_check(*shared_root_pair())
        assert not rep.ok and not rep.hypothesis_ok
        assert rep.first_failure == "separation failed"
        assert sign_pattern_check(cert(2), cert(1)).ok

    def test_vacuous_pass_when_a_side_has_no_roots(self):
        p = P(1, 1, 1)  # no real roots at all
        a = RootCertificate(n=1, intervals=(), poly=p)
        rep = sign_pattern_check(a, cert(0))
        assert rep.ok and rep.hypothesis_ok  # nothing to evaluate at

    def test_incomplete_certificate_is_reported(self):
        """(z + 1)^2 (z^2 + 1) has one interval, around a double root: its
        poly is not squarefree, so halving could not rely on a sign change."""
        double = isolate_roots(NormalizedPoly(6, P(1, 2, 2, 2, 1)))
        assert len(double.intervals) == 1 and not double.complete
        for rep in (sign_pattern_check(double, cert(5)),
                    sign_pattern_check(cert(7), double)):
            assert not rep.ok and not rep.hypothesis_ok
            assert rep.first_failure == "incomplete certificate"


class TestConcavity:
    def test_row_one(self):
        rep = concavity_report(genus_recurrence(1))
        assert rep.ok and rep.log_concave

    def test_row_four_interior_inequality(self):
        assert 177664 ** 2 >= 52608 * 30720
        assert concavity_report(genus_recurrence(4)).ok

    def test_constant_is_trivially_log_concave(self):
        rep = concavity_report(GenusPolynomial(0, P(2, 2)))
        assert rep.log_concave and rep.unimodal

    def test_detects_violation(self):
        bad = GenusPolynomial(2, P(0, 100, 1, 100))
        rep = concavity_report(bad)
        assert not rep.log_concave and not rep.unimodal and not rep.ok

    def test_detects_internal_zero(self):
        rep = concavity_report(GenusPolynomial(2, P(0, 1, 0, 1)))
        assert not rep.no_internal_zeros

    def test_equality_is_log_concave(self):
        flat = concavity_report(GenusPolynomial(2, P(1, 1, 1)))
        assert flat.ok  # 1*1 == 1^2 at k=1


class TestSquarefree:
    def test_normalized_polys_are_squarefree(self):
        for n in range(15):
            w = normalized_recurrence(n).w
            assert is_squarefree(w)

    def test_detects_squares(self):
        assert not is_squarefree(P(1, 2, 1))

    @pytest.mark.parametrize("p, squarefree", [
        (P(), False),  # gcd(0, 0) is 0, not a nonzero constant
        (P(5), True),
        # the prime q = 2**31 - 1 divides the lead, so the modular gcd proves
        # nothing and the exact gcd decides
        (P(1, 1, Q), True),
        # (z + 1)(z + 1 + q) is (z + 1)^2 modulo q, an unlucky prime
        (P(1, 1) * P(1 + Q, 1), True),
        (P(1, 1) * P(1 + Q, 1) * P(1 + Q, 1), False),
        # the modular Euclid must clear every term of each remainder: one
        # that steps down by 2 proves this square squarefree
        (SQUARED_CUBIC, False),
    ])
    def test_edge_cases(self, p, squarefree):
        assert is_squarefree(p) is squarefree

    @pytest.mark.parametrize("p, proved", [
        (P(5), True),
        (P(4, 5, 1), True),
        (P(1, 2, 1), False),
        (P(1, 1, Q), False),
        (P(1, 1) * P(1 + Q, 1), False),
        (SQUARED_CUBIC, False),
    ])
    def test_the_modular_step_proves_only_what_holds(self, p, proved):
        assert rootcert._squarefree_mod_prime(p) is proved

    def test_the_modular_step_alone_proves_claws_squarefree(self):
        """gcd(W_n, W_n') is constant modulo 2**31 - 1 for every n up to 200,
        so no cold count of a claw polynomial takes the exact gcd there."""
        assert [n for n in range(201)
                if not rootcert._squarefree_mod_prime(normalized_recurrence(n).w)] == []

    def test_certify_never_takes_the_exact_gcd(self, capsys, monkeypatch):
        """The exact gcd is the remainder sequence of (w, w'); over
        ``certify --n 0..60`` the modular step proves every cold start
        squarefree, so it never runs."""
        exact = []
        monkeypatch.setattr(rootcert, "remainder_sequence",
                            lambda f, g: exact.append(f) or remainder_sequence(f, g))
        assert main(["certify", "--n", "0..60"]) == 0
        assert "✗" not in capsys.readouterr().out and exact == []
