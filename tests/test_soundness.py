"""Soundness of the certifier on input that is not an iterated claw.

The certificates read their degree from the polynomial, not from the claw
index it is labelled with, and the interlacing check accepts any pair whose
root counts differ by 0 or 1.  Three classical families are real-rooted
with consecutive members interlacing: Eulerian polynomials (Frobenius),
Touchard (Bell) polynomials (Harper) and Laguerre polynomials (orthogonal,
Szegő §3.3).  The rule in every case is a ✓ only where the mathematics says
so, never a false one.
"""

from math import comb, factorial

import pytest

from certcheck import interlacing_errors, root_errors
from clawgenus.errors import ConsistencyError, InterlacingUndecided, StructureViolation
from clawgenus.polynomials import IntPoly
from clawgenus.rootcert import (
    InterlacingCertificate,
    NormalizedPoly,
    RootCertificate,
    certificate_chain,
    certify_interlacing,
    isolate_roots,
)


def P(*coeffs):
    return IntPoly(coeffs)


def eulerian_over_x(n: int) -> IntPoly:
    """A_n(x) / x: the coefficient of x^(k-1) is the number of permutations
    of 1..n with k - 1 descents, by A(n, k) = k A(n-1, k) + (n-k+1) A(n-1, k-1)."""
    row = [1]  # A(1, 1)
    for m in range(2, n + 1):
        row = [
            (k * row[k - 1] if k <= len(row) else 0)
            + ((m - k + 1) * row[k - 2] if k >= 2 else 0)
            for k in range(1, m + 1)
        ]
    return IntPoly(row)


def eulerian_coeffs(n: int) -> tuple[int, ...]:
    return eulerian_over_x(n).coeffs


def laguerre(n: int) -> IntPoly:
    """n! L_n(-x) = sum over k of C(n, k) n!/k! x^k: the roots of L_n are
    positive, so these are negative."""
    return IntPoly([comb(n, k) * factorial(n) // factorial(k) for k in range(n + 1)])


def touchard_over_x(n: int) -> IntPoly:
    """T_n(x) / x: the coefficient of x^(k-1) is the Stirling number
    S(n, k), by S(m, k) = k S(m-1, k) + S(m-1, k-1)."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row = [(k * row[k] if k < len(row) else 0) + (row[k - 1] if k else 0)
               for k in range(m + 1)]
    return IntPoly(row[1:])


FAMILIES = {
    "laguerre": (laguerre, range(1, 31)),
    "touchard": (touchard_over_x, range(2, 31)),
    "eulerian": (eulerian_over_x, range(2, 41)),
}


def row(c: RootCertificate, consecutive: InterlacingCertificate | None) -> dict:
    """A certify JSON row, as certcheck reads it, with no skip pair."""
    return {
        "n": c.n,
        "root_certificate": c.to_json_dict(),
        "interlacing": {
            "consecutive": None if consecutive is None else consecutive.to_json_dict(),
            "skip": None,
        },
        "summary": {"interlace_consecutive": consecutive is not None, "interlace_skip": None},
    }


class TestFamilies:
    def test_known_rows(self):
        assert laguerre(2) == P(2, 4, 1)
        assert touchard_over_x(4) == P(1, 7, 6, 1)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_chain_certifies_every_consecutive_pair_and_no_skip_pair(self, name):
        """Through ``certificate_chain``, as ``certify`` walks claws: every
        step after the first counts by brackets, every root certificate and
        consecutive pair passes certcheck, and every skip pair raises, as
        its root counts differ by 2."""
        family, ns = FAMILIES[name]

        def coeffs(n):
            return family(n).coeffs

        chain = certificate_chain(NormalizedPoly(n, family(n)) for n in ns)
        for c, consecutive, skip in chain:
            assert c.complete and c.degree == len(c.intervals) == family(c.n).degree
            if c.n == ns[0]:
                assert consecutive is None and skip is None
                assert root_errors(row(c, None), coeffs) == []
                continue
            assert consecutive[0] is not c  # the brackets counted
            got = row(c, certify_interlacing(*consecutive))
            assert root_errors(got, coeffs) == [] and interlacing_errors(got, coeffs) == []
            assert (skip is None) == (c.n == ns[1])
            if skip is not None:
                with pytest.raises(ConsistencyError, match="exceed it by one"):
                    certify_interlacing(*skip)

    def test_a_shared_root_is_undecided(self):
        """A_3(x)/x times z + 1 shares the root -1 of A_4(x)/x, and no
        halving separates the two."""
        a4 = eulerian_over_x(4)
        b = eulerian_over_x(3) * P(1, 1)
        assert a4.sign_at(-1) == b.sign_at(-1) == 0
        steps = certificate_chain([NormalizedPoly(3, b), NormalizedPoly(4, a4)])
        _, (c, consecutive, _) = steps
        assert c.complete
        with pytest.raises(InterlacingUndecided, match=r"\(4, 3\)"):
            certify_interlacing(*consecutive)

    def test_roots_two_to_the_minus_40_apart_separate(self):
        """(3 2^40 z + 2^40)(3 2^40 z + 2^40 + 3) has the roots -1/3 and
        -1/3 - 2^-40, neither dyadic, and 3 2^41 z + 2^41 + 3 the root
        halfway between."""
        t = 1 << 40
        p = P(t, 3 * t) * P(t + 3, 3 * t)
        q = P(2 * t + 3, 6 * t)
        polys = {1: q.coeffs, 2: p.coeffs}
        steps = certificate_chain([NormalizedPoly(1, q), NormalizedPoly(2, p)])
        _, (c, consecutive, _) = steps
        assert c.complete and len(c.intervals) == 2
        ic = certify_interlacing(*consecutive)
        assert [o for o, _ in ic.merged] == [2, 1, 2]
        got = row(c, ic)
        assert root_errors(got, polys.get) == [] and interlacing_errors(got, polys.get) == []


class TestEulerianChain:
    def test_known_rows(self):
        assert eulerian_over_x(3) == P(1, 4, 1)
        assert eulerian_over_x(4) == P(1, 11, 11, 1)

    def test_every_consecutive_pair_certifies_and_passes_certcheck(self):
        """A_n(x)/x for n = 2..20, chained as ``certify`` chains claws: each
        certificate from the one before, each consecutive pair from the
        certificates ``certificate_chain`` picks.  The degree n - 1 is not
        the claw degree (n+2)//2, and at odd n the counts differ by one.

        The roots and the pairs pass certcheck's Horner checks.  At even n,
        -1 is a root, and the bisection's interval after it starts there,
        where certcheck reads the sign of the derivative."""
        certs = {}
        chain = certificate_chain(NormalizedPoly(n, eulerian_over_x(n)) for n in range(2, 21))
        for c, consecutive, _ in chain:
            n = c.n
            certs[n] = c
            assert c.complete and c.degree == len(c.intervals) == n - 1
            row = {"n": n, "root_certificate": c.to_json_dict()}
            assert root_errors(row, eulerian_coeffs) == []
            if n == 2:
                continue
            assert consecutive[0] is not c  # the bracket path counted
            pair = certify_interlacing(*consecutive)
            canonical = certify_interlacing(c, certs[n - 1])
            assert [o for o, _ in pair.merged] == [o for o, _ in canonical.merged]
            row = {
                "n": n,
                "interlacing": {"consecutive": pair.to_json_dict(), "skip": None},
                "summary": {"interlace_consecutive": True, "interlace_skip": None},
            }
            assert interlacing_errors(row, eulerian_coeffs) == []

    def test_an_interval_from_a_root_certifies_only_a_root_after_it(self):
        """A_4(x)/x = (x + 1)(x^2 + 10x + 1): (-1, 0] holds -5 + 2 sqrt 6 and
        passes; (-1, -1/2] holds no root and fails, though w(-1) = 0."""
        c = isolate_roots(NormalizedPoly(4, eulerian_over_x(4)))
        row = {"n": 4, "root_certificate": c.to_json_dict()}
        assert row["root_certificate"]["intervals"][-1] == [-1, 1, 0, 1]
        assert root_errors(row, eulerian_coeffs) == []
        row["root_certificate"]["intervals"][-1] = [-1, 1, -1, 2]
        assert root_errors(row, eulerian_coeffs) == [
            "n=4 roots: no certified root in [-1, 1, -1, 2]"
        ]

    def test_an_interval_from_a_double_root_is_rejected(self):
        """(x + 1)^2 (2x + 1) changes sign on (-1, 0], but w'(-1) = 0 leaves
        the sign just right of -1 unread."""
        row = {"n": 0, "root_certificate": {
            "intervals": [[-1, 1, 0, 1]], "degree": 1, "complete": True}}
        w = (P(1, 1) * P(1, 1) * P(1, 2)).coeffs
        errors = root_errors(row, lambda k: w)
        assert "n=0 roots: no certified root in [-1, 1, 0, 1]" in errors


# (z + 1)(z^2 + 1), z^2 + z + 1, (z + 2)(z^2 + z + 1)
NOT_REAL_ROOTED = [P(1, 1, 1, 1), P(1, 1, 1), P(2, 3, 3, 1)]


class TestNoFalseCertificate:
    @pytest.mark.parametrize("label", range(8))
    @pytest.mark.parametrize("w", NOT_REAL_ROOTED, ids=["cubic", "quadratic", "two-factors"])
    def test_non_real_rooted_is_never_complete(self, w, label):
        """The claw label n = 0 once made (z + 1)(z^2 + 1) complete with its
        one interval, as the claw degree of index 0 is 1."""
        prev = isolate_roots(NormalizedPoly(0, P(1, 1)))  # complete: root -1
        for got in (isolate_roots(NormalizedPoly(label, w)),
                    isolate_roots(NormalizedPoly(label, w), prev)):
            assert got.degree == w.degree
            assert not got.complete and len(got.intervals) < w.degree

    @pytest.mark.parametrize("label", range(8))
    def test_real_rooted_is_complete_whatever_its_label(self, label):
        got = isolate_roots(NormalizedPoly(label, P(2, 3, 1)))  # roots -2, -1
        assert got.complete and got.degree == len(got.intervals) == 2

    def test_the_claw_degree_stays_a_data_check(self):
        with pytest.raises(StructureViolation, match="expected 1"):
            NormalizedPoly(0, P(1, 1, 1, 1)).validate()


class TestInterlacingCounts:
    def test_equal_counts_at_even_n_certify(self):
        """The claw parity rule once refused this: z + 2 and z + 1 labelled
        (4, 3) alternate, with the second polynomial's root rightmost."""
        a = isolate_roots(NormalizedPoly(4, P(2, 1)))
        b = isolate_roots(NormalizedPoly(3, P(1, 1)))
        assert [o for o, _ in certify_interlacing(a, b).merged] == [4, 3]

    @pytest.mark.parametrize("a_roots,b_roots", [((1,), (1, 3)), ((1, 3, 5), (2,))],
                             ids=["fewer", "two-more"])
    def test_other_count_differences_raise(self, a_roots, b_roots):
        def cert(n, roots):
            w = P(1)
            for r in roots:
                w = w * P(r, 1)
            return isolate_roots(NormalizedPoly(n, w))

        with pytest.raises(ConsistencyError, match="equal the second or exceed it by one"):
            certify_interlacing(cert(5, a_roots), cert(4, b_roots))
