"""Soundness of the certifier on input that is not an iterated claw.

The certificates read their degree from the polynomial, not from the claw
index it is labelled with, and the interlacing check accepts any pair whose
root counts differ by 0 or 1.  Eulerian polynomials are real-rooted and
consecutive ones interlace (Frobenius); the rule in every case is a ✓ only
where the mathematics says so, never a false one.
"""

import pytest

from certcheck import interlacing_errors, root_errors
from clawgenus.cli import _pair
from clawgenus.errors import ConsistencyError, StructureViolation
from clawgenus.polynomials import IntPoly
from clawgenus.rootcert import (
    NormalizedPoly,
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


class TestEulerianChain:
    def test_known_rows(self):
        assert eulerian_over_x(3) == P(1, 4, 1)
        assert eulerian_over_x(4) == P(1, 11, 11, 1)

    def test_every_consecutive_pair_certifies_and_passes_certcheck(self):
        """A_n(x)/x for n = 2..20, chained as ``certify`` chains claws: each
        certificate from the one before, each consecutive pair from the
        certificates ``cli._pair`` picks.  The degree n - 1 is not the claw
        degree (n+2)//2, and at odd n the counts differ by one.

        The roots and the pairs pass certcheck's Horner checks.  At even n,
        -1 is a root, and the bisection's interval after it starts there,
        where certcheck reads the sign of the derivative."""
        certs = {}
        for n in range(2, 21):
            w = eulerian_over_x(n)
            certs[n] = c = isolate_roots(NormalizedPoly(n, w), certs.get(n - 1))
            assert c.complete and c.degree == len(c.intervals) == n - 1
            row = {"n": n, "root_certificate": c.to_json_dict()}
            assert root_errors(row, eulerian_coeffs) == []
            if n == 2:
                continue
            assert c.brackets is not None  # the bracket path counted
            pair = certify_interlacing(*_pair(certs, n, n - 1))
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
