"""Exact real-root certification for normalized genus polynomials.

The genus polynomial of claw n is z^floor((n+1)/2) times a polynomial with
positive coefficients and nonzero constant term; dividing that power out
gives the normalized polynomial certified here.  All machinery is exact:
Sturm sequences over the integers with content removal, rational interval
endpoints, and integer-only sign evaluation.  Floating point appears only in
optional diagnostic output.

Certificates produced:

* ``RootCertificate`` -- pairwise-disjoint rational intervals, each
  containing exactly one (negative) real root; ``complete`` means the count
  matches the degree, i.e. the polynomial is real-rooted.
* ``InterlacingCertificate`` -- a merged, strictly alternating ordering of
  the isolating intervals of two normalized polynomials.
* ``SignPatternReport`` -- alternating-sign checks of one polynomial
  evaluated at the other's roots.
* ``ConcavityReport`` -- exact log-concavity / unimodality of a genus
  polynomial's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

from .errors import ConsistencyError, InterlacingUndecided, StructureViolation
from .formulas import GenusPolynomial, genus_recurrence
from .polynomials import IntPoly, exact_div, poly_gcd, signed_pseudo_rem


@dataclass(frozen=True)
class NormalizedPoly:
    """Genus polynomial with the minimum-genus power of z divided out."""

    n: int
    w: IntPoly

    @property
    def degree(self) -> int:
        return (self.n + 2) // 2

    def validate(self) -> None:
        if self.w.degree != self.degree:
            raise StructureViolation(
                f"normalized degree at n={self.n} is {self.w.degree}, "
                f"expected {self.degree}"
            )
        if self.w[0] <= 0 or any(c <= 0 for c in self.w.coeffs):
            raise StructureViolation(
                f"normalized polynomial at n={self.n} must have all "
                "positive coefficients"
            )


def normalize(g: GenusPolynomial) -> NormalizedPoly:
    """Divide the minimum-genus power of z out of a genus polynomial."""
    k = g.min_genus
    if any(g.poly[i] != 0 for i in range(k)):
        raise StructureViolation(
            f"nonzero coefficient below z^{k} at n={g.n}; cannot normalize"
        )
    out = NormalizedPoly(g.n, IntPoly(g.poly.coeffs[k:]))
    out.validate()
    return out


def normalized_recurrence(n: int) -> NormalizedPoly:
    """Normalized polynomial of the recurrence-route genus polynomial."""
    return normalize(genus_recurrence(n))


class SturmChain:
    """Sturm sequence of the squarefree part of an integer polynomial.

    Remainders are computed with positive pseudo-division multipliers and
    divided by their integer content, which keeps coefficients small without
    touching any sign.  Sign-variation counts are cached per endpoint, so
    repeated bisection around the same points costs one evaluation each.
    """

    __slots__ = ("polys", "_cache")

    def __init__(self, p: IntPoly):
        if p.is_zero():
            raise ValueError("Sturm chain of the zero polynomial")
        p0 = p.primitive_part()
        if p0.degree >= 1:
            g = poly_gcd(p0, p0.derivative())
            if g.degree >= 1:
                p0 = exact_div(p0, g).primitive_part()
        polys = [p0]
        if p0.degree >= 1:
            polys.append(p0.derivative().primitive_part())
            while polys[-1].degree >= 1:
                r = signed_pseudo_rem(polys[-2], polys[-1])
                if r.is_zero():
                    break
                polys.append((-r).primitive_part())
        self.polys = polys
        self._cache: dict[Fraction, int] = {}

    def variations(self, x) -> int:
        """Sign variations of the chain at x, zeros skipped.

        Equals the number of distinct real roots of the squarefree part in
        (x, +inf), so differences count roots in half-open intervals.
        """
        if not isinstance(x, Fraction):
            x = Fraction(x)
        cached = self._cache.get(x)
        if cached is not None:
            return cached
        count = 0
        prev = 0
        for p in self.polys:
            s = p.sign_at(x)
            if s and prev and s != prev:
                count += 1
            if s:
                prev = s
        self._cache[x] = count
        return count

    def count(self, lo, hi) -> int:
        """Number of distinct real roots in the half-open interval (lo, hi]."""
        if not lo < hi:
            raise ValueError("need lo < hi")
        return self.variations(lo) - self.variations(hi)


def sturm_count(p: IntPoly, lo, hi) -> int:
    """Distinct real roots of p in (lo, hi], by a one-off Sturm chain."""
    return SturmChain(p).count(lo, hi)


def is_squarefree(p: IntPoly) -> bool:
    return poly_gcd(p, p.derivative()).degree == 0


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open rational interval (lo, hi] containing exactly one root."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def overlaps(self, other: Interval) -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def as_json_list(self) -> list[int]:
        return [
            self.lo.numerator,
            self.lo.denominator,
            self.hi.numerator,
            self.hi.denominator,
        ]

    def approx(self) -> float:
        return float(self.midpoint)


@dataclass(frozen=True)
class RootCertificate:
    """Isolating intervals for all real roots of a normalized polynomial.

    ``complete`` is True exactly when the number of certified intervals
    equals the degree, i.e. every root is real.  All intervals lie in
    (-bound, 0): positive coefficients rule out roots at or above zero.
    """

    n: int
    degree: int
    intervals: tuple[Interval, ...]
    complete: bool
    poly: IntPoly = field(compare=False)
    chain: SturmChain = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "intervals": [iv.as_json_list() for iv in self.intervals],
            "complete": self.complete,
        }


def root_bound(p: IntPoly) -> Fraction:
    """Cauchy bound: all real roots have magnitude below 1 + max|c|/lead."""
    return 1 + Fraction(p.max_abs_coeff(), abs(p.lead))


def isolate_roots(np_: NormalizedPoly) -> RootCertificate:
    """Isolate every real root of a normalized polynomial by Sturm bisection."""
    w = np_.w
    chain = SturmChain(w)
    lo, hi = -root_bound(w), Fraction(0)
    total = chain.count(lo, hi)
    found: list[Interval] = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            found.append(Interval(a, b))
            continue
        mid = (a + b) / 2
        kl = chain.count(a, mid)
        stack.append((a, mid, kl))
        stack.append((mid, b, k - kl))
    found.sort()
    return RootCertificate(
        n=np_.n,
        degree=np_.degree,
        intervals=tuple(found),
        complete=total == np_.degree,
        poly=w,
        chain=chain,
    )


def _halve(chain: SturmChain, iv: Interval) -> Interval:
    """Halve an isolating interval, keeping its single root."""
    mid = (iv.lo + iv.hi) / 2
    if chain.count(mid, iv.hi) == 1:
        return Interval(mid, iv.hi)
    return Interval(iv.lo, mid)


def default_refine_budget(a: RootCertificate, b: RootCertificate) -> int:
    """Bisection allowance before declaring a pair undecided.

    Distinct algebraic numbers of bounded height separate within
    polynomially many halvings; the cap only turns a hypothetical shared
    root into a diagnosable outcome instead of nontermination.
    """
    bits = max(a.poly.max_abs_coeff().bit_length(), b.poly.max_abs_coeff().bit_length())
    return 4 * max(a.degree, 1) * max(bits, 1)


def _separate(
    a_ivs: list[Interval],
    a_chain: SturmChain,
    b_ivs: list[Interval],
    b_chain: SturmChain,
    budget: int,
    what: str,
) -> tuple[list[Interval], list[Interval]]:
    """Refine two sorted interval lists until no cross pair overlaps."""
    a, b = list(a_ivs), list(b_ivs)
    steps = 0
    while True:
        hit = None
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i].hi <= b[j].lo:
                i += 1
            elif b[j].hi <= a[i].lo:
                j += 1
            else:
                hit = (i, j)
                break
        if hit is None:
            return a, b
        if steps >= budget:
            raise InterlacingUndecided(
                f"{what}: could not separate intervals within {budget} "
                "refinement steps; the polynomials may share a root"
            )
        i, j = hit
        if a[i].width >= b[j].width:
            a[i] = _halve(a_chain, a[i])
        else:
            b[j] = _halve(b_chain, b[j])
        steps += 1


Mode = Literal["consecutive", "skip"]


@dataclass(frozen=True)
class InterlacingCertificate:
    """Witness that the roots of two normalized polynomials alternate.

    ``merged`` lists disjoint isolating intervals in increasing order, each
    tagged with the claw index it belongs to; the sequence starts with index
    n and alternates strictly.
    """

    n: int
    m: int
    mode: Mode
    merged: tuple[tuple[int, Interval], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "merged": [
                {"index": owner, "interval": iv.as_json_list()}
                for owner, iv in self.merged
            ],
        }


def certify_interlacing(
    a: RootCertificate,
    b: RootCertificate,
    mode: Mode,
    max_refine: int | None = None,
) -> InterlacingCertificate:
    """Certify that the roots of certificate a interlace those of b.

    ``mode`` fixes the expected pair: "consecutive" for indices (n, n-1),
    "skip" for (n, n-2).  Expected root-count difference: one for skip pairs
    and for consecutive pairs at even n, zero for consecutive pairs at odd n
    (where b owns the rightmost root).  Raises InterlacingUndecided if the
    refinement budget runs out, ConsistencyError if the alternation pattern
    fails outright.
    """
    if mode == "consecutive":
        if b.n != a.n - 1:
            raise ValueError("consecutive mode needs indices (n, n-1)")
        expected_diff = 1 if a.n % 2 == 0 else 0
    elif mode == "skip":
        if b.n != a.n - 2:
            raise ValueError("skip mode needs indices (n, n-2)")
        expected_diff = 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not (a.complete and b.complete):
        raise ValueError("both certificates must be complete")
    if len(a.intervals) - len(b.intervals) != expected_diff:
        raise ConsistencyError(
            f"root counts {len(a.intervals)} and {len(b.intervals)} do not "
            f"differ by {expected_diff} for pair ({a.n}, {b.n})"
        )
    budget = max_refine if max_refine is not None else default_refine_budget(a, b)
    a_ivs, b_ivs = _separate(
        list(a.intervals),
        a.chain,
        list(b.intervals),
        b.chain,
        budget,
        f"interlacing ({a.n}, {b.n})",
    )
    merged = sorted(
        [(a.n, iv) for iv in a_ivs] + [(b.n, iv) for iv in b_ivs],
        key=lambda t: t[1],
    )
    for idx, (owner, _) in enumerate(merged):
        want = a.n if idx % 2 == 0 else b.n
        if owner != want:
            raise ConsistencyError(
                f"roots of pair ({a.n}, {b.n}) do not alternate at "
                f"position {idx}"
            )
    return InterlacingCertificate(n=a.n, m=b.n, mode=mode, merged=tuple(merged))


@dataclass(frozen=True)
class SignPatternReport:
    """Alternating-sign evaluations of interlacing polynomials at each
    other's roots.

    With p's roots leftmost and strictly alternating with q's, the value of
    p at q's i-th root must have sign (-1)^(i + deg p), and the value of q
    at p's j-th root must have sign (-1)^(j + deg q + 1).
    """

    p_index: int
    q_index: int
    hypothesis_ok: bool
    p_signs_ok: bool
    q_signs_ok: bool
    first_failure: str | None

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and self.p_signs_ok and self.q_signs_ok


def _signs_at_roots(
    value_poly: IntPoly,
    value_chain: SturmChain,
    root_ivs: list[Interval],
    root_chain: SturmChain,
    budget: int,
) -> list[int]:
    """Sign of value_poly at each isolated root of another polynomial.

    Each root interval is refined until value_poly has no root inside; the
    midpoint sign is then the sign at the (irrational) root itself.
    """
    out = []
    for iv in root_ivs:
        steps = 0
        while value_chain.count(iv.lo, iv.hi) != 0:
            if steps >= budget:
                raise InterlacingUndecided(
                    "could not separate an evaluation interval from the "
                    f"roots of the evaluated polynomial within {budget} steps"
                )
            iv = _halve(root_chain, iv)
            steps += 1
        out.append(value_poly.sign_at(iv.midpoint))
    return out


def sign_pattern_check(
    p_cert: RootCertificate,
    q_cert: RootCertificate,
    max_refine: int | None = None,
) -> SignPatternReport:
    """Check the alternating sign patterns for an interlacing pair.

    p_cert must be the polynomial whose leftmost root comes first (one root
    more than q, or equal counts with q's root rightmost).  Failures are
    recorded in the report, never raised.
    """
    if not p_cert.intervals or not q_cert.intervals:
        # nothing to evaluate at: every root-indexed check is vacuous
        return SignPatternReport(p_cert.n, q_cert.n, True, True, True, None)
    budget = max_refine if max_refine is not None else default_refine_budget(
        p_cert, q_cert
    )
    first: str | None = None
    try:
        p_ivs, q_ivs = _separate(
            list(p_cert.intervals),
            p_cert.chain,
            list(q_cert.intervals),
            q_cert.chain,
            budget,
            f"sign pattern ({p_cert.n}, {q_cert.n})",
        )
    except InterlacingUndecided:
        return SignPatternReport(
            p_cert.n, q_cert.n, False, False, False, "separation failed"
        )

    merged = sorted(
        [("p", iv) for iv in p_ivs] + [("q", iv) for iv in q_ivs],
        key=lambda t: t[1],
    )
    hypothesis_ok = (
        len(p_ivs) - len(q_ivs) in (0, 1)
        and all(
            owner == ("p" if idx % 2 == 0 else "q")
            for idx, (owner, _) in enumerate(merged)
        )
    )
    if not hypothesis_ok:
        return SignPatternReport(
            p_cert.n, q_cert.n, False, False, False, "hypothesis violated"
        )

    dp, dq = p_cert.degree, q_cert.degree
    p_signs_ok = q_signs_ok = True
    p_at_q = _signs_at_roots(p_cert.poly, p_cert.chain, q_ivs, q_cert.chain, budget)
    for i, s in enumerate(p_at_q, start=1):
        if s != (1 if (i + dp) % 2 == 0 else -1):
            p_signs_ok = False
            first = first or f"sign of p at root {i} of q"
            break
    q_at_p = _signs_at_roots(q_cert.poly, q_cert.chain, p_ivs, p_cert.chain, budget)
    for j, s in enumerate(q_at_p, start=1):
        if s != (-1 if (j + dq) % 2 == 0 else 1):
            q_signs_ok = False
            first = first or f"sign of q at root {j} of p"
            break
    return SignPatternReport(
        p_cert.n, q_cert.n, hypothesis_ok, p_signs_ok, q_signs_ok, first
    )


@dataclass(frozen=True)
class ConcavityReport:
    """Exact log-concavity, unimodality and internal-zero checks."""

    n: int
    log_concave: bool
    all_strict: bool
    unimodal: bool
    no_internal_zeros: bool
    first_failure: int | None

    @property
    def ok(self) -> bool:
        return self.log_concave and self.unimodal and self.no_internal_zeros


def concavity_report(g: GenusPolynomial) -> ConcavityReport:
    """Check a_{k-1} a_{k+1} <= a_k^2 across the coefficient sequence,
    single-peak unimodality, and absence of internal zeros."""
    cs = g.poly.coeffs
    log_concave = True
    all_strict = True
    first: int | None = None
    for k in range(len(cs)):
        left = cs[k - 1] if k >= 1 else 0
        right = cs[k + 1] if k + 1 < len(cs) else 0
        prod, sq = left * right, cs[k] * cs[k]
        if prod > sq:
            log_concave = False
            first = first if first is not None else k
        if cs[k] and prod >= sq:
            # strictness is only meaningful on the support
            all_strict = False

    unimodal = True
    falling = False
    for k in range(len(cs) - 1):
        if cs[k + 1] < cs[k]:
            falling = True
        elif cs[k + 1] > cs[k] and falling:
            unimodal = False
            first = first if first is not None else k + 1
            break

    nz = [i for i, c in enumerate(cs) if c]
    no_internal_zeros = not nz or all(
        cs[i] for i in range(nz[0], nz[-1] + 1)
    )
    return ConcavityReport(
        n=g.n,
        log_concave=log_concave,
        all_strict=all_strict,
        unimodal=unimodal,
        no_internal_zeros=no_internal_zeros,
        first_failure=first,
    )
