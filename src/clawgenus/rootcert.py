"""Exact real-root certification for normalized genus polynomials.

The genus polynomial of claw n is z^floor((n+1)/2) times a polynomial with
positive coefficients and nonzero constant term; dividing that power out
gives the normalized polynomial certified here.  All machinery is exact:
every point is dyadic, x / 2**k held as the two integers, so interval
endpoints are integers at a shared exponent and signs come from
integer-only evaluation; Sturm sequences are over the integers, each one
primitive remainder sequence of (p, p') whose last entry decides
squarefreeness.  Floating point appears only in optional diagnostic output.

Certificates produced:

* ``RootCertificate`` -- pairwise-disjoint dyadic intervals, each
  containing exactly one (negative) real root, found by bisection of
  (-2**E, 0], 2**E being the least power of two at or above the Cauchy
  bound; ``complete`` means the count matches the degree, i.e. the
  polynomial is real-rooted.  The bisection counts roots with the
  predecessor's brackets when it is given one: the predecessor's isolating
  intervals are refined until the polynomial has the sign it must have at
  each of the predecessor's roots, and if it then changes sign as many
  times as its degree, each changing gap holds exactly one simple root
  (intermediate value theorem plus the degree count).  A Sturm chain
  counts only without a predecessor, where a range starts, and as the
  fallback when that sign count falls short or its small halving allowance
  runs out; both counters give the same certificate.
* ``InterlacingCertificate`` -- a merged, strictly alternating ordering of
  the isolating intervals of two normalized polynomials.  Overlapping
  intervals are bisected, and each halving is decided by the sign of the
  certified polynomial at the midpoint (squarefree, as its certificate is
  complete); the sign at the kept upper endpoint is carried from one
  halving to the next.
* ``SignPatternReport`` -- alternating-sign checks of each polynomial at
  the other's roots, read at the midpoints of the same merged, disjoint
  intervals.
* ``ConcavityReport`` -- exact log-concavity / unimodality of a genus
  polynomial's coefficients.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .errors import ConsistencyError, InterlacingUndecided, StructureViolation
from .formulas import GenusPolynomial, genus_recurrence
from .polynomials import IntPoly, exact_div, poly_gcd, remainder_sequence


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
        if any(c <= 0 for c in self.w.coeffs):
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

    The chain is the primitive remainder sequence of (p, p'), with positive
    pseudo-division multipliers and content removal, which keeps
    coefficients small without touching any sign.  Its last entry is
    gcd(p, p'): only if that is not constant is the sequence run again on
    p / gcd.  Sign-variation counts are cached per point, but bisection
    asks about each point once, so the cache does not hit; it is kept
    because the benchmark tracer (bench/tracer.py) reads it.
    """

    __slots__ = ("polys", "_cache")

    def __init__(self, p: IntPoly):
        if p.is_zero():
            raise ValueError("Sturm chain of the zero polynomial")
        p0 = p.primitive_part()
        polys = remainder_sequence(p0, p0.derivative().primitive_part())
        g = polys[-1]
        if g.degree >= 1:
            # gcd(p0, p0') is not constant: chain the squarefree part instead
            p0 = exact_div(p0, -g if g.lead < 0 else g).primitive_part()
            polys = remainder_sequence(p0, p0.derivative().primitive_part())
        self.polys = polys
        self._cache: dict[Fraction, int] = {}

    def variations(self, x) -> int:
        """Sign variations of the chain at x, zeros skipped.

        x is an int or a dyadic Fraction, the points ``IntPoly.sign_at``
        reads.  V(x) alone is not a root count (for z^2 + 1, V(+inf) = 1);
        only the difference V(lo) - V(hi) counts the distinct real roots in
        (lo, hi].
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


def is_squarefree(p: IntPoly) -> bool:
    return poly_gcd(p, p.derivative()).degree == 0


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open dyadic interval (a/2**k, b/2**k] containing exactly one root.

    Halving gives (2a, a+b, k+1) or (a+b, 2b, k+1), so refinement stays in
    integers.  Equality compares the triple: the same interval at another
    exponent is a different value.  ``lo``, ``hi`` and ``midpoint`` are
    exact Fractions for output and tests.
    """

    a: int
    b: int
    k: int

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, 1 << self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, 1 << self.k)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.a + self.b, 2 << self.k)

    def as_json_list(self) -> list[int]:
        """[lo_num, lo_den, hi_num, hi_den], each endpoint in lowest terms."""
        lo, hi = self.lo, self.hi
        return [lo.numerator, lo.denominator, hi.numerator, hi.denominator]

    def approx(self) -> float:
        return float(self.midpoint)


@dataclass(frozen=True)
class RootCertificate:
    """Isolating intervals for all real roots of a normalized polynomial.

    ``complete`` is True exactly when the number of certified intervals
    equals the degree, i.e. every root is real.  All intervals lie in
    (-2**E, 0], 2**E the least power of two at or above the root bound:
    positive coefficients rule out roots at or above zero.  The certificate
    holds only what it certifies: whichever counter found the roots stays
    inside ``isolate_roots``.  A complete certificate has ``degree``
    distinct roots, so its ``poly`` is squarefree and halving reads it.
    """

    n: int
    degree: int
    intervals: tuple[Interval, ...]
    complete: bool
    poly: IntPoly = field(compare=False)

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


def _bound_exponent(p: IntPoly) -> int:
    """Least E with 2**E >= root_bound(p): 2**E >= ceil(bound) is the same."""
    return (ceil(root_bound(p)) - 1).bit_length()


#: Halvings ``_brackets`` may spend per interval of the predecessor.
_BRACKET_HALVINGS = 8


def _brackets(
    w: IntPoly, prev: RootCertificate, E: int
) -> tuple[int, list[tuple[int, int, int]]] | None:
    """Open intervals (l/2**k, h/2**k), each holding exactly one simple root
    of w, as (k, [(l, h, sign of w at h), ...]) in increasing order with one
    exponent k = e + E for all; None unless they hold every root of w.

    prev's isolating intervals are halved until w has sign (-1)^(deg w - j)
    at both ends of the j-th: the sign w takes at prev's j-th root when the
    two root sets alternate.  w is also sampled at -2**E, E the exponent of
    its root bound, and at 0.  If w changes sign deg w times along the
    samples, each changing gap holds a root (intermediate value theorem),
    and as w has only deg w roots each gap holds exactly one, a simple one.
    The halvings share an allowance of ``_BRACKET_HALVINGS`` per interval of
    prev, as genuine chains up to n = 200 use at most 2.5; running out only
    returns None, and the caller's Sturm chain gives the same certificate.

    With e the finest exponent of the halved intervals, no query of
    ``isolate_roots`` is finer than e + E: each high but the last is a
    multiple of 2**-e strictly between two neighbouring roots of w, and the
    depth-d nodes of the bisection of (-2**E, 0] sit at every multiple of
    2**(E - d), so by depth e + E no interval holds two roots.
    """
    d = w.degree
    budget = _BRACKET_HALVINGS * len(prev.intervals)
    refined = []
    steps = 0
    for j, iv in enumerate(prev.intervals, start=1):
        want = -1 if (d - j) % 2 else 1
        at_lo, at_hi, p_hi = w.sign_at(iv.a, iv.k), w.sign_at(iv.b, iv.k), None
        while at_lo != want or at_hi != want:
            if steps == budget:
                return None
            half, p_hi = _halve(prev.poly, iv, p_hi)
            if half.a == iv.a << 1:
                at_hi = w.sign_at(half.b, half.k)
            else:
                at_lo = w.sign_at(half.a, half.k)
            iv = half
            steps += 1
        refined.append((iv, at_lo, at_hi))
    k = max((iv.k for iv, _, _ in refined), default=0) + E
    samples = [(-1 << (E + k), w.sign_at(-1 << E)), (0, w.sign_at(0))]
    for iv, at_lo, at_hi in refined:
        samples += [(iv.a << (k - iv.k), at_lo), (iv.b << (k - iv.k), at_hi)]
    # sorted, the count holds whatever the layout of prev's intervals
    samples.sort()
    if any(s == 0 for _, s in samples):
        return None
    found = [(a, b, sb) for (a, sa), (b, sb) in zip(samples, samples[1:]) if sa != sb]
    return (k, found) if len(found) == d else None


def isolate_roots(
    np_: NormalizedPoly, prev: RootCertificate | None = None
) -> RootCertificate:
    """Isolate every real root of a normalized polynomial by bisection.

    The bisection of (-2**E, 0], 2**E the least power of two at or above
    ``root_bound(w)``, is the same on every path and so is the certificate;
    only the root counter differs.  With a complete certificate ``prev``
    whose roots alternate with those of w (the CLI passes index n-1), the
    counter reads the brackets of ``_brackets``: the roots at or below x are
    the brackets with h <= x, plus the one with l < x < h when w(x) is 0 or
    has the sign of w(h), which takes at most one evaluation of w.  The
    brackets' exponent is never below a query's (see ``_brackets``), so x
    is raised to it by one shift.  Without such a ``prev``, or when its
    brackets do not account for every root of w, a Sturm chain counts.
    """
    w = np_.w
    E = _bound_exponent(w)
    brackets = _brackets(w, prev, E) if prev is not None and prev.complete else None
    if brackets is None:
        chain = SturmChain(w)

        def rank(x: int, k: int) -> int:
            return -chain.variations(Fraction(x, 1 << k))
    else:
        top, spans = brackets
        lows = [l for l, _, _ in spans]
        his = [h for _, h, _ in spans]
        signs = [s for _, _, s in spans]

        def rank(x: int, k: int) -> int:
            at = x << (top - k)
            j = bisect_right(his, at)
            if j < len(his) and lows[j] < at and w.sign_at(x, k) in (0, signs[j]):
                j += 1
            return j

    # rank(b, k) - rank(a, k) is the number of distinct roots in (a, b]/2**k;
    # the lower half goes on the stack last, so intervals come out ascending
    lo = -1 << E
    r_lo, r_hi = rank(lo, 0), rank(0, 0)
    found: list[Interval] = []
    stack = [(lo, 0, 0, r_lo, r_hi)]
    while stack:
        a, b, k, ra, rb = stack.pop()
        roots = rb - ra
        if roots == 0:
            continue
        if roots == 1:
            found.append(Interval(a, b, k))
            continue
        mid, k = a + b, k + 1
        r_mid = rank(mid, k)
        stack.append((mid, b << 1, k, r_mid, rb))
        stack.append((a << 1, mid, k, ra, r_mid))
    return RootCertificate(
        n=np_.n,
        degree=np_.degree,
        intervals=tuple(found),
        complete=r_hi - r_lo == np_.degree,
        poly=w,
    )


def _halve(p: IntPoly, iv: Interval, at_hi: int | None = None) -> tuple[Interval, int]:
    """Halve an isolating interval of p, keeping its single root.

    p must be squarefree, as the polynomial of a complete certificate is,
    so the root is simple and p changes sign across it unless it sits
    exactly on hi or on the midpoint.  ``at_hi`` is the
    sign of p at iv.hi if the caller already has it; the sign at the kept
    half's hi comes back with the half, so repeated halving evaluates p at
    the midpoints only.
    """
    a, b, k = iv.a, iv.b, iv.k
    if at_hi is None:
        at_hi = p.sign_at(b, k)
    mid = a + b
    if at_hi == 0:
        return Interval(mid, b << 1, k + 1), at_hi
    at_mid = p.sign_at(mid, k + 1)
    if at_mid == -at_hi:
        return Interval(mid, b << 1, k + 1), at_hi
    return Interval(a << 1, mid, k + 1), at_mid


def _merge(
    a: RootCertificate, b: RootCertificate, what: str
) -> list[tuple[int, Interval]]:
    """Refine a's and b's isolating intervals apart in one two-pointer pass.

    An overlapping pair has its wider interval halved (a's on ties) until
    the two separate; halving only shrinks intervals, so pairs already
    passed stay apart.  Returns every interval in increasing order, tagged
    0 for a and 1 for b.  Endpoints and widths at different exponents are
    compared by shifting each side to the other's.

    There is no fallback here, so the allowance is the worst case
    4 * max(deg a, 1) * max(largest coefficient bits, 1) halvings: distinct
    algebraic numbers of bounded height separate within polynomially many
    halvings, so genuine interlacing input never reaches it.  Running out
    raises InterlacingUndecided, which turns a shared root into a
    diagnosable outcome instead of nontermination.
    """
    bits = max(p.max_abs_coeff().bit_length() for p in (a.poly, b.poly))
    allowance = 4 * max(a.degree, 1) * max(bits, 1)
    xs, ys = list(a.intervals), list(b.intervals)
    sx = sy = None  # sign of a.poly at xs[i].hi and of b.poly at ys[j].hi, once read
    merged: list[tuple[int, Interval]] = []
    steps = i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        if x.b << y.k <= y.a << x.k:
            merged.append((0, x))
            i, sx = i + 1, None
        elif y.b << x.k <= x.a << y.k:
            merged.append((1, y))
            j, sy = j + 1, None
        elif steps >= allowance:
            raise InterlacingUndecided(
                f"{what}: could not separate intervals within {allowance} "
                "refinement steps; the polynomials may share a root"
            )
        else:
            if (x.b - x.a) << y.k >= (y.b - y.a) << x.k:
                xs[i], sx = _halve(a.poly, x, sx)
            else:
                ys[j], sy = _halve(b.poly, y, sy)
            steps += 1
    return merged + [(0, x) for x in xs[i:]] + [(1, y) for y in ys[j:]]


def _misplaced(merged: list[tuple[int, Interval]]) -> int | None:
    """First position where the sides stop running 0, 1, 0, 1, ..., if any."""
    return next((k for k, (side, _) in enumerate(merged) if side != k % 2), None)


@dataclass(frozen=True)
class InterlacingCertificate:
    """Witness that the roots of two normalized polynomials alternate.

    ``merged`` lists disjoint isolating intervals in increasing order, each
    tagged with the claw index it belongs to; the sequence starts with index
    n and alternates strictly.  ``mode`` follows from the pair: m = n - 1 is
    "consecutive", m = n - 2 is "skip".
    """

    n: int
    m: int
    merged: tuple[tuple[int, Interval], ...]

    @property
    def mode(self) -> str:
        return "consecutive" if self.n - self.m == 1 else "skip"

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
    a: RootCertificate, b: RootCertificate
) -> InterlacingCertificate:
    """Certify that the roots of certificate a interlace those of b.

    The indices fix the pair: (n, n-1) is "consecutive", (n, n-2) "skip",
    and any other pair raises ValueError.  Expected root-count difference:
    one for skip pairs and for consecutive pairs at even n, zero for
    consecutive pairs at odd n (where b owns the rightmost root).  Raises
    InterlacingUndecided when ``_merge``'s worst-case refinement allowance
    runs out (the roots may coincide), ConsistencyError if the alternation
    pattern fails outright.
    """
    if a.n - b.n not in (1, 2):
        raise ValueError(f"pair ({a.n}, {b.n}) is neither (n, n-1) nor (n, n-2)")
    expected_diff = 0 if a.n - b.n == 1 and a.n % 2 else 1
    if not (a.complete and b.complete):
        raise ValueError("both certificates must be complete")
    if len(a.intervals) - len(b.intervals) != expected_diff:
        raise ConsistencyError(
            f"root counts {len(a.intervals)} and {len(b.intervals)} do not "
            f"differ by {expected_diff} for pair ({a.n}, {b.n})"
        )
    merged = _merge(a, b, f"interlacing ({a.n}, {b.n})")
    idx = _misplaced(merged)
    if idx is not None:
        raise ConsistencyError(
            f"roots of pair ({a.n}, {b.n}) do not alternate at position {idx}"
        )
    owners = (a.n, b.n)
    tagged = tuple((owners[side], iv) for side, iv in merged)
    return InterlacingCertificate(n=a.n, m=b.n, merged=tagged)


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


def _first_wrong_sign(poly: IntPoly, roots, offset: int) -> int | None:
    """First k >= 1 where poly lacks sign (-1)^(k + offset) at the k-th root."""
    return next(
        (k for k, (_, iv) in enumerate(roots, start=1)
         if poly.sign_at(iv.a + iv.b, iv.k + 1) != (-1) ** (k + offset)),
        None,
    )


def sign_pattern_check(
    p_cert: RootCertificate, q_cert: RootCertificate
) -> SignPatternReport:
    """Check the alternating sign patterns for an interlacing pair.

    p_cert must be the polynomial whose leftmost root comes first (one root
    more than q, or equal counts with q's root rightmost).  The signs are
    read at the midpoints of the merged intervals: each side's intervals
    hold all of its real roots and are disjoint from the other side's, so
    the sign there is the sign at the root.  Failures are recorded in the
    report, never raised.  A side with no intervals passes vacuously;
    otherwise both certificates must be complete, as for
    ``certify_interlacing``, and an incomplete one is reported as
    "incomplete certificate".  A pair that ``_merge``'s worst-case
    allowance cannot separate is reported as "separation failed".
    """
    p, q = p_cert.n, q_cert.n
    if not p_cert.intervals or not q_cert.intervals:
        # nothing to evaluate at: every root-indexed check is vacuous
        return SignPatternReport(p, q, True, True, True, None)
    if not (p_cert.complete and q_cert.complete):
        return SignPatternReport(p, q, False, False, False, "incomplete certificate")
    try:
        merged = _merge(p_cert, q_cert, f"sign pattern ({p}, {q})")
    except InterlacingUndecided:
        return SignPatternReport(p, q, False, False, False, "separation failed")
    if _misplaced(merged) is not None:
        return SignPatternReport(p, q, False, False, False, "hypothesis violated")

    bad_p = _first_wrong_sign(p_cert.poly, merged[1::2], p_cert.degree)
    bad_q = _first_wrong_sign(q_cert.poly, merged[0::2], q_cert.degree + 1)
    first = (
        f"sign of p at root {bad_p} of q" if bad_p
        else f"sign of q at root {bad_q} of p" if bad_q else None
    )
    return SignPatternReport(p, q, True, bad_p is None, bad_q is None, first)


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
