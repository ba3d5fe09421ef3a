"""Exact real-root certification for normalized genus polynomials.

The genus polynomial of claw n is z^floor((n+1)/2) times a polynomial with
positive coefficients and nonzero constant term; dividing that power out
gives the normalized polynomial certified here.  All machinery is exact:
every point is dyadic, x / 2**k held as the two integers, so interval
endpoints are integers at a shared exponent and signs come from
integer-only evaluation; Bernstein coefficients are integers up to one
positive factor, and Sturm sequences are over the integers.  Floating
point appears only in optional diagnostic output.  ``Fraction`` appears
only where a caller asks for one (``Interval.lo`` and ``hi``,
``SturmChain``), each importing ``fractions`` when called,
so certifying loads neither it nor ``decimal``.  The records are
``NamedTuple``s.

Certificates produced:

* ``RootCertificate`` -- pairwise-disjoint dyadic intervals, each
  containing exactly one (negative) real root, found by bisection of
  (-2**E, 0], 2**E the smaller of two power-of-two root bounds read from
  bit lengths, Cauchy's and Fujiwara's (``_bound_exponent``); ``complete``
  means the count matches the degree, i.e. the polynomial is real-rooted.
  One walker does the bisection, with either of two root counters passed
  in.  It counts roots with the predecessor's brackets when it is given
  one: the predecessor's isolating intervals are refined until the
  polynomial has the sign it must have at each of the predecessor's roots,
  and if it then changes sign as many times as its degree, each changing
  gap holds exactly one simple root (intermediate value theorem plus the
  degree count).  Without a
  predecessor, where a range starts, or when that sign count falls short
  or its small halving allowance runs out, the isolation is cold: each node
  is counted by Descartes' rule on the Bernstein coefficients of the
  squarefree part, split by de Casteljau's triangle (Collins and Akritas;
  Rouillier and Zimmermann).  On real-rooted input both counters give the
  same certificate.  The degree is read from the polynomial; the claw
  degree (n+2)//2 is checked by ``GenusPolynomial.validate``, which
  ``normalize`` runs.  The search, the halvings and the merges read the
  polynomial through ``IntPoly.sign``, so each of its signs is evaluated
  once, whichever certificate of it reads it.
* ``InterlacingCertificate`` -- a merged, strictly alternating ordering of
  the isolating intervals of two normalized polynomials.  Overlapping
  intervals are bisected, and each halving is decided by the sign of the
  certified polynomial at the midpoint (squarefree, as its certificate is
  complete).  ``certificate_chain`` isolates each W_n from W_{n-1} and
  pairs what the brackets worked out on the way, so a consecutive pair
  needs no halving, and a skip pair starts from intervals already refined.
* ``ConcavityReport`` -- exact log-concavity of a validated genus
  polynomial's coefficients; unimodality and the absence of internal zeros
  follow from it and ``GenusPolynomial.validate``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from math import comb, factorial, gcd
from operator import add, ne
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConsistencyError, InterlacingUndecided
from .formulas import GenusPolynomial, genus_recurrence
from .polynomials import IntPoly, _lowest_terms, exact_div, remainder_sequence

if TYPE_CHECKING:
    from fractions import Fraction


class NormalizedPoly(NamedTuple):
    """Genus polynomial with the minimum-genus power of z divided out."""

    n: int
    w: IntPoly


def normalize(g: GenusPolynomial) -> NormalizedPoly:
    """Divide the minimum-genus power of z out of a validated genus polynomial."""
    g.validate()
    return NormalizedPoly(g.n, IntPoly(g.poly.coeffs[g.min_genus:]))


def normalized_recurrence(n: int) -> NormalizedPoly:
    """Normalized polynomial of the recurrence-route genus polynomial."""
    return normalize(genus_recurrence(n))


def _squarefree_mod_prime(p: IntPoly) -> bool:
    """Whether gcd(p, p') over GF(q), q = 2**31 - 1 prime not dividing p's
    lead, is constant, by Euclid with monic divisors on small ints.  That
    proves p squarefree, as reduction modulo such a prime can only raise
    the gcd's degree (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 6)."""
    q = (1 << 31) - 1
    f = [c % q for c in p.coeffs]
    g = [i * c % q for i, c in enumerate(f)][1:]
    while any(g):
        while not g[-1]:
            g.pop()
        inv, dg = pow(g[-1], -1, q), len(g) - 1
        g = [c * inv % q for c in g]
        for i in range(len(f) - 1 - dg, -1, -1):
            c = f.pop()  # f[i + dg], cleared by c * g shifted up by i
            for j in range(dg):
                f[i + j] = (f[i + j] - c * g[j]) % q
        f, g = g, f
    return len(f) == 1 and p.lead % q != 0


def _squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'), with the sign of p's lead, or p itself where
    ``_squarefree_mod_prime`` proves it squarefree; only otherwise is the
    exact gcd taken, the last entry of the remainder sequence of (p, p')."""
    if _squarefree_mod_prime(p):
        return p
    g = remainder_sequence(p, p.derivative())[-1].primitive_part()
    return exact_div(p, -g if g.lead < 0 else g) if g.degree >= 1 else p


def is_squarefree(p: IntPoly) -> bool:
    """Whether gcd(p, p') is a nonzero constant (for p = 0 it is 0)."""
    return bool(p) and _squarefree_part(p).degree == p.degree


class SturmChain:
    """Sturm sequence of the squarefree part of an integer polynomial.

    No certificate path builds one: it is the public, independent counter
    the tests compare isolation against.  The chain is the primitive
    remainder sequence of (p, p'), p made primitive and squarefree, with
    positive pseudo-division multipliers.  That exact sequence is no usable
    reference past about n = 100: on W_n and its derivative it takes 0.64 s
    at n = 100 and 34 s at n = 200 on a 2-core host.  Its per-point cache
    never hits; bench/tracer.py reads it.
    """

    __slots__ = ("polys", "_cache")

    def __init__(self, p: IntPoly):
        if not p:
            raise ValueError("Sturm chain of the zero polynomial")
        p0 = _squarefree_part(p.primitive_part())
        self.polys = remainder_sequence(p0, p0.derivative().primitive_part())
        self._cache: dict[Fraction, int] = {}

    def variations(self, x) -> int:
        """Sign variations of the chain at x, zeros skipped.

        x is an int or a dyadic Fraction; it is converted here into the
        numerator and exponent ``IntPoly.sign_at`` reads, and any other
        point raises ValueError.  V(x) alone is not a root count (for
        z^2 + 1, V(+inf) = 1); only the difference V(lo) - V(hi) counts the
        distinct real roots in (lo, hi].
        """
        from fractions import Fraction

        if not isinstance(x, Fraction):
            x = Fraction(x)
        cached = self._cache.get(x)
        if cached is not None:
            return cached
        d = x.denominator
        if d & (d - 1):
            raise ValueError(f"Sturm chains are read at dyadic points, got {x}")
        m, k = x.numerator, d.bit_length() - 1
        count = 0
        prev = 0
        for p in self.polys:
            s = p.sign_at(m, k)
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


class Interval(NamedTuple):
    """Half-open dyadic interval (a/2**k, b/2**k] containing exactly one root.

    Halving gives (2a, a+b, k+1) or (a+b, 2b, k+1), so refinement stays in
    integers.  Equality compares the triple: the same interval at another
    exponent is a different value.  ``lo`` and ``hi`` are exact Fractions
    for tests and tools; output reads the integers.
    """

    a: int
    b: int
    k: int

    @property
    def lo(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.a, 1 << self.k)

    @property
    def hi(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.b, 1 << self.k)

    def as_json_list(self) -> list[int]:
        """[lo_num, lo_den, hi_num, hi_den], each endpoint in lowest terms."""
        a, i = _lowest_terms(self.a, self.k)
        b, j = _lowest_terms(self.b, self.k)
        return [a, 1 << i, b, 1 << j]

    def approx(self) -> float:
        """The midpoint, correctly rounded: int true division rounds the
        exact quotient (a + b) / 2**(k + 1)."""
        return (self.a + self.b) / (2 << self.k)


class RootCertificate(NamedTuple):
    """Isolating intervals for all real roots of a normalized polynomial.

    ``degree`` is the degree of ``poly``, and ``complete`` is True exactly
    when the number of certified intervals equals it, i.e. every root is
    real.  All intervals lie in (-2**E, 0], 2**E the power-of-two root
    bound of ``_bound_exponent``: positive coefficients rule out roots at
    or above zero.  The certificate holds only what it certifies: how its
    roots were counted stays inside ``isolate_roots``, and so do the
    brackets (``certificate_chain`` hands them on).  A complete certificate
    has ``degree`` distinct roots, so its ``poly`` is squarefree and halving
    reads it, through the signs ``poly`` keeps (``IntPoly.sign``).
    """

    n: int
    intervals: tuple[Interval, ...]
    poly: IntPoly

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def complete(self) -> bool:
        return len(self.intervals) == self.poly.degree

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "intervals": [iv.as_json_list() for iv in self.intervals],
            "complete": self.complete,
        }


def _bound_exponent(p: IntPoly) -> int:
    """An E >= 1 with every root of p of magnitude below 2**E: the smaller
    of two power-of-two bounds, each read from integers alone.

    Cauchy's bound is 1 + max|c| / |lead|, at most 2**C for C the bit length
    of the integer ceiling of max|c| / |lead|.  Fujiwara's (Tohoku Math. J.
    10, 1916) is 2 max over i of |c_{d-i} / lead|**(1/i), and as
    |c| / |lead| < 2**(bits(c) - bits(lead) + 1), it is below 2**F,
    F = 1 + max over the nonzero c_{d-i} of
    ceil((bits(c_{d-i}) - bits(lead) + 1) / i).  For the claws C is the
    smaller up to n = 13 and F from n = 14 on, far smaller as n grows
    (F = 20 against C = 54 at n = 100).  Both bound every complex root, so
    the smaller holds on any input."""
    cs = p.coeffs
    lead = abs(cs[-1])
    cauchy = (-(-p.max_abs_coeff() // lead)).bit_length()
    top = lead.bit_length() - 1
    fujiwara = 1 + max(
        (-((top - c.bit_length()) // i) for i, c in enumerate(reversed(cs[:-1]), 1) if c),
        default=0,
    )
    return max(min(cauchy, fujiwara), 1)


#: Halvings ``_brackets`` may spend per interval of the predecessor.
_BRACKET_HALVINGS = 8


def _brackets(
    w: IntPoly, prev: RootCertificate, E: int
) -> tuple[int, list[tuple[int, int]], list[Interval]] | None:
    """Open intervals (l/2**k, h/2**k), each holding exactly one simple root
    of w, as (k, [(l, h), ...], refined) in increasing order with one
    exponent k = e + E for all; None unless they hold every root of w.
    ``refined`` is prev's intervals as halved here, each still isolating
    one root of prev and holding no root of w.

    prev's isolating intervals are halved until w has sign (-1)^(deg w - j)
    at both ends of the j-th: the sign w takes at prev's j-th root when the
    two root sets alternate.  w is also sampled at -2**E, 2**E its root
    bound (``_bound_exponent``), and at 0.  If w changes sign deg w times
    along the samples, each changing gap holds a root (intermediate value
    theorem), and as w has only deg w roots each gap holds exactly one, a
    simple one.  The same sign at both ends of a halved interval then means
    it holds no root of w, and each gap runs from one halved interval (or
    an end of (-2**E, 0]) to the next: the gaps and ``refined`` alternate.
    The halvings share an allowance of ``_BRACKET_HALVINGS`` per interval of
    prev, as genuine chains up to n = 200 use at most 2.5; running out only
    returns None; on real-rooted w the cold count gives the same certificate.

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
        while w.sign(iv.a, iv.k) != want or w.sign(iv.b, iv.k) != want:
            if steps == budget:
                return None
            iv = _halve(prev.poly, iv)
            steps += 1
        refined.append((iv, want))
    k = max((iv.k for iv, _ in refined), default=0) + E
    # w has sign want at both ends of each refined interval; sorted, the
    # count holds whatever the layout of prev's intervals
    samples = sorted([(-1 << (E + k), w.sign(-1 << E)), (0, w.sign(0))] + [
        (e << (k - iv.k), want) for iv, want in refined for e in (iv.a, iv.b)])
    if any(s == 0 for _, s in samples):
        return None
    found = [(a, b) for (a, sa), (b, sb) in zip(samples, samples[1:]) if sa != sb]
    if len(found) != d:
        return None
    return k, found, [iv for iv, _ in refined]


def _bernstein(w: IntPoly, E: int) -> list[int]:
    """The Bernstein coefficients of w on [-2**E, 0], d = deg w, times one
    positive factor that makes them coprime integers.  With
    x = -2**E (1 - t), w is the sum over i of B_i (1 - t)**(d - i) t**i,
    B_i = sum over j <= d - i of c_j (-2**E)**j C(d - j, i), and its i-th
    Bernstein coefficient is B_i / C(d, i) = B_i i! (d - i)! / d!."""
    d = w.degree
    terms = [c * (-1 << E) ** j for j, c in enumerate(w.coeffs)]
    cs = [
        factorial(i) * factorial(d - i)
        * sum(terms[j] * comb(d - j, i) for j in range(d - i + 1))
        for i in range(d + 1)
    ]
    g = gcd(*cs)
    return [c // g for c in cs]


def _split(cs: list[int]) -> tuple[list[int], list[int]]:
    """The Bernstein coefficients of both halves of a node, each up to a
    positive factor: one de Casteljau triangle of pairwise sums, row r of
    which is 2**r times the average triangle's, so both halves come out
    2**d times cs's scale; each is then divided by the largest power of
    two that divides all of its coefficients."""
    d = len(cs) - 1
    left, right, row = [cs[0] << d], [cs[-1] << d], cs
    for shift in range(d - 1, -1, -1):
        row = list(map(add, row, row[1:]))
        left.append(row[0] << shift)
        right.append(row[-1] << shift)
    right.reverse()
    return _drop_twos(left), _drop_twos(right)


def _drop_twos(cs: list[int]) -> list[int]:
    """cs divided by the largest power of two that divides every entry."""
    bits = 0
    for c in cs:
        bits |= c
    shift = (bits & -bits).bit_length() - 1
    return [c >> shift for c in cs] if shift > 0 else cs


def _roots(cs: list[int]) -> int:
    """Descartes' count for a node (a, b] from its Bernstein coefficients.
    The sign variations, zeros skipped, bound the roots in (a, b), counted
    with multiplicity, from above and have their parity; they are exact
    when every root is real.  A last coefficient 0 is a root at b, which
    the node owns."""
    signs = [c > 0 for c in cs if c]
    return sum(map(ne, signs, signs[1:])) + (cs[-1] == 0)


def _bisect(E: int, node, count, split) -> list[Interval]:
    """The intervals of the bisection of (-2**E, 0] that hold one distinct
    root each, in increasing order: the one walk of both root counters.
    ``node`` is the payload of (-2**E, 0], ``count(payload)`` a node's
    count, and ``split(payload, mid, k)`` the payloads of its halves
    (2a, mid] and (mid, 2b] at exponent k, mid = a + b.  A node counted 0
    is dropped, one counted 1 kept, and any other split; each count is taken
    as its node is pushed.  The lower half goes on the stack last, so the
    intervals come out ascending."""
    found: list[Interval] = []
    stack = [(-1 << E, 0, 0, count(node), node)]
    while stack:
        a, b, k, roots, node = stack.pop()
        if roots == 0:
            continue
        if roots == 1:
            found.append(Interval(a, b, k))
            continue
        mid, k = a + b, k + 1
        left, right = split(node, mid, k)
        stack.append((mid, b << 1, k, count(right), right))
        stack.append((a << 1, mid, k, count(left), left))
    return found


def _descartes(w: IntPoly, E: int) -> list[Interval]:
    """``_bisect`` with every node counted by Descartes' rule (``_roots``)
    on the Bernstein coefficients of w's squarefree part.  A count bounds
    the roots from above and has their parity, so a node counted 0 holds
    none and one counted 1 holds exactly one, whatever the complex roots
    do; on a squarefree polynomial every node ends so (Vincent's theorem;
    Eigenwillig, Sharma and Yap bound the tree).  On real-rooted input every
    count is exact, so the tree is the one the true counts give.  A root at
    a midpoint goes to the left half, as in (a, mid]."""
    return _bisect(E, _bernstein(_squarefree_part(w), E), _roots,
                   lambda cs, mid, k: _split(cs))


def isolate_roots(
    np_: NormalizedPoly, prev: RootCertificate | None = None
) -> RootCertificate:
    """Isolate every real root of a normalized polynomial by bisection.

    The bisection of (-2**E, 0], 2**E the power-of-two root bound of
    ``_bound_exponent``, is one walker (``_bisect``) on every path, and on
    real-rooted input so is the certificate; only the root counter passed
    to it differs.  With a complete certificate ``prev`` whose roots
    alternate with those of w (index n-1 in ``certificate_chain``), the
    counter reads the brackets of ``_brackets``: the roots at or below x
    are the brackets with h <= x, plus the one with l < x < h when w(x) is
    0 or has the sign of w(h), a sign the brackets read.  The brackets' exponent is never below a
    query's (see ``_brackets``), so x is raised to it by one shift.
    Without such a ``prev``, or when its brackets do not account for every
    root of w, Descartes' rule counts (``_descartes``): one interval per
    distinct real root, finer than needed where complex roots raise a
    count.  The degree is w's own, whatever n the polynomial is labelled
    with; the zero polynomial raises ValueError.
    """
    return _isolate(np_, prev)[0]


def _isolate(
    np_: NormalizedPoly, prev: RootCertificate | None
) -> tuple[RootCertificate, RootCertificate | None, RootCertificate | None]:
    """``isolate_roots``, with the brackets where they counted: w's gaps,
    each narrowed to w's interval of the same root, and prev's intervals
    halved until w has no root in them, both as complete certificates, else
    None and None.  Each gap lies between two of the halved intervals, or
    between one and an end of (-2**E, 0], so the two alternate and
    ``_merge`` separates them with no halving.  The gaps hold w itself and
    the halved intervals prev's polynomial, so each reads the signs its
    polynomial has already read.  Without brackets the count is cold, and
    ``_descartes`` returns the intervals outright; with them ``_bisect``
    walks the rank pair (rank(a, k), rank(b, k)) of each node."""
    w = np_.w
    if not w:
        raise ValueError("cannot isolate the roots of the zero polynomial")
    E = _bound_exponent(w)
    counted = _brackets(w, prev, E) if prev is not None and prev.complete else None
    if counted is None:
        return RootCertificate(np_.n, tuple(_descartes(w, E)), w), None, None
    top, spans, refined = counted
    lows = [l for l, _ in spans]
    his = [h for _, h in spans]

    def rank(x: int, k: int) -> int:
        at = x << (top - k)
        j = bisect_right(his, at)
        if j < len(his) and lows[j] < at:
            j += w.sign(x, k) in (0, w.sign(his[j], top))
        return j

    def halves(ranks: tuple[int, int], mid: int, k: int):
        r_mid = rank(mid, k)
        return (ranks[0], r_mid), (r_mid, ranks[1])

    # rank(b, k) - rank(a, k) is the number of distinct roots in (a, b]/2**k
    found = _bisect(E, (rank(-1 << E, 0), rank(0, 0)), lambda r: r[1] - r[0], halves)
    cert = RootCertificate(n=np_.n, intervals=tuple(found), poly=w)
    # the j-th gap and the j-th interval hold the same root, and neither end
    # of their meet is another root: the gap is open around its one root,
    # and top is no coarser than any interval's exponent
    ends = [(iv.a << (top - iv.k), iv.b << (top - iv.k)) for iv in found]
    narrowed = tuple(
        Interval(max(l, a), min(h, b), top) for (l, h), (a, b) in zip(spans, ends)
    )
    halved = RootCertificate(prev.n, tuple(refined), prev.poly)
    return cert, RootCertificate(np_.n, narrowed, w), halved


def certificate_chain(
    polys: Iterable[NormalizedPoly],
) -> Iterator[tuple[RootCertificate, tuple | None, tuple | None]]:
    """Isolate each of polys, in consecutive index order, from the one
    before, and yield (certificate, consecutive, skip) for each W_n: the
    two certificates ``certify_interlacing`` merges for (n, n-1) and for
    (n, n-2), or None where that predecessor is not in polys.  They are
    W_n's gaps with W_{n-1} as halved at step n, and with W_{n-2} as
    halved at step n-1; where either step counted cold, the canonical
    certificates.  While it isolates W_n, the chain holds
    certificates of n-2 and n-1 only, and no pair it has yielded."""
    prev = older = below = None  # certificates n-1, n-2; W_{n-2} as halved at n-1
    for np_ in polys:
        cert, gaps, halved = _isolate(np_, prev)
        yield (
            cert,
            None if prev is None else (gaps, halved) if gaps else (cert, prev),
            None if older is None else (gaps, below) if gaps and below else (cert, older),
        )
        prev, older, below = cert, prev, halved


def _halve(p: IntPoly, iv: Interval) -> Interval:
    """Halve an isolating interval of p, keeping its single root.  p must be
    squarefree, as the polynomial of a complete certificate is, so the root
    is simple and p changes sign across it unless it sits exactly on hi or
    on the midpoint."""
    a, b, k = iv.a, iv.b, iv.k
    mid = a + b
    s = p.sign(b, k)
    if s == 0 or p.sign(mid, k + 1) == -s:
        return Interval(mid, b << 1, k + 1)
    return Interval(a << 1, mid, k + 1)


def _merge(a: RootCertificate, b: RootCertificate) -> list[tuple[int, Interval]]:
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
    merged: list[tuple[int, Interval]] = []
    steps = i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        if x.b << y.k <= y.a << x.k:
            merged.append((0, x))
            i += 1
        elif y.b << x.k <= x.a << y.k:
            merged.append((1, y))
            j += 1
        elif steps >= allowance:
            raise InterlacingUndecided(
                f"interlacing ({a.n}, {b.n}): could not separate intervals "
                f"within {allowance} refinement steps; the polynomials may "
                "share a root"
            )
        else:
            if (x.b - x.a) << y.k >= (y.b - y.a) << x.k:
                xs[i] = _halve(a.poly, x)
            else:
                ys[j] = _halve(b.poly, y)
            steps += 1
    return merged + [(0, x) for x in xs[i:]] + [(1, y) for y in ys[j:]]


class InterlacingCertificate(NamedTuple):
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
    and any other pair raises ValueError.  a must have as many roots as b
    or one more; the merged order, which must start with a's root and
    alternate, decides which side owns the rightmost root.  Any complete
    certificates of the two polynomials give the same verdict:
    ``certificate_chain`` pairs the bracket certificates where it has them,
    already apart for a consecutive pair.  Raises InterlacingUndecided when
    ``_merge``'s worst-case refinement allowance runs out (the roots may
    coincide), ConsistencyError if the counts or the alternation pattern
    fail outright.  The merged order fixes every sign of each polynomial at
    the other's roots: at b's i-th root, a has sign (-1)^(i + deg a) times
    that of its lead (Fisk, *Polynomials, roots, and interlacing*).
    """
    if a.n - b.n not in (1, 2):
        raise ValueError(f"pair ({a.n}, {b.n}) is neither (n, n-1) nor (n, n-2)")
    if not (a.complete and b.complete):
        raise ValueError("both certificates must be complete")
    if len(a.intervals) - len(b.intervals) not in (0, 1):
        raise ConsistencyError(
            f"root counts {len(a.intervals)} and {len(b.intervals)} for pair "
            f"({a.n}, {b.n}): the first must equal the second or exceed it by one"
        )
    merged = _merge(a, b)
    # the sides must run 0, 1, 0, 1, ...
    idx = next((k for k, (side, _) in enumerate(merged) if side != k % 2), None)
    if idx is not None:
        raise ConsistencyError(
            f"roots of pair ({a.n}, {b.n}) do not alternate at position {idx}"
        )
    owners = (a.n, b.n)
    tagged = tuple((owners[side], iv) for side, iv in merged)
    return InterlacingCertificate(n=a.n, m=b.n, merged=tagged)


class ConcavityReport(NamedTuple):
    """Exact log-concavity of a validated genus polynomial's coefficients."""

    n: int
    log_concave: bool


def concavity_report(g: GenusPolynomial) -> ConcavityReport:
    """Validate g, then check a_{k-1} a_{k+1} <= a_k^2 across its coefficients.

    As ``validate`` rules out internal zeros, each ratio a_{k+1} / a_k is then
    at most the one before, so the coefficients are unimodal too (Stanley 1989)."""
    g.validate()
    cs = g.poly.coeffs
    # at either end one neighbour is 0, so only the interior can fail
    log_concave = all(
        cs[k - 1] * cs[k + 1] <= cs[k] * cs[k] for k in range(1, len(cs) - 1)
    )
    return ConcavityReport(g.n, log_concave)
