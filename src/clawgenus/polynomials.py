"""Exact univariate polynomial arithmetic over Z and Z[sqrt 3].

Polynomials are dense coefficient vectors: index i holds the coefficient of
z**i.  The genus polynomials handled downstream never have internal zeros, so
dense storage is the right shape.  Coefficients are immutable once built
and every operation returns a fresh object.  ``IntPoly.sign``'s memo caches
a pure function of them, so two threads that fill it write the same value,
and values can move freely between threads.  ``IntPoly`` compares, adds
and subtracts only with ``IntPoly``; an ``int`` scales it.
``IntPoly.dot`` is the one convolution kernel: the sum of the products of
pairs, built in one list into one ``IntPoly``.  A product of two
polynomials is its one-pair case, and each linear combination of the
algebraic routes (the matrix step, the recurrence step, the series check)
is one ``dot``.  It is a static method, not a module function, so a
tracer that wraps the module's functions times it in its caller, as it
does the product.  ``remainder_sequence`` is the one Euclidean kernel:
its last entry is the gcd, and a Sturm chain in ``rootcert`` is the
sequence.

Signs are read at dyadic points x / 2**k given as two integers, or as a
``fractions.Fraction`` with a power-of-two denominator, which is all root
certification needs; ``sign`` reads each point once, through ``sign_at``.
``eval`` is the exact evaluator at any other rational point.  An element of
Q(sqrt 3) met downstream always has integer parts, so ``Sqrt3Poly`` is a
pair of integer polynomials rat + irr*sqrt(3) that adds, subtracts and
scales by an ``IntPoly``, all the explicit formula does with it.  Its one
product of two elements of Z[sqrt 3] is the explicit route's step in
``formulas``; the one power-of-two scale the formula needs is applied by
its caller.  It is an immutable slotted class, not a tuple, so ``3 * s``
and ``(1,) + s`` raise TypeError instead of repeating or concatenating.
"""

from __future__ import annotations

from math import gcd
from operator import add, neg, sub

# Degree of the zero polynomial.  A float sentinel compares correctly against
# integer degrees but cannot silently be used as an index or a loop bound.
NEG_INF = float("-inf")


def _lowest_terms(x: int, k: int) -> tuple[int, int]:
    """The point x / 2**k as (x', k') with x' odd or k' = 0."""
    t = min((x & -x).bit_length() - 1, k) if x else k  # common factors of 2
    return x >> t, k - t


class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs", "_signs")  # _signs: made by the first ``sign``

    def __init__(self, coeffs=()):
        cs = tuple(coeffs)
        if cs and cs[-1] == 0:
            n = len(cs) - 1
            while n and cs[n - 1] == 0:
                n -= 1
            cs = cs[:n]
        self.coeffs: tuple[int, ...] = cs

    @classmethod
    def constant(cls, c: int) -> IntPoly:
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> IntPoly:
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self):
        """Index of the last nonzero coefficient; NEG_INF for the zero poly."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> IntPoly:
        return IntPoly(map(neg, self.coeffs))

    def __add__(self, other) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly((*map(add, a, b), *a[len(b):]))

    def __sub__(self, other) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            return IntPoly((*map(sub, a, b), *map(neg, b[len(a):])))
        return IntPoly((*map(sub, a, b), *a[len(b):]))

    def __mul__(self, other) -> IntPoly:
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly.dot((self,), (other,))

    @staticmethod
    def dot(ms, xs) -> IntPoly:
        """The sum of m * x over the pairs of ms and xs, built in one list.

        Schoolbook convolution: each nonzero coefficient of the shorter
        factor of a pair adds one row into the list where the two overlap,
        and the rest of the row extends the list past its end; a pair with
        a zero factor adds nothing.
        """
        out = []
        for m, x in zip(ms, xs):
            a, b = m.coeffs, x.coeffs
            if not a or not b:
                continue
            if len(a) > len(b):
                a, b = b, a
            n = len(b)
            for i, ai in enumerate(a):
                if ai:
                    j, k = i + n, len(out)
                    if k > i:
                        out[i:j] = [c + ai * y for c, y in zip(out[i:j], b)]
                    else:
                        out += [0] * (i - k)
                        k = i
                    if k < j:
                        out += [ai * y for y in b[k - i:]]
        return IntPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> IntPoly:
        """Multiply by z**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return IntPoly((0,) * k + self.coeffs)

    def eval(self, x):
        """Exact Horner evaluation; accepts int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x, k: int = 0) -> int:
        """Sign of the value at x / 2**k, via integer arithmetic only.

        For an int x this is the sign of p(x/2**k) * 2**(k*deg), by Horner's
        rule with each coefficient shifted instead of multiplied by a power
        of the denominator.  A Fraction x is read the same way when its
        denominator is a power of two; any other raises ValueError, and
        ``eval`` is the exact evaluator there.  The common factors of 2 of
        x and 2**k are stripped first, so the shifts grow with the point's
        own precision, not with k.
        """
        if not isinstance(x, int):  # a Fraction; int is the cheaper check
            x, b = x.numerator, x.denominator << k
            if b & (b - 1):
                raise ValueError(f"sign_at needs a dyadic point, got {x}/{b}")
            k = b.bit_length() - 1
        if k and not x & 1:
            x, k = _lowest_terms(x, k)
        acc = s = 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c << s)
            s += k
        return (acc > 0) - (acc < 0)

    def sign(self, x: int, k: int = 0) -> int:
        """``sign_at(x, k)``, kept in a memo keyed by the point in lowest
        terms: x / 2**k written at any exponent is evaluated once."""
        if k and not x & 1:  # _lowest_terms, inline
            t = (x & -x).bit_length() - 1 if x else k
            if t > k:
                t = k
            x, k = x >> t, k - t
        try:
            memo = self._signs
        except AttributeError:
            memo = self._signs = {}
        s = memo.get((x, k))
        if s is None:
            s = memo[x, k] = self.sign_at(x, k)
        return s

    def derivative(self) -> IntPoly:
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> IntPoly:
        """Divide out the content; the sign of the polynomial is kept."""
        g = self.content()
        if g <= 1:
            return self
        return IntPoly(c // g for c in self.coeffs)

    def exact_scalar_div(self, k: int) -> IntPoly:
        if k == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        for c in self.coeffs:
            if c % k:
                raise ValueError(f"coefficient {c} not divisible by {k}")
        return IntPoly([c // k for c in self.coeffs])

    def max_abs_coeff(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                var = "z" if i == 1 else f"z^{i}"
                term = f"{'-' if c < 0 else ''}{mag}{var}"
                if parts:
                    term = f"- {mag}{var}" if c < 0 else f"+ {mag}{var}"
            parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def signed_pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Remainder of a *positive* integer multiple of f modulo g.

    Plain pseudo-division can flip signs when g has a negative leading
    coefficient; here the multiplier is always positive, which is what
    Sturm-sequence construction needs.
    """
    if not g:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    lg = g.lead
    alg = abs(lg)
    sg = 1 if lg > 0 else -1
    r = f
    while r and r.degree >= g.degree:
        s = r.degree - g.degree
        r = r * alg - g.shift(s) * (r.lead * sg)
    return r


def exact_div(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact polynomial division over the integers; raises if not exact."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    out = [0] * (len(f.coeffs) - len(g.coeffs) + 1) if len(f) >= len(g) else []
    r = list(f.coeffs)
    dg, lg = g.degree, g.lead
    for i in range(len(out) - 1, -1, -1):
        c = r[i + dg]
        q, rem = divmod(c, lg)
        if rem:
            raise ValueError("division is not exact over the integers")
        out[i] = q
        if q:
            for j, gc in enumerate(g.coeffs):
                r[i + j] -= q * gc
    if any(r):
        raise ValueError("division left a nonzero remainder")
    return IntPoly(out)


def remainder_sequence(f: IntPoly, g: IntPoly) -> list[IntPoly]:
    """f, g, then each negated ``signed_pseudo_rem`` of the two entries before
    it, made primitive; stops at a constant or before a zero remainder.

    The last entry is gcd(f, g) up to a scalar; on (p, p') the sequence is
    the Sturm sequence of p.
    """
    seq = [f]
    while g:
        seq.append(g)
        if g.degree < 1:
            break
        f, g = g, (-signed_pseudo_rem(f, g)).primitive_part()
    return seq


class Sqrt3Poly:
    """Polynomial rat + irr*sqrt(3) over Z[sqrt 3], as a pair of IntPoly.

    Immutable, and equal to another ``Sqrt3Poly`` with the same parts.  It
    is no tuple, so an int or a tuple meets it in ``*`` or ``+`` with a
    TypeError, not with repetition or concatenation.
    """

    __slots__ = ("rat", "irr")

    def __init__(self, rat: IntPoly = IntPoly(), irr: IntPoly = IntPoly()):
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.rat, self.irr) == (other.rat, other.irr)

    def __hash__(self) -> int:
        return hash((self.rat, self.irr))

    def __repr__(self) -> str:
        return f"Sqrt3Poly(rat={self.rat!r}, irr={self.irr!r})"

    def __reduce__(self):
        """Rebuild through ``__init__``: by default pickle and copy set each
        slot, which ``__setattr__`` refuses."""
        return type(self), (self.rat, self.irr)

    def __add__(self, other) -> Sqrt3Poly:
        if not isinstance(other, Sqrt3Poly):
            return NotImplemented
        return Sqrt3Poly(self.rat + other.rat, self.irr + other.irr)

    def __sub__(self, other) -> Sqrt3Poly:
        if not isinstance(other, Sqrt3Poly):
            return NotImplemented
        return Sqrt3Poly(self.rat - other.rat, self.irr - other.irr)

    def __mul__(self, other) -> Sqrt3Poly:
        """Scale both parts by an IntPoly."""
        if not isinstance(other, IntPoly):
            return NotImplemented
        return Sqrt3Poly(self.rat * other, self.irr * other)

    __rmul__ = __mul__
