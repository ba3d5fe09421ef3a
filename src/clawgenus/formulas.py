"""Genus polynomials of iterated claws by three routes beyond the matrix.

Routes implemented here:

* ``genus_recurrence`` -- the three-term linear recurrence
  G_n = 20z G_{n-1} + 8z(3-8z) G_{n-2} - 384z^3 G_{n-3}
  from the tabulated seeds for n <= 2.  ``RECURRENCE`` is the one table of
  its coefficients; every consumer of the recurrence reads it.  Each step
  is one ``IntPoly.dot`` of the table with the window.  The route
  continues from its last three-term window (``pgd.ResumableSequence``).

* ``genus_from_series`` -- one quarter of term n+1 of the sequence r_n of
  third-column sums of the production-matrix powers, (1,1,1)M^n, which
  ``pgd.column_sum`` reads.
  ``verify_series_closed_form`` checks the series against its closed
  rational generating function in t, whose denominator comes from
  ``RECURRENCE``.

* ``genus_explicit`` -- an exact closed form over Q(sqrt 3): a scaled
  combination of three consecutive terms of an auxiliary polynomial family
  (``composition_sum``) defined by a sum over compositions.  The sum is
  evaluated by Pascal's rule, as rows of weighted prefix sums over
  Z[sqrt 3] that continue from the last index (``pgd.ResumableSequence``),
  in O(n) integer steps per index.  The state also keeps the last three
  sums, the window the formula combines, so each index builds one sum.
  All sqrt(3) parts must cancel and all rational parts must be
  nonnegative integers; anything else raises FormulaIntegrityError.

The routes are independent implementations on purpose: agreement between
them (and with the pgd engine and the brute-force embedding oracle) is the
package's core correctness argument.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import ConsistencyError, FormulaIntegrityError, StructureViolation
from .pgd import ResumableSequence, column_sum
from .polynomials import IntPoly, Sqrt3Poly


class GenusPolynomial(NamedTuple):
    """Genus polynomial of the n-th iterated claw.

    Coefficient i counts the embeddings into the orientable surface of
    genus i.  The support is exactly [floor((n+1)/2), n+1], every
    coefficient inside is positive, and the coefficients sum to 2**(4n+2).
    """

    n: int
    poly: IntPoly

    @property
    def min_genus(self) -> int:
        return (self.n + 1) // 2

    @property
    def max_genus(self) -> int:
        return self.n + 1

    def validate(self) -> None:
        p = self.poly
        if p.degree != self.max_genus:
            raise StructureViolation(
                f"degree at n={self.n} is {p.degree}, expected {self.max_genus}"
            )
        cs, lo = p.coeffs, self.min_genus
        if any(cs[:lo]):
            i = next(i for i, c in enumerate(cs) if c)
            raise StructureViolation(
                f"nonzero coefficient below minimum genus at n={self.n}, i={i}"
            )
        if min(cs[lo:]) <= 0:  # the degree check leaves cs[lo:] nonempty
            i = next(i for i in range(lo, len(cs)) if cs[i] <= 0)
            raise StructureViolation(
                f"nonpositive coefficient inside the support at "
                f"n={self.n}, i={i}"
            )
        total = sum(cs)
        if total != 1 << (4 * self.n + 2):
            raise StructureViolation(
                f"coefficient sum at n={self.n} is {total}, "
                f"expected 2^{4 * self.n + 2}"
            )


_SEEDS = (
    IntPoly((2, 2)),
    IntPoly((0, 40, 24)),
    IntPoly((0, 48, 720, 256)),
)

#: Coefficients (c_1, c_2, c_3) of G_n = c_1 G_{n-1} + c_2 G_{n-2} + c_3 G_{n-3}.
#: Every use of the recurrence reads them from here.
RECURRENCE: tuple[IntPoly, ...] = (
    IntPoly((0, 20)),
    IntPoly((0, 24, -64)),
    IntPoly((0, 0, 0, -384)),
)


def _recurrence_step(g1: IntPoly, g2: IntPoly, g3: IntPoly) -> IntPoly:
    """Next term from the previous three, newest first."""
    return IntPoly.dot(RECURRENCE, (g1, g2, g3))


def _genus_step(
    window: tuple[GenusPolynomial, ...]
) -> tuple[GenusPolynomial, ...]:
    """(G_n, G_{n+1}, G_{n+2}) to (G_{n+1}, G_{n+2}, G_{n+3})."""
    g0, g1, g2 = window
    nxt = GenusPolynomial(g2.n + 1, _recurrence_step(g2.poly, g1.poly, g0.poly))
    if min(nxt.poly.coeffs, default=0) < 0:
        raise StructureViolation(
            f"recurrence produced a negative coefficient at n={nxt.n}"
        )
    return g1, g2, nxt


#: Windows (G_n, G_{n+1}, G_{n+2}), continuing from the one returned last.
_GENUS = ResumableSequence(
    tuple(GenusPolynomial(n, p) for n, p in enumerate(_SEEDS)), _genus_step
)


def genus_recurrence(n: int) -> GenusPolynomial:
    """Genus polynomial by the three-term recurrence.

    Continues from the last window of three terms, so ascending scans cost
    one step per index; a request below that window restarts from the seeds.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = _GENUS(n)[0]
    g.validate()
    return g


def genus_from_series(n: int) -> GenusPolynomial:
    """Genus polynomial as one quarter of series term n+1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = GenusPolynomial(n, column_sum(n + 1).exact_scalar_div(4))
    g.validate()
    return g


#: Numerator 1 + (8-12z)t - 24z t^2 of the closed rational generating
#: function of the column-sum series in t; the denominator is
#: 1 - c_1 t - c_2 t^2 - c_3 t^3 from RECURRENCE.
SERIES_NUMERATOR: tuple[IntPoly, ...] = (
    IntPoly((1,)),
    IntPoly((8, -12)),
    IntPoly((0, -24)),
)


def verify_series_closed_form(n_max: int) -> None:
    """Check the closed generating function against the series up to t^n_max.

    The series comes from the production matrix and the denominator from the
    recurrence table, so this compares the two sources.  Convolves the series
    with the denominator and compares the result with the claimed numerator
    coefficientwise in t.  Raises ConsistencyError on the first mismatch.
    """
    denominator = (IntPoly.constant(1),) + tuple(-c for c in RECURRENCE)
    r = [column_sum(k) for k in range(n_max + 1)]
    for n in range(n_max + 1):
        acc = IntPoly.dot(denominator, r[n::-1])  # d_k r_(n-k) for k <= n
        want = SERIES_NUMERATOR[n] if n < len(SERIES_NUMERATOR) else IntPoly()
        if acc != want:
            raise ConsistencyError(
                f"series does not match the closed generating function at "
                f"t^{n}: got {acc}, expected {want}"
            )


#: The multipliers a = 3, 1 + sqrt 3 and 1 - sqrt 3 of the composition sum's
#: weighted prefix sums S(m) = f(m) + a S(m-1), as (rational part, sqrt 3
#: part), applied in this order.
MULTIPLIERS = ((3, 0), (1, 1), (1, -1))


def _sum(k: int, t) -> Sqrt3Poly:
    """H_k from T(k): 3^j 2^(k-j) T_j(k-2j) is its coefficient of z^(k-j)."""
    rat, irr = [0] * (k + 1), [0] * (k + 1)
    for j, (x, y) in enumerate(t):
        w = 3 ** j << (k - j)
        rat[k - j], irr[k - j] = w * x, w * y
    return Sqrt3Poly(IntPoly(rat), IntPoly(irr))


def _composition_step(state):
    """The state of index k to that of k + 1: the index, the rows, the
    window (T(k-1), T(k)) and the sums (H_(k-2), H_(k-1), H_k).

    T(k)[j] = T_j(k-2j), a pair (rat, irr) in Z[sqrt 3], for j <= k // 2.
    Row j holds one sum S per multiplier and advances one m per index: it
    is fed T_{j-1} at its own m, from T(k-1), and row 0 the unit sequence,
    1 only where the row starts.  A row starts from zero sums.  Each step
    builds one sum, H_(k+1) from T(k+1).
    """
    k, rows, (back, last), (_, h1, h2) = state
    grown = []
    for f, sums in zip([(int(not rows), 0), *back], rows + (((0, 0),) * 3,)):
        row = []
        for (p, q), (x, y) in zip(MULTIPLIERS, sums):  # S = f + aS, a = p + q sqrt 3
            f = (f[0] + p * x + 3 * q * y, f[1] + p * y + q * x)
            row.append(f)
        grown.append(tuple(row))
    t = tuple(row[-1] for row in grown)
    return k + 1, tuple(grown), (last, t), (h1, h2, _sum(k + 1, t))


#: Element i holds the index i - 1, the rows of T(i-1), the window
#: (T(i-2), T(i-1)) and the sums (H_(i-3), H_(i-2), H_(i-1)), where an H
#: below index 0 is the empty sum, zero.  The first element holds no rows,
#: so a restart reads MULTIPLIERS afresh.
_COMPOSITION = ResumableSequence(
    (-1, (), ((), ()), (Sqrt3Poly(),) * 3), _composition_step
)


def composition_sum(n: int) -> Sqrt3Poly:
    """Auxiliary polynomial over Q(sqrt 3) used by the explicit formula.

    Sum over all (j, i1, i2, i3) of nonnegative integers with
    2j + i1 + i2 + i3 = n of

        C(j+i1, i1) C(j+i2, i2) C(j+i3, i3)
        * (1+sqrt 3)^i2 (1-sqrt 3)^i3 * 3^(j+i1) * (2z)^(n-j).

    The empty sum at n = -1 is zero.  The coefficient of z^(n-j) is
    3^j 2^(n-j) T_j(n-2j), where T_j(m) is the inner sum over
    i1 + i2 + i3 = m.  By Pascal's rule C(j+1+i, i) a^i is the sum over
    t <= i of C(j+t, t) a^t a^(i-t), so T_{j+1} is T_j sent through the
    weighted prefix sums S(m) = f(m) + a S(m-1) for the three
    ``MULTIPLIERS`` a = 3, 1+sqrt 3 and 1-sqrt 3, and T_0 is the unit
    sequence sent through the same three.  Each row advances one m per
    index: O(n) integer steps on pairs (rat, irr) in Z[sqrt 3] per index.
    """
    if n < -1:
        raise ValueError("n must be at least -1")
    return _COMPOSITION(n + 1)[-1][2]


def genus_explicit(n: int) -> GenusPolynomial:
    """Genus polynomial by the explicit Q(sqrt 3) formula.

    Evaluates 2^(n-1) * (H_{n+1} + 2(2-3z) H_n - 6z H_{n-1}) where H is the
    composition-sum family, entirely over Z[sqrt 3]; the sqrt(3) part must
    cancel, and the halving at n = 0 must be exact, so integrality is
    asserted rather than assumed.  The three sums are the window that the
    composition state keeps, each built once, when its index is reached.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    h0, h1, h2 = _COMPOSITION(n + 2)[-1]
    combo = h2 + h1 * IntPoly((4, -6)) - h0 * IntPoly((0, 6))
    if combo.irr:
        i, c = next((i, c) for i, c in enumerate(combo.irr.coeffs) if c)
        raise FormulaIntegrityError(
            f"nonzero sqrt(3) residue {c} * 2^{n - 1} at n={n}, z^{i}"
        )
    if n >= 1:
        poly = combo.rat * (1 << (n - 1))
    else:
        try:
            poly = combo.rat.exact_scalar_div(2)
        except ValueError as exc:
            raise FormulaIntegrityError(f"halving at n={n}: {exc}") from None
    if min(poly.coeffs, default=0) < 0:
        i, c = next((i, c) for i, c in enumerate(poly.coeffs) if c < 0)
        raise FormulaIntegrityError(
            f"coefficient {c} at n={n}, z^{i} is not a nonnegative integer"
        )
    g = GenusPolynomial(n, poly)
    g.validate()
    return g


def _leading_closed_form(n: int) -> int:
    return 4 ** n * sum(
        comb(n + 2, 2 * k + 1) * 3 ** k for k in range((n + 1) // 2 + 1)
    )


def leading_coefficient(n: int) -> int:
    """Top genus coefficient, checked against a second source.

    Compares the closed binomial form with the top coefficient of the
    recurrence route; a disagreement raises FormulaIntegrityError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    closed = _leading_closed_form(n)
    top = genus_recurrence(n).poly.lead
    if closed != top:
        raise FormulaIntegrityError(
            f"leading coefficient mismatch at n={n}: closed form {closed}, "
            f"polynomial route {top}"
        )
    return closed


class StructureReport(NamedTuple):
    """Outcome of the elevenfold growth check on one genus polynomial:
    the first index i where it fails, or None."""

    n: int
    first_failure: int | None

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def structure_check(n: int) -> StructureReport:
    """Verify the strict elevenfold growth inequality at index n.

    g_{n,i} > 11 g_{n-1,i-1} is checked for floor((n+1)/2)+1 <= i <= n, an
    empty range for n <= 1.  Support, positivity and the coefficient sum
    need no check here: ``genus_recurrence`` validates them on every term
    it returns, and raises StructureViolation where they fail.  G_{n-1} is
    read before G_n, so an ascending scan never restarts the recurrence.
    """
    prev = genus_recurrence(n - 1).poly if n >= 1 else IntPoly()
    g = genus_recurrence(n)
    first = next(
        (i for i in range(g.min_genus + 1, n + 1) if not g.poly[i] > 11 * prev[i - 1]),
        None,
    )
    return StructureReport(n=n, first_failure=first)
