"""Partitioned genus distributions of iterated claws.

An embedding of the iterated claw is classified by how many distinct
face-boundary walks touch the root vertex: three (class a), exactly two
(class b), or one walk incident three times (class c).  The counts per genus
form three polynomials (A, B, C) whose sum is the genus polynomial.

Attaching a new claw at the root transforms the triple linearly; the fixed
3x3 polynomial matrix below encodes that transformation, and one
matrix-vector kernel applies it: each entry of the product is one
``IntPoly.dot`` of a matrix row with the vector, built once.  Iterating
it from the base triple of the three-edge dipole yields every iterated
claw's partitioned genus distribution; iterating its transpose from
(1, 1, 1) yields the column sums of its powers, the series behind the
generating-function route.

``ResumableSequence`` is the one policy for continuing an iteration: it
keeps the last (index, term) pair it returned and steps on from it when
asked for the same or a later index, so an ascending scan costs one step
per index, and a request below it restarts from the first term.
``pgd(n)`` and ``column_sum(n)`` read it here, over the matrix and its
transpose; in ``formulas`` the recurrence route reads it over its own
three-term window, and the explicit route over the rows of its
composition sums.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, NamedTuple, TypeVar

from .errors import StructureViolation
from .polynomials import IntPoly

#: Fixed production matrix: column j feeds class j of the parent into the
#: three classes of the child.
PRODUCTION_MATRIX: tuple[tuple[IntPoly, ...], ...] = (
    (IntPoly(), IntPoly.constant(2), IntPoly.constant(8)),
    (IntPoly.monomial(1, 12), IntPoly.monomial(1, 12), IntPoly()),
    (IntPoly.monomial(2, 4), IntPoly.monomial(1, 2), IntPoly.monomial(1, 8)),
)
_TRANSPOSE = tuple(zip(*PRODUCTION_MATRIX))
_ONES = (IntPoly.constant(1),) * 3


_T = TypeVar("_T")


class ResumableSequence(Generic[_T]):
    """The sequence x_0, x_1, ... of a first term and a step x_{k+1} = step(x_k).

    Calling it with n returns x_n, continuing from the (index, term) pair it
    returned last, or from x_0 when n is below that index.  Each call
    rebinds the pair in one assignment, so a reader in another thread sees
    the old pair or the new one, never a mix, and needs no lock.  Iterating
    yields x_0, x_1, ... from state of its own.
    """

    def __init__(self, first: _T, step: Callable[[_T], _T]) -> None:
        self.first = first
        self.step = step
        self.last: tuple[int, _T] = (0, first)

    def __call__(self, n: int) -> _T:
        i, x = self.last
        if n < i:
            i, x = 0, self.first
        for _ in range(i, n):
            x = self.step(x)
        self.last = (n, x)
        return x

    def __iter__(self) -> Iterator[_T]:
        x = self.first
        while True:
            yield x
            x = self.step(x)


def _apply(matrix, vec: tuple[IntPoly, ...]) -> tuple[IntPoly, ...]:
    """Matrix-vector product over IntPoly, one ``IntPoly.dot`` per row."""
    return tuple(IntPoly.dot(row, vec) for row in matrix)


class PgdVector(NamedTuple):
    """Partitioned genus distribution (A, B, C) of the n-th iterated claw."""

    a: IntPoly
    b: IntPoly
    c: IntPoly
    n: int

    def total(self) -> IntPoly:
        """Full genus polynomial A + B + C."""
        return self.a + self.b + self.c

    def embedding_count(self) -> int:
        """Value of the total at z=1, the sum of the parts' coefficient
        sums; must equal 2**(4n+2)."""
        return sum(self.a.coeffs) + sum(self.b.coeffs) + sum(self.c.coeffs)

    def validate(self) -> None:
        for name, p in (("a", self.a), ("b", self.b), ("c", self.c)):
            if min(p.coeffs, default=0) < 0:
                raise StructureViolation(
                    f"negative coefficient in partial {name} at n={self.n}"
                )
        expected = 1 << (4 * self.n + 2)
        got = self.embedding_count()
        if got != expected:
            raise StructureViolation(
                f"embedding total at n={self.n} is {got}, expected {expected}"
            )
        if self.n >= 1 and self.b[0] != 0:
            raise StructureViolation(
                f"partial b has nonzero constant term at n={self.n}"
            )


def initial_pgd() -> PgdVector:
    """Base case: the three-edge dipole has 2 planar embeddings with three
    root faces and 2 toroidal embeddings with a single root face."""
    return PgdVector(IntPoly.constant(2), IntPoly(), IntPoly.monomial(1, 2), 0)


def newclaw_step(v: PgdVector) -> PgdVector:
    """Advance one claw attachment: apply PRODUCTION_MATRIX to (A, B, C)."""
    a, b, c = _apply(PRODUCTION_MATRIX, (v.a, v.b, v.c))
    return PgdVector(a, b, c, v.n + 1)


#: The pgd vectors, continuing from the one returned last.
_PGD = ResumableSequence(initial_pgd(), newclaw_step)


def iter_pgd() -> Iterator[PgdVector]:
    """Yield validated pgd vectors for n = 0, 1, 2, ..."""
    for v in _PGD:
        v.validate()
        yield v


def pgd(n: int) -> PgdVector:
    """Partitioned genus distribution after n claw attachments.

    Continues from the vector returned last, so ascending scans cost one
    step per index; a request below it restarts from the base triple.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = _PGD(n)
    v.validate()
    return v


#: The row vectors (1,1,1)M^n, one right-multiplication by M (the transpose
#: applied to the row) per step.
_ROWS = ResumableSequence(_ONES, lambda row: _apply(_TRANSPOSE, row))


def iter_column_sums() -> Iterator[IntPoly]:
    """Yield r_0, r_1, ...: the sum of the third column of M^n.

    That is the third component of the row vector (1,1,1)M^n.  The sequence
    starts at 1 for n=0 and equals four times the genus polynomial of claw
    n-1 afterwards.
    """
    return (row[2] for row in _ROWS)


def column_sum(n: int) -> IntPoly:
    """Sum of the third column of the n-th power of the production matrix.

    Continues from the row vector of the last request, so ascending scans
    cost one step per index; a request below it restarts from (1, 1, 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _ROWS(n)[2]
