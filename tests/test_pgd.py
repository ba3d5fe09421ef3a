"""Production-matrix engine: tabulated rows, column sums, invariants."""

import contextlib
import io
import sys

import pytest

import clawgenus.formulas as formulas
from clawgenus.cli import main
from clawgenus.errors import StructureViolation
from clawgenus.pgd import (
    PRODUCTION_MATRIX,
    PgdVector,
    column_sum,
    initial_pgd,
    newclaw_step,
    pgd,
)
from clawgenus.polynomials import IntPoly


def P(*coeffs):
    return IntPoly(coeffs)


# Published coefficient table for n <= 4 (genus index 0..5 per row).
TABLE = {
    0: P(2, 2),
    1: P(0, 40, 24),
    2: P(0, 48, 720, 256),
    3: P(0, 0, 1920, 11648, 2816),
    4: P(0, 0, 1152, 52608, 177664, 30720),
}


class TestInitial:
    def test_base_triple(self):
        v = initial_pgd()
        assert (v.a, v.b, v.c, v.n) == (P(2), P(), P(0, 2), 0)

    def test_dipole_embedding_count(self):
        assert initial_pgd().embedding_count() == 4  # (3-1)!^2

    def test_base_total(self):
        assert initial_pgd().total() == TABLE[0]


class TestStep:
    def test_single_step_partials(self):
        # one application of the three production rules, worked by hand
        v = newclaw_step(initial_pgd())
        assert v.a == P(0, 16)
        assert v.b == P(0, 24)
        assert v.c == P(0, 0, 24)
        assert v.total() == TABLE[1]

    def test_zero_is_fixed(self):
        z = PgdVector(P(), P(), P(), 0)
        out = newclaw_step(z)
        assert (out.a, out.b, out.c) == (P(), P(), P())

    def test_two_steps_match_table(self):
        v = newclaw_step(newclaw_step(initial_pgd()))
        assert v.total() == TABLE[2]

    def test_step_equals_matrix_multiplication(self):
        v = pgd(3)
        col = (v.a, v.b, v.c)
        expected = tuple(
            sum((PRODUCTION_MATRIX[r][c] * col[c] for c in range(3)), P())
            for r in range(3)
        )
        w = newclaw_step(v)
        assert (w.a, w.b, w.c) == expected


class TestPgd:
    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_totals_match_table(self, n):
        assert pgd(n).total() == TABLE[n]

    def test_embedding_counts(self):
        for n in range(7):
            assert pgd(n).embedding_count() == 1 << (4 * n + 2)

    def test_partials_nonnegative_and_b_constant_free(self):
        for v in map(pgd, range(8)):
            for p in (v.a, v.b, v.c):
                assert all(c >= 0 for c in p.coeffs)
            if v.n >= 1:
                assert v.b[0] == 0

    def test_total_support(self):
        for v in map(pgd, range(12)):
            t = v.total()
            lo = (v.n + 1) // 2
            assert t.degree == v.n + 1
            assert all(t[i] == 0 for i in range(lo))
            assert all(t[i] > 0 for i in range(lo, v.n + 2))

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            pgd(-1)


class TestValidate:
    """Each vector fails one check of ``PgdVector.validate`` and passes the
    others: the negative one and the one with b(0) != 0 have the right
    total, 2^(4n+2)."""

    def test_negative_coefficient(self):
        with pytest.raises(StructureViolation, match="negative coefficient in partial c at n=0"):
            PgdVector(P(5), P(), P(0, -1), 0).validate()

    def test_negative_coefficients_in_two_partials_name_the_first(self):
        with pytest.raises(StructureViolation, match="^negative coefficient in partial b at n=0$"):
            PgdVector(P(5), P(0, -1), P(0, 1, -1), 0).validate()

    def test_wrong_total(self):
        with pytest.raises(StructureViolation, match="embedding total at n=0 is 3, expected 4"):
            PgdVector(P(2), P(), P(0, 1), 0).validate()

    def test_nonzero_constant_term_of_b(self):
        with pytest.raises(StructureViolation, match="partial b has nonzero constant term at n=1"):
            PgdVector(P(63), P(1), P(), 1).validate()


class TestColumnSum:
    def test_seed_values(self):
        assert column_sum(0) == P(1)
        assert column_sum(1) == P(8, 8)
        assert column_sum(2) == P(0, 160, 96)

    def test_sum_is_four_times_previous_total(self):
        for n in range(1, 9):
            assert column_sum(n) == 4 * pgd(n - 1).total()

    def test_fifth_sum_recovers_table_row_four(self):
        assert column_sum(5).exact_scalar_div(4) == TABLE[4]

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            column_sum(-1)


class TestWindows:
    """pgd and column_sum continue from their last state."""

    # The package re-exports the pgd function over its submodule's name.
    module = sys.modules["clawgenus.pgd"]

    def test_out_of_order_requests_match_an_ascending_scan(self):
        vecs = list(map(pgd, range(41)))
        sums = list(map(column_sum, range(41)))
        for n in [*range(40, 19, -1), 3, 3, 0, 40, 12, 13, 9, 30, 0]:
            assert pgd(n) == vecs[n], n
            assert column_sum(n) == sums[n], n

    def test_windows_stay_bounded(self):
        pgd(500)
        column_sum(500)
        assert self.module._PGD.last[1].n == 500
        index, row = self.module._ROWS.last
        assert index == 500 and len(row) == 3

    def test_ascending_compute_makes_one_step_per_index(self, monkeypatch):
        products = []
        apply = self.module._apply

        def spy(matrix, vec):
            products.append(matrix)
            return apply(matrix, vec)

        steps = []
        step = formulas._recurrence_step

        def recurrence_spy(*terms):
            steps.append(1)
            return step(*terms)

        monkeypatch.setattr(self.module, "_apply", spy)
        monkeypatch.setattr(formulas, "_recurrence_step", recurrence_spy)
        sums, composition = [], formulas._COMPOSITION
        monkeypatch.setattr(composition, "step", lambda s, f=composition.step: sums.append(s) or f(s))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compute", "--route", "all", "--format", "csv",
                         "--n", "0..40"]) == 0
        # at most 40 steps of the matrix and 41 of its transpose
        assert len(products) <= 2 * 42
        # and of the recurrence, 41 plus the window's look-ahead
        assert len(steps) <= 41 + 3
        # and of the composition sums, H_{-1} .. H_41
        assert len(sums) <= 43
