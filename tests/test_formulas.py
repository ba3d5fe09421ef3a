"""The three non-matrix routes and the structural coefficient checks."""

from math import comb

import pytest

import clawgenus.formulas as formulas
from clawgenus.errors import ConsistencyError, FormulaIntegrityError
from clawgenus.formulas import (
    GenusPolynomial,
    composition_sum,
    genus_explicit,
    genus_from_series,
    genus_recurrence,
    leading_coefficient,
    structure_check,
    verify_series_closed_form,
)
from clawgenus.oracle import build_iterated_claw
from clawgenus.pgd import PRODUCTION_MATRIX, column_sum, pgd
from clawgenus.polynomials import IntPoly, Sqrt3Poly

from test_pgd import TABLE


def P(*coeffs):
    return IntPoly(coeffs)


def composition_sum_by_definition(n):
    """The four-fold sum of the composition_sum docstring, term by term."""

    def power(a, b, k):  # (a + b sqrt 3)^k as an integer pair
        x, y = 1, 0
        for _ in range(k):
            x, y = a * x + 3 * b * y, a * y + b * x
        return x, y

    rat = [0] * (n + 1)
    irr = [0] * (n + 1)
    for j in range(n // 2 + 1):
        for i1 in range(n - 2 * j + 1):
            for i2 in range(n - 2 * j - i1 + 1):
                i3 = n - 2 * j - i1 - i2
                w = (comb(j + i1, i1) * comb(j + i2, i2) * comb(j + i3, i3)
                     * 3 ** (j + i1) * 2 ** (n - j))
                pa, pb = power(1, 1, i2)
                ma, mb = power(1, -1, i3)
                rat[n - j] += w * (pa * ma + 3 * pb * mb)
                irr[n - j] += w * (pa * mb + pb * ma)
    return Sqrt3Poly(IntPoly(rat), IntPoly(irr))


@pytest.mark.parametrize("fn", [genus_recurrence, genus_from_series, genus_explicit,
                                leading_coefficient, build_iterated_claw, composition_sum],
                         ids=lambda fn: fn.__name__)
def test_each_route_rejects_an_index_below_its_range(fn):
    """composition_sum's range starts at -1, where its sum is empty."""
    n, message = (-2, "at least -1") if fn is composition_sum else (-1, "nonnegative")
    with pytest.raises(ValueError, match=f"^n must be {message}$"):
        fn(n)


class TestRecurrenceRoute:
    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_matches_table(self, n):
        assert genus_recurrence(n).poly == TABLE[n]

    def test_matches_matrix_route(self):
        # the production-matrix engine is the independent oracle here
        for n in range(30):
            assert genus_recurrence(n).poly == pgd(n).total()

    def test_out_of_order_requests_match_an_ascending_scan(self):
        ref = [genus_recurrence(n).poly for n in range(41)]
        for n in [*range(40, 19, -1), 3, 0, 40, 12, 13, 9, 30]:
            assert genus_recurrence(n).poly == ref[n], n

    def test_window_stays_bounded(self):
        genus_recurrence(500)
        top, terms = formulas._GENUS.last
        assert top == 500 and len(terms) <= 4

    def test_each_step_rejects_a_negative_coefficient(self, monkeypatch):
        from clawgenus.errors import StructureViolation

        c1, c2, c3 = formulas.RECURRENCE
        monkeypatch.setattr(formulas, "RECURRENCE", (-c1, c2, c3))
        genus_recurrence(0)  # the seeds, so the next call steps from G_2
        with pytest.raises(StructureViolation, match="negative coefficient at n=3"):
            genus_recurrence(5)

    def test_validation_catches_bad_support(self):
        from clawgenus.errors import StructureViolation

        with pytest.raises(StructureViolation):
            GenusPolynomial(1, P(1, 40, 23)).validate()  # bad constant term
        with pytest.raises(StructureViolation):
            GenusPolynomial(1, P(0, 40, 23)).validate()  # bad total

    def test_validation_catches_bad_degree_and_a_hole_in_the_support(self):
        """Each polynomial passes every other check of ``validate``: the
        right total, and nothing below the minimum genus."""
        from clawgenus.errors import StructureViolation

        with pytest.raises(StructureViolation, match="degree at n=1 is 3, expected 2"):
            GenusPolynomial(1, P(0, 40, 23, 1)).validate()
        with pytest.raises(StructureViolation,
                           match="nonpositive coefficient inside the support at n=2, i=2"):
            GenusPolynomial(2, P(0, 768, 0, 256)).validate()

    def test_validation_reports_the_first_failing_index(self):
        """Each polynomial has the right degree and fails its check at two
        indices; the lower one is reported."""
        from clawgenus.errors import StructureViolation

        with pytest.raises(StructureViolation,
                           match="^nonzero coefficient below minimum genus at n=5, i=1$"):
            GenusPolynomial(5, P(0, 4, 9, 1, 1, 1, 1)).validate()
        with pytest.raises(StructureViolation,
                           match="^nonpositive coefficient inside the support at n=4, i=3$"):
            GenusPolynomial(4, P(0, 0, 3, 0, -1, 2)).validate()


class TestSeriesRoute:
    def test_seeds(self):
        assert [column_sum(n) for n in range(3)] == [P(1), P(8, 8), P(0, 160, 96)]

    def test_term_five_is_four_times_row_four(self):
        assert column_sum(5) == 4 * TABLE[4]

    def test_series_terms_track_genus_polynomials(self):
        for n in range(25):
            assert column_sum(n + 1) == 4 * genus_recurrence(n).poly

    def test_closed_form(self):
        verify_series_closed_form(60)

    def test_closed_form_detects_a_wrong_recurrence(self, monkeypatch):
        c1, c2, c3 = formulas.RECURRENCE
        monkeypatch.setattr(formulas, "RECURRENCE", (c1, c2 + P(0, 0, 1), c3))
        with pytest.raises(ConsistencyError):
            verify_series_closed_form(10)

    def test_genus_from_series(self):
        for n in sorted(TABLE):
            assert genus_from_series(n).poly == TABLE[n]


class TestExplicitRoute:
    def test_composition_sum_empty(self):
        assert composition_sum(-1) == Sqrt3Poly()

    def test_composition_sum_base(self):
        assert composition_sum(0) == Sqrt3Poly(P(1))

    def test_composition_sum_one(self):
        # three compositions: 6z + 2z(1+sqrt3) + 2z(1-sqrt3) = 10z
        assert composition_sum(1) == Sqrt3Poly(P(0, 10))

    def test_composition_sum_two(self):
        # six compositions, worked by hand; all sqrt(3) parts cancel
        assert composition_sum(2) == Sqrt3Poly(P(0, 6, 84))

    @pytest.mark.parametrize("n", range(-1, 17))
    def test_composition_sum_matches_definition(self, n):
        want = composition_sum_by_definition(n)
        got = composition_sum(n)
        assert got.rat == want.rat
        assert got.irr == want.irr

    def test_sqrt3_parts_cancel_within_each_term(self):
        # swapping the roles of the two conjugate factors pairs every
        # composition with its mirror, so each family member is rational
        for n in range(12):
            assert not composition_sum(n).irr

    def test_composition_cache_stays_bounded(self):
        """The sequence keeps one state: n//2 + 1 rows, T(n), T(n+1) and
        H_(n-1), H_n, H_(n+1)."""
        for n in range(61):
            genus_explicit(n)
        i, (k, rows, window, sums) = formulas._COMPOSITION.last
        assert i == 62 and k == 61 and len(rows) == 31
        assert list(map(len, window)) == [31, 31]
        assert [h.rat.degree for h in sums] == [59, 60, 61]

    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_matches_table(self, n):
        assert genus_explicit(n).poly == TABLE[n]

    def test_halving_prefactor_at_zero(self):
        # n=0 scales by 2^(-1); integrality still must come out exact
        assert genus_explicit(0).poly == P(2, 2)

    def test_agrees_with_recurrence(self):
        for n in range(20):
            assert genus_explicit(n).poly == genus_recurrence(n).poly

    @pytest.mark.parametrize(
        "n,extra",
        [
            (3, Sqrt3Poly(P(), P(0, 1))),  # sqrt(3) residue
            (0, Sqrt3Poly(P(1))),  # odd coefficient before the halving
            (1, Sqrt3Poly(P(-10 ** 9))),  # negative coefficient
        ],
    )
    def test_integrity_failures_raise(self, monkeypatch, n, extra):
        """Every sum is built under the patch, from the first state on, and
        none of them outlives the test."""
        seq = formulas._COMPOSITION
        monkeypatch.setattr(seq, "last", (0, seq.first))
        real = formulas._sum
        monkeypatch.setattr(formulas, "_sum", lambda k, t: real(k, t) + extra)
        with pytest.raises(FormulaIntegrityError):
            genus_explicit(n)


class TestRouteIdentities:
    """Each route's own data gives it the same linear recurrence; with the
    routes' agreement on their first terms, that is agreement at every n."""

    def test_production_matrix_obeys_the_recurrence(self):
        """Cayley-Hamilton: M^3 = c1 M^2 + c2 M + c3 I for (c1, c2, c3) =
        (tr M, -(sum of the principal 2x2 minors), det M), so (A+B+C)(n)
        of the pgd route and the column sums of the series route obey the
        recurrence with these coefficients."""
        m = PRODUCTION_MATRIX

        def minor(i, j):
            return m[i][i] * m[j][j] - m[i][j] * m[j][i]

        def cofactor(j):
            k, l = (j + 1) % 3, (j + 2) % 3
            return m[1][k] * m[2][l] - m[1][l] * m[2][k]

        trace = m[0][0] + m[1][1] + m[2][2]
        minors = minor(0, 1) + minor(0, 2) + minor(1, 2)
        det = m[0][0] * cofactor(0) + m[0][1] * cofactor(1) + m[0][2] * cofactor(2)
        assert (trace, -minors, det) == formulas.RECURRENCE

    def test_composition_sums_obey_the_recurrence(self):
        """H_n has generating function 1 / (D(t) - 6z t^2), with D(t) the
        product of (1 - 2az t) over ``formulas.MULTIPLIERS`` (a = 3, 1+sqrt3,
        1-sqrt3), which is 1 - 2 e1 zt + 4 e2 z^2 t^2 - 8 e3 z^3 t^3 for the
        elementary symmetric functions e_k of the multipliers:
        1 - 10zt + 16z^2 t^2 + 48z^3 t^3, as the sqrt3 parts cancel."""
        def times(x, y):  # (r + i sqrt3)(r' + i' sqrt3)
            return x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        e = [(1, 0), (0, 0), (0, 0), (0, 0)]
        for a in formulas.MULTIPLIERS:  # multiply the running product by (1 + a t)
            e = [e[0]] + [tuple(map(sum, zip(e[k], times(a, e[k - 1]))))
                          for k in range(1, 4)]
        assert [irr for _, irr in e] == [0, 0, 0, 0]
        _, e1, e2, e3 = (rat for rat, _ in e)
        c1, c2, c3 = P(0, 2 * e1), P(0, 6, -4 * e2), P(0, 0, 0, 8 * e3)
        assert (c1, c2, c3) == (P(0, 10), P(0, 6, -16), P(0, 0, 0, -48))
        h = [composition_sum(n) for n in range(-1, 40)]  # one ascending pass
        for n in range(3, 41):  # h[n] is H_{n-1}
            assert h[n] == h[n - 1] * c1 + h[n - 2] * c2 + h[n - 3] * c3
        # the explicit route's 2^(n-1) prefactor turns t into 2t
        assert (c1 * 2, c2 * 4, c3 * 8) == formulas.RECURRENCE

    def test_series_numerator_from_the_seeds(self):
        """D(t) (1 + sum_{n>=1} 4 G_{n-1} t^n), D(t) = 1 - c1 t - c2 t^2 - c3 t^3,
        has t^0..t^3 coefficients SERIES_NUMERATOR and 0.  The matrix gives
        the series its first three terms 1, 4 G_0, 4 G_1, and obeys the
        recurrence (Cayley-Hamilton above), so the gf route's series is
        N(t) / D(t) and agrees with the recurrence route at every n."""
        series = [P(1)] + [4 * g for g in formulas._SEEDS]
        d = [P(1)] + [-c for c in formulas.RECURRENCE]
        got = [sum((d[k] * series[j - k] for k in range(j + 1)), P())
               for j in range(4)]
        assert got == [*formulas.SERIES_NUMERATOR, P()]
        assert [column_sum(n) for n in range(3)] == series[:3]


class TestLeadingCoefficient:
    @pytest.mark.parametrize(
        "n,value", [(0, 2), (1, 24), (2, 256), (3, 2816), (4, 30720)]
    )
    def test_known_values(self, n, value):
        assert leading_coefficient(n) == value

    def test_range(self):
        for n in range(40):
            assert leading_coefficient(n) == genus_recurrence(n).poly.lead

    def test_mismatch_detection(self, monkeypatch):
        closed = formulas._leading_closed_form
        monkeypatch.setattr(
            formulas, "_leading_closed_form", lambda n: closed(n) + 1
        )
        with pytest.raises(FormulaIntegrityError, match=(
                "^leading coefficient mismatch at n=2: closed form 257, "
                "polynomial route 256$")):
            leading_coefficient(2)


class TestStructure:
    def test_row_four(self):
        rep = structure_check(4)
        assert rep.ok
        assert genus_recurrence(4).min_genus == 2
        assert genus_recurrence(4).max_genus == 5

    def test_elevenfold_growth_example(self):
        # n=3, i=3: 11648 > 11 * 720
        assert TABLE[3][3] == 11648 > 11 * TABLE[2][2]
        assert structure_check(3).first_failure is None

    def test_vacuous_growth_range(self):
        rep = structure_check(0)
        assert rep.ok and rep.first_failure is None

    def test_range(self):
        for n in range(30):
            rep = structure_check(n)
            assert rep.ok, (n, rep)

    def test_growth_failure_is_reported(self, monkeypatch):
        n, i = 4, 3
        real = formulas.genus_recurrence
        g, prev = real(n).poly, real(n - 1).poly
        scale = 1
        while g[i] > 11 * scale * prev[i - 1]:
            scale *= 2

        def scaled(m):
            h = real(m)
            return GenusPolynomial(m, scale * h.poly) if m == n - 1 else h

        monkeypatch.setattr(formulas, "genus_recurrence", scaled)
        rep = structure_check(n)
        assert not rep.ok and rep.first_failure == i

    def test_ascending_scan_makes_one_step_per_index(self, monkeypatch):
        steps, genus = [], formulas._GENUS
        monkeypatch.setattr(genus, "step", lambda w, f=genus.step: steps.append(w) or f(w))
        for n in range(61):
            assert structure_check(n).ok, n
        assert len(steps) <= 64

    def test_support_is_exact(self):
        for n in range(20):
            g = genus_recurrence(n)
            assert g.poly.degree == n + 1
            assert g.poly[g.min_genus] > 0
            if g.min_genus:
                assert g.poly[g.min_genus - 1] == 0

    def test_coefficient_sum_is_power_of_two(self):
        for n in range(20):
            assert sum(genus_recurrence(n).poly.coeffs) == 1 << (4 * n + 2)
