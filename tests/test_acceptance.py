"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets (wall-clock) are asserted where the criterion states one.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import multiprocessing
import time

import pytest

import clawgenus.oracle as oracle
from clawgenus.cli import canonical_json, main
from clawgenus.errors import InterlacingUndecided
from clawgenus.formulas import (
    composition_sum,
    genus_explicit,
    genus_recurrence,
    leading_coefficient,
    structure_check,
    verify_series_closed_form,
)
from clawgenus.oracle import enumerate_pgd
from clawgenus.pgd import column_sum, pgd
from clawgenus.polynomials import IntPoly
from clawgenus.rootcert import (
    RootCertificate,
    certify_interlacing,
    concavity_report,
    is_squarefree,
    isolate_roots,
    normalized_recurrence,
)
from certcheck import _sign
from test_oracle import spy_pools

PAPER_TABLE_CSV = """\
0,2,2
1,0,40,24
2,0,48,720,256
3,0,0,1920,11648,2816
4,0,0,1152,52608,177664,30720
"""

_CERTS: dict[int, RootCertificate] = {}


def certificates(limit: int = 64) -> dict[int, RootCertificate]:
    for n in range(limit + 1):
        if n not in _CERTS:
            _CERTS[n] = isolate_roots(normalized_recurrence(n))
    return _CERTS


def report(num: int, name: str, ok: bool, elapsed: float, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s){suffix}")


def test_01_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["table", "--max-n", "4", "--format", "csv"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = code == 0 and out == PAPER_TABLE_CSV and elapsed < 1.0
    with capsys.disabled():
        report(1, "table-reproduction", ok, elapsed, "byte-exact CSV")
    assert code == 0
    assert out == PAPER_TABLE_CSV
    assert elapsed < 1.0


def test_02_four_route_consensus():
    t0 = time.perf_counter()
    agree = 0
    for n in range(501):
        g = genus_recurrence(n).poly
        assert pgd(n).total() == g, f"pgd route differs at n={n}"
        # r_0 precedes the first genus polynomial
        assert column_sum(n + 1) == 4 * g, f"series route differs at n={n}"
        agree += 1
    verify_series_closed_form(500)
    elapsed_main = time.perf_counter() - t0
    assert agree == 501

    t1 = time.perf_counter()
    h = [composition_sum(-1), composition_sum(0)]
    for n in range(151):  # one ascending pass over the sums
        h = h[-2:] + [composition_sum(n + 1)]  # H_{n-1}, H_n, H_{n+1}
        combo = h[2] + h[1] * IntPoly((4, -6)) - h[0] * IntPoly((0, 6))
        assert not combo.irr, (
            f"irrational residue at n={n}"
        )
        assert genus_explicit(n).poly == genus_recurrence(n).poly, (
            f"explicit route differs at n={n}"
        )
    elapsed_explicit = time.perf_counter() - t1
    report(
        2,
        "four-route-consensus",
        elapsed_main < 30 and elapsed_explicit < 60,
        elapsed_main + elapsed_explicit,
        f"n<=500 in {elapsed_main:.2f}s, explicit n<=150 in {elapsed_explicit:.2f}s",
    )
    assert elapsed_main < 30.0
    assert elapsed_explicit < 60.0


def test_03_oracle_equivalence(monkeypatch):
    # up to the cap the oracle runs in one process, so lower it to 0 to
    # split n = 1..4 over four workers
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 0)
    started = spy_pools(monkeypatch)
    t0 = time.perf_counter()
    for n in range(5):
        o = enumerate_pgd(n, jobs=4, acknowledge_cost=True)
        v = pgd(n)
        assert o.as_polys() == (v.a, v.b, v.c), f"oracle differs at n={n}"
    assert o.embedding_count() == 262144 == 1 << 18
    assert started == [4] * 4 and multiprocessing.active_children() == []
    elapsed = time.perf_counter() - t0
    report(3, "oracle-equivalence", elapsed < 60, elapsed,
           "componentwise n<=4 at parallelism 4")
    assert elapsed < 60.0


def test_04_total_count_invariant():
    t0 = time.perf_counter()
    for n in range(501):
        assert sum(genus_recurrence(n).poly.coeffs) == 1 << (4 * n + 2), n
    elapsed = time.perf_counter() - t0
    report(4, "total-count-invariant", True, elapsed, "n<=500 exact")


def test_05_leading_coefficient():
    t0 = time.perf_counter()
    for n in range(201):
        v = leading_coefficient(n)  # checks the closed form internally
        assert v == genus_recurrence(n).poly.lead
    assert leading_coefficient(0) == 2
    assert leading_coefficient(1) == 24
    assert leading_coefficient(2) == 256
    elapsed = time.perf_counter() - t0
    report(5, "leading-coefficient", True, elapsed,
           "closed form == polynomial route, n<=200")


def test_06_structure():
    t0 = time.perf_counter()
    for n in range(501):
        rep = structure_check(n)
        assert rep.ok, (n, rep)
    elapsed = time.perf_counter() - t0
    report(6, "structure", True, elapsed,
           "11x growth; support and positivity validated per term")


def test_07_real_rootedness():
    t0 = time.perf_counter()
    certs = certificates(64)
    for n in range(65):
        c = certs[n]
        assert c.complete, f"real-rootedness refuted at n={n}"
        assert len(c.intervals) == (n + 2) // 2, n
        assert all(iv.hi <= 0 for iv in c.intervals), n
        assert all(
            a.hi <= b.lo for a, b in zip(c.intervals, c.intervals[1:])
        ), n
        assert is_squarefree(c.poly), n  # distinct roots
    elapsed = time.perf_counter() - t0
    report(7, "real-rootedness", elapsed < 600, elapsed,
           "complete squarefree certificates, n<=64")
    assert elapsed < 600.0


def wrong_signs(ic, certs) -> list[tuple[int, int]]:
    """Each (owner, i) where the pair's other polynomial lacks its
    alternating sign at the midpoint of the owner's i-th entry of
    ``ic.merged``, read by ``certcheck``'s own Horner: W_n must have sign
    (-1)^(i + deg W_n) at W_m's i-th root, and W_m sign
    (-1)^(i + deg W_m + 1) at W_n's; both leads are positive."""
    wrong = []
    for own, other, offset in ((ic.m, ic.n, 0), (ic.n, ic.m, 1)):
        coeffs = certs[other].poly.coeffs
        entries = [iv for o, iv in ic.merged if o == own]
        for i, iv in enumerate(entries, start=1):
            if _sign(coeffs, iv.a + iv.b, 2 << iv.k) != (-1) ** (i + len(coeffs) - 1 + offset):
                wrong.append((own, i))
    return wrong


def test_08_interlacing():
    certs = certificates(64)
    t0 = time.perf_counter()
    try:
        for n in range(1, 65):
            ic = certify_interlacing(certs[n], certs[n - 1])
            owners = [o for o, _ in ic.merged]
            assert owners[0] == n
            assert owners[-1] == (n if n % 2 == 0 else n - 1), n
            assert wrong_signs(ic, certs) == [], n
        for n in range(2, 65):
            ic = certify_interlacing(certs[n], certs[n - 2])
            owners = [o for o, _ in ic.merged]
            assert owners[0] == owners[-1] == n
            assert wrong_signs(ic, certs) == [], n
    except InterlacingUndecided as exc:  # pragma: no cover
        pytest.fail(f"undecided interlacing outcome: {exc}")
    elapsed = time.perf_counter() - t0
    report(8, "interlacing", True, elapsed,
           "both chains with parity patterns plus alternating signs, n<=64")


def test_09_log_concavity():
    t0 = time.perf_counter()
    for n in range(501):
        rep = concavity_report(genus_recurrence(n))
        assert rep.log_concave, n
    elapsed = time.perf_counter() - t0
    report(9, "log-concavity", True, elapsed, "exact integer checks, n<=500")


def test_10_determinism(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 2)  # so n = 3 runs in workers
    started = spy_pools(monkeypatch)
    t0 = time.perf_counter()
    runs = [enumerate_pgd(3, jobs=j, acknowledge_cost=True) for j in (1, 2, 8)]
    assert runs[0] == runs[1] == runs[2]
    assert started == [2, 8] and multiprocessing.active_children() == []

    def fresh_json(n: int) -> str:
        return canonical_json(
            isolate_roots(normalized_recurrence(n)).to_json_dict()
        )

    for n in (0, 5, 12, 33):
        assert fresh_json(n) == fresh_json(n)
    elapsed = time.perf_counter() - t0
    report(10, "determinism", True, elapsed,
           "oracle at parallelism 1/2/8, certificates across runs")
