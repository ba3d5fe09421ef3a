"""Command-line surface: formats, exit codes, JSON round-trips."""

import contextlib
import hashlib
import io
import json
import multiprocessing
import operator
import os
import re
import runpy
import signal
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clawgenus.cli as cli
import clawgenus.oracle as oracle
import clawgenus.rootcert as rootcert
from certcheck import certificate_errors
from clawgenus.cli import canonical_json, main, parse_n_spec
from clawgenus.errors import InterlacingUndecided
from clawgenus.formulas import genus_recurrence
from clawgenus.pgd import PgdVector
from clawgenus.polynomials import IntPoly
from clawgenus.rootcert import (
    NormalizedPoly,
    certificate_chain,
    isolate_roots,
    normalized_recurrence,
)
from test_oracle import serial_pool, spy_pools  # noqa: F401 (a fixture)
from test_readme import readme_cli_commands
from test_stdlib_only import WORKLOAD_CALLS

SRC = str(Path(__file__).resolve().parents[1] / "src")

TABLE_CSV = """\
0,2,2
1,0,40,24
2,0,48,720,256
3,0,0,1920,11648,2816
4,0,0,1152,52608,177664,30720
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sign_reads(capsys, monkeypatch, spec: str) -> list[tuple]:
    """Every ``IntPoly.sign_at`` evaluation of ``certify --n spec --format
    json``, as (coefficients, numerator, denominator) in lowest terms."""
    reads, real = [], IntPoly.sign_at

    def sign_at(self, x, k=0):
        point = Fraction(x) / (1 << k)
        reads.append((self.coeffs, point.numerator, point.denominator))
        return real(self, x, k)

    with monkeypatch.context() as m:
        m.setattr(IntPoly, "sign_at", sign_at)
        code, _, _ = run(capsys, "certify", "--n", spec, "--format", "json")
    assert code == 0
    return reads


def merge_calls(monkeypatch, merge, *args) -> tuple[object, dict[str, int]]:
    """``merge(*args)``, and the calls of ``rootcert._halve`` and of
    ``IntPoly.sign_at`` it made."""
    counts, real_halve, real_sign_at = {"halve": 0, "sign_at": 0}, rootcert._halve, IntPoly.sign_at

    def halve(*args):
        counts["halve"] += 1
        return real_halve(*args)

    def sign_at(self, *args):
        counts["sign_at"] += 1
        return real_sign_at(self, *args)

    with monkeypatch.context() as m:
        m.setattr(rootcert, "_halve", halve)
        m.setattr(IntPoly, "sign_at", sign_at)
        return merge(*args), counts


def pair_calls(capsys, monkeypatch, spec: str) -> dict[tuple[int, int], dict[str, int]]:
    """``merge_calls`` of each pair (n, m) that ``certify --n spec`` merges."""
    spent, certify = {}, cli.certify_interlacing

    def spy(a, b):
        ic, spent[a.n, b.n] = merge_calls(monkeypatch, certify, a, b)
        return ic

    with monkeypatch.context() as m:
        m.setattr(cli, "certify_interlacing", spy)
        assert run(capsys, "certify", "--n", spec)[0] == 0
    return spent


def halving_errors(capsys, monkeypatch, spec: str) -> list[str]:
    """Which claims of the bracket merge ``certify --n spec`` breaks, as
    counted in calls of ``rootcert._halve``: a consecutive pair is apart as
    the brackets of its step leave it; a skip pair, merged from W_n's gaps
    and W_{n-2} as halved at step n-1, halves no more than the canonical
    certificates of the pair, and less than half as often over the range."""
    spent = {pair: c["halve"] for pair, c in pair_calls(capsys, monkeypatch, spec).items()}
    canonical = {n: merge_calls(monkeypatch, rootcert._merge, *(
        isolate_roots(normalized_recurrence(i)) for i in (n, m)))[1]["halve"]
        for n, m in spent if n - m == 2}
    errors = [f"({n}, {m}) halved {c} times" for (n, m), c in spent.items() if n - m == 1 and c]
    errors += [f"({n}, {n - 2}) halved {spent[n, n - 2]} > {c} times"
               for n, c in canonical.items() if spent[n, n - 2] > c]
    skip = sum(spent[n, n - 2] for n in canonical)
    if 2 * skip >= sum(canonical.values()):
        errors.append(f"skip pairs halved {skip} of {sum(canonical.values())} times")
    return errors


def certificate_reach(capsys, monkeypatch, spec: str, fmt: str = "text") -> tuple[int, int]:
    """While ``certify --n spec --format fmt`` isolates each W_n: the most
    indices whose polynomials are alive at once, and the largest n - m for
    a polynomial W_m still alive.  Each certificate holds its polynomial, so
    a live certificate, bracket certificate or pair keeps its W_m alive.  In
    a lean walk those cover n-2..n: the brackets of n-2, which hold W_{n-3},
    are dropped with it, and so is every pair already certified.  So are
    the polynomials, and with them their memos of signs.  IntPoly takes no
    weak reference, so each W_n is isolated as an equal polynomial of a
    subclass that does."""
    isolate = rootcert._isolate
    polys, most, oldest = [], [0], [0]

    class Traced(IntPoly):
        __slots__ = ("__weakref__",)

    def spy(np_, prev):
        np_ = NormalizedPoly(np_.n, Traced(np_.w.coeffs))
        polys.append((weakref.ref(np_.w), np_.n))
        made = isolate(np_, prev)
        alive = {n for w, n in polys if w() is not None}
        most[0] = max(most[0], len(alive))
        oldest[0] = max(oldest[0], np_.n - min(alive))
        return made

    with monkeypatch.context() as m:
        m.setattr(rootcert, "_isolate", spy)
        assert run(capsys, "certify", "--n", spec, "--format", fmt)[0] == 0
    return most[0], oldest[0]


def checked_rows(out: str) -> list[dict]:
    """The rows of ``certify --format json`` output, which must pass the
    independent check in ``certcheck``."""
    rows = json.loads(out)
    assert certificate_errors(rows) == []
    return rows


def rootless_half(entry: dict) -> None:
    """Narrow an interlacing entry to the half of its interval that holds
    no root of its owner; the entries keep their order and owners."""
    a, b, c, d = entry["interval"]
    lo, hi = Fraction(a, b), Fraction(c, d)
    mid = (lo + hi) / 2
    w = normalized_recurrence(entry["index"]).w
    # the root lies in (lo, mid] exactly when w changes sign or vanishes there
    lo, hi = (mid, hi) if w.eval(lo) * w.eval(mid) <= 0 else (lo, mid)
    entry["interval"] = [lo.numerator, lo.denominator, hi.numerator, hi.denominator]


def module_env(env=None) -> dict:
    """The environment plus env, with src/ first on PYTHONPATH."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_module(*argv, env=None, timeout=120):
    """`python -m clawgenus ...` in a fresh interpreter that imports src/."""
    return subprocess.run(
        [sys.executable, "-m", "clawgenus", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=module_env(env),
    )


class TestParsing:
    def test_single(self):
        assert list(parse_n_spec("4")) == [4]

    def test_range(self):
        assert list(parse_n_spec("0..3")) == [0, 1, 2, 3]

    def test_bad_specs(self):
        for bad in ("x", "3..1", "-1", "1..b"):
            with pytest.raises(ValueError):
                parse_n_spec(bad)


class TestTable:
    def test_csv_is_byte_exact(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "csv")
        assert code == 0
        assert out == TABLE_CSV

    def test_text_layout_contains_all_values(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6  # header + rows 0..4
        assert lines[1].split() == ["0", "2", "2", "0", "0", "0", "0"]
        assert lines[5].split() == ["4", "0", "0", "1152", "52608", "177664", "30720"]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "0", "--format", "csv")
        assert code == 0 and out == "0,2,2\n"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "6", "--format", "json")
        assert code == 0
        payload = out.strip()
        assert canonical_json(json.loads(payload)) == payload
        rows = json.loads(payload)
        assert rows[5]["n"] == 5 and rows[6]["n"] == 6

    @pytest.mark.parametrize("argv", [
        ["table", "--max-n", "4", "--format", "csv"],
        ["table", "--max-n", "4", "--format", "json"],
        ["certify", "--n", "0..4", "--format", "json"],
        ["table", "--max-n", "4", "--format", "text"],
    ], ids=["csv", "json", "certify-json", "text"])
    def test_each_row_is_written_before_the_next_is_computed(self, monkeypatch, argv):
        """A spy on the row source reads stdout as each row is asked for:
        rows 0..n-1 are already there when row n is computed.  ``certify``
        asks for W_n once per row, after the chain's step to n.  The text
        table reads every row once for its column widths, writing nothing,
        then writes its header and reads the rows again."""
        out, seen, real = io.StringIO(), [], cli.genus_recurrence
        monkeypatch.setattr(cli, "genus_recurrence", lambda n: seen.append(out.getvalue()) or real(n))
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        lines = out.getvalue().splitlines(keepends=True)
        if argv[-1] == "text":
            written = [""] * 5 + ["".join(lines[:n + 1]) for n in range(5)]
        elif argv[-1] == "csv":
            written = ["".join(lines[:n]) for n in range(5)]
        else:
            rows = [canonical_json(r) for r in json.loads(out.getvalue())]
            written = [""] + ["[" + ",".join(rows[:n]) for n in range(1, 5)]
        assert seen == written and seen[-1]

    def test_a_failing_row_ends_a_huge_text_table_with_one_error_line(self):
        """The text table's first pass grows with the rows it reads, so under
        a 2 GiB address-space cap ``table --max-n 10**12`` reaches its row 3,
        which raises, and exits 1 with an error line and no traceback."""
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from clawgenus import cli\n"
            "real = cli.genus_recurrence\n"
            "def row(n):\n"
            "    if n == 3:\n"
            "        raise ValueError('row 3 fails')\n"
            "    return real(n)\n"
            "cli.genus_recurrence = row\n"
            "sys.exit(cli.main(['table', '--max-n', '1000000000000']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=module_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: row 3 fails\n")


class TestCompute:
    def test_csv_row_for_n4(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "4", "--route", "recurrence", "--format", "csv"
        )
        assert code == 0
        assert out == "4,0,0,1152,52608,177664,30720\n"

    def test_all_routes_agree(self, capsys):
        code, out, _ = run(capsys, "compute", "--n", "0..2", "--route", "all")
        assert code == 0
        assert out.count("AGREE") == 3

    def test_oracle_route(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "3", "--route", "oracle", "--format", "csv"
        )
        assert code == 0
        assert out == "3,0,0,1920,11648,2816\n"

    @pytest.mark.parametrize("route", ["pgd", "gf", "explicit"])
    def test_other_routes(self, capsys, route):
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--route", route, "--format", "csv"
        )
        assert code == 0 and out == "2,0,48,720,256\n"

    def test_oracle_above_cap_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 1)
        code, _, err = run(capsys, "compute", "--n", "2", "--route", "oracle")
        assert code == 1
        assert "cap" in err

    def test_oracle_route_opens_a_pool_per_index_above_the_cap(self, capsys, monkeypatch):
        started = spy_pools(monkeypatch)
        argv = ("compute", "--route", "oracle", "--n", "0..2", "--parallelism", "2",
                "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "".join(TABLE_CSV.splitlines(True)[:3])
        assert started == []
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 0)
        code, above, _ = run(capsys, *argv, "--acknowledge-cost")
        assert code == 0 and above == out
        assert started == [2, 2]
        assert multiprocessing.active_children() == []

    def test_oracle_pool_has_no_more_workers_than_traced_positions(
        self, capsys, monkeypatch, serial_pool
    ):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 0)
        code, out, _ = run(capsys, "compute", "--route", "oracle", "--n", "0..2",
                           "--parallelism", "64", "--format", "csv", "--acknowledge-cost")
        assert code == 0 and out == "".join(TABLE_CSV.splitlines(True)[:3])
        # none at the cap, n = 0; the larger side's configurations above it:
        # side B's 2^4 with the mirror bit 0 at n = 1, side A's 2^5 at n = 2
        assert serial_pool.sizes == [16, 32]

    def test_oracle_route_across_the_cap_fails_before_any_row(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 1)
        code, out, err = run(capsys, "compute", "--route", "oracle", "--n", "0..3",
                             "--parallelism", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: n=2 needs 1024 rotation systems")
        assert multiprocessing.active_children() == []

    def test_disagreeing_route_fails_before_any_row(self, capsys, monkeypatch):
        real = cli.genus_from_series
        monkeypatch.setattr(
            cli, "genus_from_series",
            lambda n: SimpleNamespace(poly=real(n).poly + IntPoly((0, 0, 1))),
        )
        code, out, err = run(capsys, "compute", "--route", "all", "--n", "1..2")
        assert code == 1 and out == ""
        assert err == "route disagreement at n=1, coefficient i=2: gf=25, recurrence=24\n"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "0..4", "--route", "all", "--format", "json"
        )
        assert code == 0
        payload = out.strip()
        assert canonical_json(json.loads(payload)) == payload


class TestCertify:
    def test_summary_lines(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "0..4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all("real-rooted ✓" in ln for ln in lines)
        assert all("log-concave ✓" in ln for ln in lines)
        assert "(2 intervals)" in lines[2]
        assert "interlace(n-1) -" in lines[0]  # no smaller index at n=0
        assert "interlace(n-2) ✓" in lines[2]

    def test_single_interval_for_n1(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "1")
        assert code == 0 and "(1 intervals)" in out

    def test_json_round_trips_and_has_certificates(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "0..3", "--format", "json")
        assert code == 0
        payload = out.strip()
        rows = checked_rows(payload)
        assert canonical_json(rows) == payload
        cert = rows[2]["root_certificate"]
        assert cert["degree"] == 2 and cert["complete"] is True
        assert len(cert["intervals"]) == 2
        assert len(cert["approx"]) == 2  # floats marked as approximations
        assert rows[2]["interlacing"]["skip"]["m"] == 0
        assert rows[3]["summary"]["log_concave"] is True

    def test_exhausted_refinement_budget_fails(self, capsys, monkeypatch):
        def undecided(a, b):
            raise InterlacingUndecided(f"({a.n}, {b.n}): could not separate")

        monkeypatch.setattr(cli, "certify_interlacing", undecided)
        code, out, err = run(capsys, "certify", "--n", "1..2")
        assert code == 1
        assert "interlace(n-1) ✗" in out.splitlines()[0]
        assert "n=1 consecutive interlacing failed" in err and "separate" in err

    def test_keeps_only_the_certificates_the_chain_needs(self, capsys, monkeypatch):
        """Each certificate is built once, no more than three indices are
        alive at a step, and only the first step has no predecessor."""
        cold, isolate = [], rootcert._isolate
        monkeypatch.setattr(rootcert, "_isolate",
                            lambda np_, prev: cold.append(prev is None) or isolate(np_, prev))
        assert certificate_reach(capsys, monkeypatch, "0..12") == (3, 2)
        assert cold == [True] + [False] * 12

    def test_holds_certificates_for_at_most_three_indices(self, capsys, monkeypatch):
        for fmt in ("text", "json"):
            assert certificate_reach(capsys, monkeypatch, "0..120", fmt) == (3, 2), fmt

    def test_pairs_merge_from_the_bracket_certificates(self, capsys, monkeypatch):
        """A consecutive pair is apart as the brackets of its step leave it;
        a skip pair, merged from W_n's gaps and W_{n-2} as halved at step
        n-1, halves no more than the canonical certificates of the pair, and
        less than half as often over the range (``halving_errors``)."""
        assert halving_errors(capsys, monkeypatch, "0..40") == []

    def test_pair_merges_read_the_polynomials_at_midpoints_only(
        self, capsys, monkeypatch
    ):
        """The bracket certificates share the sign tables their search
        filled, so a merge reads at most one new sign per halving, its
        midpoint, and often none."""
        spent = pair_calls(capsys, monkeypatch, "0..40")
        assert sum(c["halve"] for c in spent.values()) > 0
        assert all(c["sign_at"] <= c["halve"] for c in spent.values()), spent
        assert spent[3, 1] == {"halve": 2, "sign_at": 1}

    def test_each_polynomial_has_one_table_of_true_signs(self):
        """Every certificate of W_n, its own, its gaps and its halved
        intervals, holds the same polynomial object, so they share its memo
        of signs, and each entry is the sign of W_n at its key, a point in
        lowest terms."""
        polys = {}
        for c, *pairs in certificate_chain(map(normalized_recurrence, range(61))):
            for cert in (c, *(x for pair in pairs if pair for x in pair)):
                assert polys.setdefault(cert.n, cert.poly) is cert.poly
        for n, w in polys.items():
            assert w._signs and w == normalized_recurrence(n).w
            for (x, k), s in w._signs.items():
                assert x % 2 or k == 0
                assert s == w.sign_at(x, k)

    def test_certify_reads_each_sign_once(self, capsys, monkeypatch):
        """No polynomial is read twice at one point, however the point is
        written: each certified polynomial's signs go through its memo."""
        reads = sign_reads(capsys, monkeypatch, "0..100")
        assert 0 < len(reads) == len(set(reads))

    def test_a_step_without_brackets_pairs_the_canonical_certificates(
        self, capsys, monkeypatch
    ):
        """Where a step counts cold, forced here at n = 5, the
        pairs that need its brackets, (5, 4), (5, 3) and (6, 4), use the
        certificates ``isolate_roots`` returned; every other pair uses
        bracket certificates.  The first index a range isolates is such a
        step too, but no pair printed needs its brackets."""
        real, w5 = rootcert._brackets, normalized_recurrence(5).w
        monkeypatch.setattr(
            rootcert, "_brackets",
            lambda w, prev, E: None if w == w5 else real(w, prev, E),
        )
        isolate, certify = rootcert._isolate, cli.certify_interlacing
        built, chained, canonical = {}, [], set()

        def isolate_spy(np_, prev):
            c, gaps, halved = isolate(np_, prev)
            built[c.n] = c.intervals
            if gaps is None:
                chained.append(c.n)
            return c, gaps, halved

        def certify_spy(a, b):
            if all(x.intervals == built[x.n] for x in (a, b)):
                canonical.add((a.n, b.n))
            return certify(a, b)

        monkeypatch.setattr(rootcert, "_isolate", isolate_spy)
        monkeypatch.setattr(cli, "certify_interlacing", certify_spy)
        code, out, _ = run(capsys, "certify", "--n", "3..8")
        assert code == 0 and out.count("✗") == 0
        assert chained == [1, 5]  # 1: where the range's walk starts
        assert canonical == {(5, 4), (5, 3), (6, 4)}

    @pytest.mark.parametrize("spec", ["0..12", "1..2", "5", "9..16"])
    def test_pairs_are_the_ones_the_chain_yields(self, capsys, monkeypatch, spec):
        """``certify`` merges what ``certificate_chain`` pairs, over the same
        polynomials from two below the range, and nothing else."""
        merged = []
        certify = cli.certify_interlacing

        def spy(a, b):
            merged.append((a, b))
            return certify(a, b)

        monkeypatch.setattr(cli, "certify_interlacing", spy)
        code, _, _ = run(capsys, "certify", "--n", spec)
        assert code == 0
        indices = parse_n_spec(spec)
        start = max(indices[0] - 2, 0)
        chain = certificate_chain(map(normalized_recurrence, range(start, indices[-1] + 1)))
        want = [pair for c, *pairs in chain if c.n in indices for pair in pairs if pair]

        def fields(x):
            return x.n, x.intervals, x.poly

        assert [tuple(map(fields, p)) for p in merged] == [tuple(map(fields, p)) for p in want]

    def test_incomplete_certificate_is_a_cross_not_a_traceback(self, capsys, monkeypatch):
        real = cli.normalized_recurrence

        def fake(k):  # n = 3 gets a polynomial with no real roots
            return NormalizedPoly(3, IntPoly((1, 1, 1))) if k == 3 else real(k)

        monkeypatch.setattr(cli, "normalized_recurrence", fake)
        code, out, err = run(capsys, "certify", "--n", "0..4")
        assert code == 1
        assert "Traceback" not in err
        lines = out.splitlines()
        assert "real-rooted ✗" in lines[3] and "interlace(n-1) ✗" in lines[3]
        assert "interlace(n-1) ✗" in lines[4] and "interlace(n-2) ✓" in lines[4]
        assert "n=3 consecutive interlacing failed" in err

    def test_long_range_endpoints_are_small_dyadics(self, capsys):
        """Bisection from a power-of-two bound keeps every endpoint dyadic,
        with numerators and denominators of a few dozen bits at most."""
        code, out, _ = run(capsys, "certify", "--n", "0..100", "--format", "json")
        assert code == 0
        rows = checked_rows(out)
        assert all(v in (True, None) for row in rows for v in row["summary"].values())
        quads = [q for row in rows for q in row["root_certificate"]["intervals"]]
        quads += [
            e["interval"]
            for row in rows
            for ic in row["interlacing"].values()
            if ic is not None
            for e in ic["merged"]
        ]
        assert all(den & (den - 1) == 0 for q in quads for den in (q[1], q[3]))
        assert max(abs(x).bit_length() for q in quads for x in q) <= 32

    @pytest.mark.parametrize("mutate", [
        # W_2's left root is near -2.74: (-4, -3] holds no root
        lambda rows: rows[2]["root_certificate"]["intervals"][0].__setitem__(2, -3),
        lambda rows: (m := rows[4]["interlacing"]["skip"]["merged"]).insert(0, m.pop(1)),
        lambda rows: rows[5]["root_certificate"]["intervals"].pop(),
        lambda rows: rows[3]["interlacing"]["consecutive"]["merged"].pop(),
        lambda rows: rootless_half(rows[4]["interlacing"]["skip"]["merged"][1]),
    ], ids=["endpoint-across-a-root", "merged-entries-swapped", "root-interval-dropped",
            "merged-entry-dropped", "merged-entry-holds-no-root"])
    def test_independent_check_rejects_a_broken_certificate(self, capsys, mutate):
        code, out, _ = run(capsys, "certify", "--n", "0..6", "--format", "json")
        assert code == 0
        rows = checked_rows(out)
        mutate(rows)
        assert certificate_errors(rows)

    def test_rational_endpoints_never_serialize_as_floats(self, capsys):
        _, out, _ = run(capsys, "certify", "--n", "0..5", "--format", "json")
        rows = checked_rows(out)
        for row in rows:
            for quad in row["root_certificate"]["intervals"]:
                assert all(isinstance(x, int) for x in quad)


class TestOracleCheck:
    def test_matches(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--n", "0..2")
        assert code == 0
        assert out.count("matches") == 3
        assert "(1024 embeddings)" in out  # 2^10 at n=2

    def test_one_pool_per_index_above_the_cap(self, capsys, monkeypatch):
        started = spy_pools(monkeypatch)
        argv = ("oracle-check", "--n", "0..2", "--parallelism", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("matches") == 3
        assert started == []
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 0)
        code, above, _ = run(capsys, *argv, "--acknowledge-cost")
        assert code == 0 and above == out
        assert started == [2, 2]
        assert multiprocessing.active_children() == []

    def test_mismatch_names_the_classes(self, capsys, monkeypatch):
        real = cli.pgd

        def swapped(n):
            v = real(n)
            return PgdVector(v.a, v.c, v.b, n)

        monkeypatch.setattr(cli, "pgd", swapped)
        code, out, err = run(capsys, "oracle-check", "--n", "1")
        assert code == 1 and out == ""
        assert err == "n=1: oracle differs from the production route in class(es) b, c\n"

    @pytest.mark.parametrize(
        "argv",
        [("oracle-check", "--n", "4000"), ("compute", "--route", "oracle", "--n", "4000")],
        ids=["oracle-check", "compute"],
    )
    def test_refusal_far_above_the_cap_names_the_count(self, argv):
        """2^16002 has more decimal digits than str() of an int allows."""
        proc = run_module(*argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: n=4000 needs 2^16002 rotation systems")
        assert "digits" not in proc.stderr and "Traceback" not in proc.stderr

    def test_range_across_the_cap_prints_rows_then_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 1)
        code, out, err = run(capsys, "oracle-check", "--n", "0..3", "--parallelism", "2")
        assert code == 1
        assert out.splitlines() == [
            "n=0: oracle matches the production route (4 embeddings) ✓",
            "n=1: oracle matches the production route (64 embeddings) ✓",
        ]
        assert err.startswith("error: n=2 needs 1024 rotation systems")
        assert multiprocessing.active_children() == []


class TestGoldenDigests:
    """sha256 of whole CLI outputs: refactors must keep stdout byte-identical.

    A change that alters output on purpose (such as new interval endpoints)
    re-records the digest it affects.  The two certify JSON digests were
    re-recorded when the interlacing pairs began to merge from the bracket
    certificates: only the ``merged`` entries changed, and the proof that
    the new bytes are right is ``certcheck``, which every certify case here
    passes, not the digest."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("table", "--max-n", "500", "--format", "csv"),
                "0b7da968ee4556ec1e492088b277070a99fd8a5b031c5c92b00f6b83ce8e4152",
            ),
            (
                ("compute", "--route", "all", "--format", "csv", "--n", "0..60"),
                "9b320c1618c5b30ece4f74b9ac48b9b111ebacde75d396d622cf4e39f5d9bd02",
            ),
            (
                ("certify", "--n", "0..24", "--format", "json"),
                "29a91cee57d85e2d0d6e6c9da111fe46e9dfa22c6888ceee9b7265faf7a9be25",
            ),
            (
                ("certify", "--n", "37..38", "--format", "json"),
                "59bbb24ea9fe9eaff3778f5204848bb1b6885f6bd91bcd0e6dee901564ee2a37",
            ),
            # the narrowing of _isolate cuts a gap's upper end at n = 50
            (
                ("certify", "--n", "49..50", "--format", "json"),
                "450bfdbf5a1eae9c79eb4b5717c63c77c8b72c6a5d8b0bc87acc73d430a03a42",
            ),
            # the chain starts cold at n = 197, far beyond the other certify cases
            (
                ("certify", "--n", "199..200", "--format", "json"),
                "630a712c23ca20bf8a96f4468dbbc3872a5c4263d13e3642200c748857d60d1f",
            ),
            (
                ("compute", "--route", "pgd", "--format", "csv", "--n", "30..45"),
                "043259115458796d0e5ff7000ac13d871bd7f70f35966a4856b9757c845e6182",
            ),
            (
                ("compute", "--route", "gf", "--format", "csv", "--n", "30..45"),
                "043259115458796d0e5ff7000ac13d871bd7f70f35966a4856b9757c845e6182",
            ),
            (
                ("compute", "--route", "explicit", "--format", "csv",
                 "--n", "30..45"),
                "043259115458796d0e5ff7000ac13d871bd7f70f35966a4856b9757c845e6182",
            ),
            (
                ("oracle-check", "--n", "0..3", "--parallelism", "2"),
                "0b56fd761a408044036c08fcd7f0c93c13d5c2b2a69c5f14fa9b0a481b32e3b9",
            ),
            (
                ("table", "--max-n", "200"),
                "6425de7f567c6c763d49bec84ed730427a5b7fe3ecd5f1398617b4c2f25bd91d",
            ),
            (
                ("compute", "--n", "0..60"),
                "e7dbe9e8cbab8bef1fb382714995c722b5a4d7e20e7cbc78e118802c637fc5ae",
            ),
            (
                ("compute", "--n", "0..60", "--format", "json"),
                "bda121cb268ebb24a1221f4fcda4415fe4b26d9cdf223c72b67ae0ebb1bc317b",
            ),
        ],
        ids=["table", "compute", "certify", "certify-37-38", "certify-49-50",
             "certify-199-200", "pgd-30-45", "gf-30-45", "explicit-30-45", "oracle-check",
             "table-text", "compute-text", "compute-json"],
    )
    def test_output_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if argv[0] == "certify":  # every certify case here is JSON
            checked_rows(out)

    def test_long_json_table_digest(self):
        """``table --max-n 1000 --format json``, 183 MB, hashed as it comes
        out of a fresh interpreter, so neither process holds it whole."""
        digest = hashlib.sha256()
        cmd = [sys.executable, "-m", "clawgenus", "table", "--max-n", "1000", "--format", "json"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=module_env()) as proc:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
        assert proc.returncode == 0
        assert digest.hexdigest() == (
            "74ae655b0cd0a9ace8b95cd501a62fda6dfae21d92a5d7cf2003f7da754204f0")


class TestSubprocess:
    def test_module_entry_point(self):
        proc = run_module("table", "--max-n", "4", "--format", "csv", timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == TABLE_CSV

    def test_bench_tracer_still_wraps_what_it_reads(self):
        """``bench/tracer.py`` wraps methods and reads attributes of the
        package by name, so a package change can silently empty its spans.
        One traced child over the three kinds of bench call: every method
        span outside the Sturm chain and the oracle's span must see calls,
        and the oracle count must be 4 + 64 + 1024 systems.  No command
        builds a Sturm chain, so a second traced child builds one for
        (z + 1)^2 (z + 2) and counts its roots in (-4, 0]: its spans and the
        chain's coefficient bits must be read."""
        bench = Path(SRC).parent / "bench"
        methods = runpy.run_path(str(bench / "tracer.py"))["METHODS"]
        chain_spans = ["rootcert.SturmChain", "rootcert.variations"]
        calls = [["certify", "--n", "0..4"], ["compute", "--route", "all", "--format", "csv",
                 "--n", "0..4"], ["oracle-check", "--parallelism", "2", "--n", "0..2"]]
        spec = json.dumps({"src": SRC, "calls": calls, "trace": True})
        proc = subprocess.run([sys.executable, str(bench / "child.py"), spec],
                              capture_output=True, text=True, timeout=60, env=module_env())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["exits"] == [0, 0, 0], report["stderr"]
        spans = report["trace"]["spans"]
        for name in [name for name, *_ in methods if name not in chain_spans] + [
                "oracle.enumerate_pgd"]:
            assert spans.get(name, {}).get("calls", 0) > 0, name
        assert report["trace"]["counters"]["systems"] == 1092
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(bench)!r})\n"
            "import clawgenus.cli, tracer\n"
            "from clawgenus.polynomials import IntPoly\n"
            "from clawgenus import rootcert\n"
            "rec = tracer.install()\n"
            "assert rootcert.SturmChain(IntPoly((2, 5, 4, 1))).count(-4, 0) == 2\n"
            "print(json.dumps(rec.summary()))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=module_env())
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(proc.stdout)
        for name in chain_spans:
            assert trace["spans"].get(name, {}).get("calls", 0) > 0, name
        assert trace["counters"]["coeff_bits_max"] > 0

    def test_certificate_json_is_deterministic_across_runs(self):
        cmd = ("certify", "--n", "0..6", "--format", "json")
        first = run_module(*cmd)
        second = run_module(*cmd)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        checked_rows(first.stdout)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.10.7")
    def test_rows_print_past_the_digit_limit_and_the_limit_comes_back(self):
        """At n = 560 a coefficient has 674 digits, past the lowest limit."""
        script = (
            "import sys\n"
            "from clawgenus.cli import main\n"
            "sys.set_int_max_str_digits(640)\n"
            "code = main(['compute', '--route', 'recurrence', '--n', '560',"
            " '--format', 'csv'])\n"
            "print(code, sys.get_int_max_str_digits(), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=module_env())
        p = genus_recurrence(560).poly
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = ",".join(str(c) for c in [560] + [p[i] for i in range(562)])
        finally:
            sys.set_int_max_str_digits(limit)
        assert max(map(len, want.split(","))) > 640
        assert proc.stdout == want + "\n"
        assert proc.stderr == "0 640\n"

    def test_importing_the_cli_loads_no_multiprocessing(self):
        """Only a pool above the oracle cap needs ``multiprocessing``, so no
        command pays for importing it until one opens."""
        script = ("import sys, clawgenus.cli\n"
                  "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=module_env())
        assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


class TestInterrupt:
    @pytest.mark.parametrize(
        "argv",
        [("certify", "--n", "0..400"),
         ("oracle-check", "--n", "6..7", "--acknowledge-cost", "--parallelism", "2")],
        ids=["certify", "oracle-check-in-a-pool"],
    )
    def test_ctrl_c_exits_130_with_one_line(self, argv):
        """Ctrl-C sends SIGINT to the whole foreground process group, pool
        workers included.  Once the first row is out, the command is in
        ``main``; oracle-check is then 0.2 s into n = 7, in its pool, which
        opens about 0.08 s after n = 6's row and runs for about 0.4 s."""
        with subprocess.Popen([sys.executable, "-m", "clawgenus", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=module_env({"PYTHONUNBUFFERED": "1"}),
                              start_new_session=True) as proc:
            try:
                assert proc.stdout.readline().startswith(b"n=")
                time.sleep(0.2)
                os.killpg(proc.pid, signal.SIGINT)
                _, err = proc.communicate(timeout=10)
            finally:  # a command that hangs goes, with its workers
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130
        assert err == b"error: interrupted\n"
        with pytest.raises(ProcessLookupError):  # no worker outlives the command
            os.killpg(proc.pid, 0)


class TestClosedPipe:
    def test_reader_leaving_early_is_not_a_traceback(self):
        # 342 KB of CSV and 186 KB of one JSON array: each more than a pipe
        # buffer, so writes hit the closed pipe, the JSON's mid-array
        for argv, head in [(["table", "--max-n", "120", "--format", "csv"], b"0,2,2\n"),
                           (["certify", "--n", "0..60", "--format", "json"], b'[{"interlacing"')]:
            cmd = [sys.executable, "-m", "clawgenus", *argv]
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=module_env()) as proc:
                assert proc.stdout.read(len(head)) == head
                proc.stdout.close()
                err = proc.stderr.read().decode()
                code = proc.wait(timeout=120)
            assert code == 1, argv
            assert "Traceback" not in err
            assert "Exception ignored" not in err


class TestBoundaryValidation:
    """Bad input fails cleanly: usage errors exit 2, bad settings exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--n", "0", "--route", "oracle", "--parallelism", "0"),
            ("oracle-check", "--n", "0", "--parallelism", "0"),
            ("table", "--max-n", "-1"),
            ("compute", "--n", "0", "--route", "oracle", "--parallelism", "65"),
            ("oracle-check", "--n", "0", "--parallelism", "100000"),
        ],
        ids=["compute-parallelism", "oracle-check-parallelism", "table-max-n",
             "compute-parallelism-ceiling", "oracle-check-parallelism-ceiling"],
    )
    def test_out_of_range_flag_is_a_usage_error(self, argv):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "expected an integer >=" in proc.stderr

    def test_oracle_check_reads_no_cap_from_the_environment(self):
        proc = run_module(
            "oracle-check", "--n", "0", env={"CLAWGENUS_ORACLE_CAP": "abc"}
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == (
            "n=0: oracle matches the production route (4 embeddings) ✓\n"
        )

    @pytest.mark.parametrize("top", ["1000000000000000000", str(1 << 70)],
                             ids=["10^18", "2^70"])
    def test_huge_index_range_fails_cleanly(self, top):
        """The range is never listed: the first n above the oracle cap
        meets it first."""
        first = oracle.DEFAULT_CAP + 1
        proc = run_module("oracle-check", "--n", f"{first}..{top}")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: n={first} needs")
        assert "Traceback" not in proc.stderr

    def test_every_option_is_pinned(self, capsys):
        """A new flag, default or choice changes this table on purpose, never
        by accident: flag -> (default, then the choices, None for a switch,
        or what the converter says to "x"); -h and --help print the usage on
        stdout and exit 0 everywhere."""
        def values(kind):
            if not callable(kind):
                return kind
            with pytest.raises(ValueError) as refused:
                kind("x")
            return str(refused.value)

        options = {name: {opt[0]: (opt[2], values(opt[1])) for opt in opts}
                   for name, (_, _, opts) in cli.COMMANDS.items()}
        n = {"--n": (cli.REQUIRED, "bad index spec 'x'")}
        workers = {"--parallelism": (1, "expected an integer >= 1 and <= 64, got 'x'"),
                   "--acknowledge-cost": (False, None)}
        assert options == {
            "compute": n | workers | {
                "--route": ("all", ("pgd", "recurrence", "gf", "explicit", "oracle", "all")),
                "--format": ("text", ("text", "csv", "json"))},
            "table": {"--max-n": (4, "expected an integer >= 0, got 'x'"),
                      "--format": ("text", ("text", "csv", "json"))},
            "certify": n | {"--format": ("text", ("text", "json"))},
            "oracle-check": n | workers,
        }
        for name in (None, *options):
            for flag in ("-h", "--help"):
                with pytest.raises(SystemExit) as exit_:
                    main([name, flag] if name else [flag])
                out, err = capsys.readouterr()
                assert exit_.value.code == 0 and err == ""
                assert out.startswith(f"usage: clawgenus {name or ''}".rstrip() + " [-h]")

    def test_library_value_error_exits_one(self, capsys, monkeypatch):
        def broken(n):
            raise ValueError(f"no row {n}")

        monkeypatch.setattr(cli, "genus_recurrence", broken)
        code, out, err = run(capsys, "table", "--max-n", "2")
        assert code == 1 and out == ""
        assert err == "error: no row 0\n"


def mostly(valid, bad):
    """Valid values three times in four, so most runs get past the parser."""
    return st.sampled_from([valid, valid, valid, bad]).flatmap(lambda strategy: strategy)


def int_flag(low: int, top: int):
    """Integers in low..top; below low or not an integer as bad input."""
    bad = st.integers(low - 2, low - 1).map(str) | st.sampled_from(["x", "", "1.5"])
    return mostly(st.integers(low, top).map(str), bad)


def index_spec(top: int):
    """Index specs up to top: single or ascending, else reversed, negative or
    not numeric."""
    pairs = st.tuples(st.integers(0, top), st.integers(0, top))
    valid = st.integers(0, top).map(str) | pairs.map(
        lambda ab: f"{min(ab)}..{max(ab)}"
    )
    bad = st.tuples(st.integers(-2, top), st.integers(-2, top)).map(
        lambda ab: f"{ab[0]}..{ab[1]}"
    ) | st.sampled_from(["x", "", "1.5", "-1", "2..x", "..3"])
    return mostly(valid, bad)


@st.composite
def cli_argv(draw):
    """Argument vectors for all four subcommands; n <= 8, and oracle runs
    stay at n <= 1 with --parallelism in -1..2."""
    command = draw(st.sampled_from(["compute", "table", "certify", "oracle-check"]))
    workers = ["--parallelism", draw(int_flag(1, 2))]
    if command == "oracle-check":
        return ["oracle-check", "--n", draw(index_spec(1))] + workers
    formats = ("text", "json") if command == "certify" else ("text", "csv", "json")
    fmt = draw(mostly(st.sampled_from(formats), st.sampled_from(["xml", "csv"])))
    if command == "table":
        return ["table", "--max-n", draw(int_flag(0, 8)), "--format", fmt]
    if command == "certify":
        return ["certify", "--n", draw(index_spec(8)), "--format", fmt]
    route = draw(st.sampled_from(cli.ROUTES + ("all",)))
    top = 1 if route == "oracle" else 8
    return ["compute", "--n", draw(index_spec(top)), "--route", route,
            "--format", fmt] + workers


class TestFuzz:
    @settings(max_examples=50, deadline=None)
    @given(cli_argv())
    def test_any_input_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        payload = out.getvalue().strip()
        if "json" in argv and payload:
            assert canonical_json(json.loads(payload)) == payload
            if argv[0] == "certify" and code == 0:
                checked_rows(payload)


#: Every long option of any command, in the order of ``COMMANDS``; a prefix
#: is unique when no other of these starts with it.
FLAGS = (*dict.fromkeys(opt[0] for *_, opts in cli.COMMANDS.values() for opt in opts),
         "--help")
VALUES = ("0", "2", "0..3", "3..1", "65", "x", "", "-1", "-2..5", "json", "xml", "all")
TOKENS = (
    *(flag[:k] for flag in FLAGS for k in range(3, len(flag) + 1)
      if sum(f.startswith(flag[:k]) for f in FLAGS) == 1),
    *(f"{flag}={value}" for flag in FLAGS[:-1] for value in ("1", "json", "")),
    *VALUES, "--acknowledge-cost=x", "-h", "--bogus", "x",
    # argparse's corners: the end of the options, -h twice or with text
    # after it, an option-like token with a space
    "--", "-hh", "-hx", "--n 0",
    # what the plain reader must refuse or read as argparse does: a value
    # after "=" or on its own that starts with "-", a sign or a space that
    # int() reads, "=" inside a value
    "--n=-1", "-1..2", "+1", " 1", "--n=0=1",
)


class TestParserMatchesArgparse:
    """``_plain`` against ``_argparse``, the parser that ``COMMANDS`` builds:
    where the plain reader reads an argv, argparse reads the same fields;
    what it refuses (prefixes, ``=``, help, usage errors) is argparse's."""

    @settings(max_examples=400, deadline=None)
    @given(st.builds(operator.add,
                     st.sampled_from([[], ["junk"], *([c] for c in cli.COMMANDS)]),
                     st.lists(st.sampled_from(TOKENS), max_size=6))
           | cli_argv())
    def test_same_outcome_on_any_argv(self, argv):
        """The plain reader refuses argv, or argparse returns its fields."""
        if (fields := cli._plain(argv)) is not None:
            try:
                assert cli._argparse(argv) == fields, argv
            except SystemExit:
                raise AssertionError(f"argparse exits on the plain argv {argv}") from None

    @pytest.mark.parametrize("argv, fields", [
        (["table", "--max", "8", "--fo", "csv"], {"max_n": 8, "format": "csv"}),
        (["table", "--max-n=2", "--format", "csv", "--format", "json"],
         {"max_n": 2, "format": "json"}),
        (["oracle-check", "--n=0..1", "--a", "--p", "2"],
         {"n": range(2), "acknowledge_cost": True, "parallelism": 2}),
    ])
    def test_prefixes_equals_and_the_last_value(self, argv, fields):
        args = cli.parse_args(argv)
        assert {k: getattr(args, k) for k in fields} == fields

    @pytest.mark.parametrize("argv, outcome", [
        (["table", "--max", "8"], {"command": "table", "max_n": 8, "format": "text"}),
        (["certify", "--n=7"], {"command": "certify", "n": range(7, 8), "format": "text"}),
        (["oracle-check", "--n", "0", "--acknowledge-cost=x"], ("--acknowledge-cost", "")),
        (["table", "--max-n", "-1"], ("--max-n", "expected an integer >= 0, got '-1'")),
        # valid, but argparse reads it as an option
        (["certify", "--n", "-0..0"], ("--n", "")),
        (["certify", "--n", "1", "--"], ("--", "")),
        (["certify", "-h"], None),
        (["certify", "--n", "1", "--bogus"], ("--bogus", "")),
        (["certify", "--format", "json"], ("--n", "")),
        (["certify", "--n", "1", "--format", "xml"], ("--format", "")),
        (["certify", "--n", "x"], ("--n", "bad index spec 'x'")),
        (["certify", "--n", "1", "--format"], ("--format", "")),
    ], ids=["prefix", "equals", "switch-value", "dash-value", "dash-valid-value",
            "double-dash", "help", "unknown", "missing-n", "bad-choice", "bad-value",
            "no-value"])
    def test_what_the_plain_reader_refuses_argparse_reads(self, capsys, argv, outcome):
        """The fields argparse reads, help (None) on stdout with status 0, or
        a usage error on stderr with status 2 whose ``error:`` line names the
        flag and ends with the converter's message, if any: the package's
        words, not argparse's, which change between Python versions."""
        assert cli._plain(argv) is None
        if isinstance(outcome, dict):
            assert cli._argparse(argv) == outcome
            return
        with pytest.raises(SystemExit) as exit_:
            cli._argparse(argv)
        out, err = capsys.readouterr()
        if outcome is None:
            assert exit_.value.code == 0 and err == ""
            assert out.startswith("usage: clawgenus certify [-h]")
        else:
            flag, message = outcome
            error = err.splitlines()[-1]
            assert exit_.value.code == 2 and out == "" and "error: " in error
            assert flag in error.replace(":", " ").split() and error.endswith(message), error

    def test_the_plain_reader_reads_the_workloads_and_the_readme(self):
        """Every benchmark workload and README command is plain, so none of
        them builds the argparse parser."""
        for argv in [*WORKLOAD_CALLS, *readme_cli_commands()]:
            assert cli._plain(argv) == cli._argparse(argv), argv

    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_names_every_option_with_its_help(self, capsys, monkeypatch, command):
        """-h exits 0 and prints, whitespace aside, each command with its
        help, or each of the command's flags, then its metavar or choices,
        then its help."""
        monkeypatch.setenv("COLUMNS", "1000")  # no line wraps at a hyphen
        with pytest.raises(SystemExit) as exit_:
            cli.parse_args([command, "-h"] if command else ["-h"])
        out, err = capsys.readouterr()
        assert exit_.value.code == 0 and err == ""
        if command is None:
            lines = [cli.DESCRIPTION, *(f"{c} {spec[1]}" for c, spec in cli.COMMANDS.items())]
            patterns = [re.escape(" ".join(line.split())) for line in lines]
        else:
            patterns = [rf"{re.escape(opt[0])}(?: \S+)? {re.escape(opt[4])}"
                        for opt in cli.COMMANDS[command][2]]
        body = " ".join(out.split())
        for pattern in patterns:
            assert re.search(pattern, body), pattern
