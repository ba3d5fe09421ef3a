"""Command-line surface: formats, exit codes, JSON round-trips."""

import hashlib
import json
import subprocess
import sys

import pytest

from clawgenus.cli import canonical_json, main, parse_n_spec

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


class TestParsing:
    def test_single(self):
        assert parse_n_spec("4") == [4]

    def test_range(self):
        assert parse_n_spec("0..3") == [0, 1, 2, 3]

    def test_bad_specs(self):
        import argparse

        for bad in ("x", "3..1", "-1", "1..b"):
            with pytest.raises(argparse.ArgumentTypeError):
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
        monkeypatch.setenv("CLAWGENUS_ORACLE_CAP", "1")
        code, _, err = run(capsys, "compute", "--n", "2", "--route", "oracle")
        assert code == 1
        assert "cap" in err

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
        assert canonical_json(json.loads(payload)) == payload
        rows = json.loads(payload)
        cert = rows[2]["root_certificate"]
        assert cert["degree"] == 2 and cert["complete"] is True
        assert len(cert["intervals"]) == 2
        assert len(cert["approx"]) == 2  # floats marked as approximations
        assert rows[2]["interlacing"]["skip"]["m"] == 0
        assert rows[3]["summary"]["log_concave"] is True

    def test_exhausted_refinement_budget_fails(self, capsys):
        code, _, err = run(capsys, "certify", "--n", "1..2", "--max-refine", "0")
        assert code == 1
        assert "separate" in err

    def test_rational_endpoints_never_serialize_as_floats(self, capsys):
        _, out, _ = run(capsys, "certify", "--n", "0..5", "--format", "json")
        rows = json.loads(out)
        for row in rows:
            for quad in row["root_certificate"]["intervals"]:
                assert all(isinstance(x, int) for x in quad)


class TestOracleCheck:
    def test_matches(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--n", "0..2")
        assert code == 0
        assert out.count("matches") == 3
        assert "(1024 embeddings)" in out  # 2^10 at n=2


class TestGoldenDigests:
    """sha256 of whole CLI outputs: refactors must keep stdout byte-identical.

    A change that alters output on purpose (such as new interval endpoints)
    re-records the digest it affects."""

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
                "a20ebc9ff2e229467b7cab641b9033ed7bcafeadb44862d7406a7b6acc741a0e",
            ),
        ],
        ids=["table", "compute", "certify"],
    )
    def test_output_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "clawgenus", "table", "--max-n", "4",
             "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == TABLE_CSV

    def test_certificate_json_is_deterministic_across_runs(self):
        cmd = [sys.executable, "-m", "clawgenus", "certify", "--n", "0..6",
               "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        second = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
