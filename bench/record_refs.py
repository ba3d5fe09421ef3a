"""Record the reference rows that the benchmark checks outputs against.

Usage (from the repository root, at the commit whose output is the
reference):

    PYTHONPATH=src python3 bench/record_refs.py

Writes refs/certify.json (certify text rows, n = 0..CERTIFY_MAX),
refs/routes.json (sha256 of each `compute --route all` CSV row, n =
0..ROUTES_MAX; the rows themselves run to megabytes) and refs/oracle.json
(oracle-check rows, n = 0..4).  Each maps the claw index to its row.  The
tables cover more indices than the workloads use, so a workload can be
resized without recording again.
"""

from __future__ import annotations

import contextlib
import io
import json

from clawgenus.cli import main

from workloads import REFS, digest

CERTIFY_MAX = 76
ROUTES_MAX = 110


def rows(argv: list[str]) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"clawgenus {' '.join(argv)} exited {code}")
    return out.getvalue().splitlines()


def write(name: str, table: dict[int, str]) -> None:
    with open(REFS / f"{name}.json", "w", encoding="utf-8") as f:
        json.dump({str(n): row for n, row in table.items()}, f, indent=0,
                  ensure_ascii=False)
        f.write("\n")


def record() -> None:
    REFS.mkdir(exist_ok=True)
    write("certify", dict(enumerate(rows(["certify", "--n", f"0..{CERTIFY_MAX}"]))))
    csv = rows(["compute", "--route", "all", "--n", f"0..{ROUTES_MAX}",
                "--format", "csv"])
    write("routes", {n: digest(row) for n, row in enumerate(csv)})
    write("oracle", dict(enumerate(
        rows(["oracle-check", "--n", "0..4", "--parallelism", "2"])
    )))


if __name__ == "__main__":
    record()
