"""Workloads of the clawgenus benchmark and the reference rows they check.

Each workload is a closed loop: one client makes one benchmark call at a
time, and every call is a fresh interpreter that runs the workload's CLI
commands in turn (see ``child.py``).  Every command prints one stdout row per
claw index, and that row depends only on the index, never on the rest of the
range, so the reference rows live in one table per command kind, keyed by
index.  The tables were recorded at the seed commit by ``record_refs.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
DIGEST = "sha256:"

#: Centre of the certify-window pairs.  A seed picks an offset d and the
#: call certifies the windows c-d..c-d+1 and c+d..c+d+1.  Cost grows by about
#: 7% per index, so the two windows together cost within about 2% of
#: 2 * cost(c..c+1) for every offset in WINDOW_OFFSETS.
WINDOW_CENTRE = 34
WINDOW_OFFSETS = (1, 2, 3)


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv and the claw indices of its output rows."""

    argv: tuple[str, ...]
    ref: str
    indices: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    #: Work per call: claw indices, or rotation systems for the oracle.
    items: int

    @property
    def rows(self) -> int:
        return sum(len(c.indices) for c in self.commands)


def _command(ref: str, argv: tuple[str, ...], a: int, b: int) -> Command:
    """``clawgenus *argv --n a..b``, whose rows are checked against ``ref``."""
    return Command(argv + ("--n", f"{a}..{b}"), ref, tuple(range(a, b + 1)))


def build(name: str, seed: int) -> Workload:
    """The workload ``name``; the seed matters only for certify-window."""
    if name == "certify":
        cmds = (_command("certify", ("certify",), 0, 28),)
    elif name == "certify-window":
        d = WINDOW_OFFSETS[seed % len(WINDOW_OFFSETS)]
        cmds = tuple(
            _command("certify", ("certify",), a, a + 1)
            for a in (WINDOW_CENTRE - d, WINDOW_CENTRE + d)
        )
    elif name == "routes":
        argv = ("compute", "--route", "all", "--format", "csv")
        cmds = (_command("routes", argv, 0, 36),)
    elif name == "oracle":
        argv = ("oracle-check", "--parallelism", "2")
        cmds = (_command("oracle", argv, 0, 3),)
        # rotation systems: 2^(4n+2) per index
        return Workload(name, cmds, sum(1 << (4 * n + 2) for n in cmds[0].indices))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, cmds, sum(len(c.indices) for c in cmds))


NAMES = ("certify", "certify-window", "routes", "oracle")


def load_refs(ref: str) -> dict[int, str]:
    with open(REFS / f"{ref}.json", encoding="utf-8") as f:
        return {int(k): v for k, v in json.load(f).items()}


def digest(row: str) -> str:
    return DIGEST + hashlib.sha256(row.encode("utf-8")).hexdigest()


def row_matches(expected: str, actual: str) -> bool:
    """Compare a row with its reference, which may be stored as a digest."""
    if expected.startswith(DIGEST):
        return digest(actual) == expected
    return actual == expected


def failed_rows(cmd: Command, refs: dict[int, str], exit_code: int, out: str) -> int:
    """Rows of one call that are missing or differ from the reference.

    A nonzero exit fails every row of the call.  Rows are compared in order,
    so a missing, extra or reordered row fails from that point on.
    """
    if exit_code != 0:
        return len(cmd.indices)
    lines = out.splitlines()
    bad = 0
    for i, n in enumerate(cmd.indices):
        if i >= len(lines) or not row_matches(refs[n], lines[i]):
            bad += 1
    return bad
