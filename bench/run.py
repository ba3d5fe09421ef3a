"""Benchmark of the clawgenus CLI, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Each benchmark call runs in a fresh interpreter (``child.py``), because the
package's module caches would otherwise turn every call after the first into
cache lookups.  Calls run one at a time, a closed loop with one client, until
``--seconds`` have passed (at least MIN_CALLS calls).  Every call also
samples set-up time, from just before the spawn to the end of
``import clawgenus.cli`` in the child.  Every output row is checked against
the references under ``refs/``.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  The call
times (wall_s, cpu_s and items_per_s) are the best call of the run: the
speed of a shared machine drifts by tens of percent over tens of seconds,
so the median of a run follows the neighbours' load, while the best of many
short calls stays within a few percent.  setup_s and peak_rss_mib are
medians over calls.  --trace 1 alternates traced and untraced calls and
reports the per-layer metrics, as medians over the traced calls; it fails
the check if an exact count differs between two traced calls.

A summary goes to stdout first; the last line of stdout is one JSON object
with the keys correct, attempted, failed (output rows) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_CALLS = 3
MIN_TRACED = 2
#: Every run must end well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0

#: Per-layer metrics that are exact counts and must repeat exactly.
EXACT = (
    "rootcert.variations.hit_ratio",
    "rootcert.certify_interlacing.undecided",
    "rootcert.SturmChain.builds",
    "rootcert.SturmChain.coeff_bits_max",
    "rootcert.interval_den_bits_max",
    "oracle.systems",
)


class ChildFailed(Exception):
    pass


def spawn(spec: dict, timeout: float) -> tuple[float, dict]:
    """Start child.py with ``spec``; return the spawn time and its report.

    The child leads its own process group, and the group is killed once the
    child is reaped, so no pool worker outlives the call.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise ChildFailed(f"call exceeded {timeout:.0f} s") from None
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return t_spawn, json.loads(out.splitlines()[-1])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def median(xs: list[float]) -> float:
    return statistics.median(xs)


def describe(xs: list[float], higher_is_better: bool) -> str:
    """Median, quartiles, and the most extreme percentile on the bad side
    that still has ten samples beyond it."""
    ys = sorted(xs)
    out = f"median {median(ys):.6g}"
    if len(ys) >= 2:
        q = statistics.quantiles(ys, n=4)
        out += f", q1 {q[0]:.6g}, q3 {q[2]:.6g}"
    if len(ys) >= 11:
        if higher_is_better:
            out += f", p{100 * 10 // len(ys)} {ys[10]:.6g}"
        else:
            k = len(ys) - 11
            out += f", p{100 * (k + 1) // len(ys)} {ys[k]:.6g}"
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced call, from its span summary."""
    spans, c = trace["spans"], trace["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {}
    for name in (
        "polynomials.sign_at",
        "rootcert.variations",
        "rootcert.isolate_roots",
        "rootcert.certify_interlacing",
        "polynomials.Sqrt3Poly.mul",
        "pgd.pgd",
        "oracle.enumerate_pgd",
    ):
        m[f"{name}.calls"] = calls(name)
    for name in (
        "polynomials.sign_at",
        "rootcert.isolate_roots",
        "rootcert.certify_interlacing",
        "polynomials.signed_pseudo_rem",
        "polynomials.poly_gcd",
        "rootcert.normalized_recurrence",
        "rootcert.concavity_report",
        "formulas.composition_sum",
        "formulas.genus_explicit",
        "formulas.genus_from_series",
        "formulas.genus_recurrence",
        "polynomials.Sqrt3Poly.mul",
        "pgd.pgd",
        "oracle.enumerate_pgd",
    ):
        m[f"{name}.self_s"] = self_s(name)
    n_sign = calls("polynomials.sign_at")
    m["polynomials.sign_at.us_per_call"] = (
        1e6 * self_s("polynomials.sign_at") / n_sign if n_sign else 0.0
    )
    n_var = calls("rootcert.variations")
    m["rootcert.variations.hit_ratio"] = c["variations_hits"] / n_var if n_var else 0.0
    m["rootcert.certify_interlacing.undecided"] = c["undecided"]
    m["rootcert.SturmChain.builds"] = calls("rootcert.SturmChain")
    m["rootcert.SturmChain.build_s"] = spans.get("rootcert.SturmChain", {}).get(
        "total_s", 0.0
    )
    m["rootcert.SturmChain.coeff_bits_max"] = c["coeff_bits_max"]
    m["rootcert.interval_den_bits_max"] = c["interval_den_bits_max"]
    m["oracle.systems"] = c["systems"]
    m["oracle.worker_cpu_s"] = c["worker_cpu_s"]
    m["oracle.systems_per_worker_cpu_s"] = (
        c["systems"] / c["worker_cpu_s"] if c["worker_cpu_s"] else 0.0
    )
    for layer in ("cli", "rootcert", "polynomials", "formulas", "pgd", "oracle"):
        m[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.startswith(layer + ".")
        )
    return m


def exact_counts(trace: dict) -> dict:
    """Everything in a traced call that must repeat exactly."""
    m = layer_metrics(trace)
    counts = {name: s["calls"] for name, s in trace["spans"].items()}
    counts.update((k, m[k]) for k in EXACT)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "clawgenus" / "cli.py").is_file():
        print(f"no clawgenus sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    wl = workloads.build(args.workload, args.seed)
    refs = {c.ref: workloads.load_refs(c.ref) for c in wl.commands}
    OUT.mkdir(exist_ok=True)

    base_spec = {"src": str(SRC), "calls": [list(c.argv) for c in wl.commands]}
    started = time.monotonic()

    def left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    try:
        # Untimed: compiles the bytecode cache and warms the file cache.
        spawn(dict(base_spec, trace=False), left())
        while True:
            done = len(plain) + len(traced)
            enough = done >= MIN_CALLS and (
                not args.trace or (len(traced) >= MIN_TRACED and plain)
            )
            if enough and time.monotonic() - started >= args.seconds:
                break
            trace = bool(args.trace) and done % 2 == 0
            spec = dict(base_spec, trace=trace)
            if trace and not traced:
                spec["spans"] = str(OUT / f"spans-{args.workload}.tsv")
            t_spawn, rep = spawn(spec, left())
            setups.append(rep["imported"] - t_spawn)
            (traced if trace else plain).append(rep)
            for cmd, code, out, err in zip(
                wl.commands, rep["exits"], rep["stdout"], rep["stderr"]
            ):
                bad = workloads.failed_rows(cmd, refs[cmd.ref], code, out)
                attempted += len(cmd.indices)
                failed += bad
                if code != 0 or bad:
                    print(
                        f"{' '.join(cmd.argv)}: exit {code}, {bad} bad rows\n"
                        f"{err.strip()[-2000:]}",
                        file=sys.stderr,
                    )
    except ChildFailed as exc:
        print(f"benchmark call failed: {exc}", file=sys.stderr)
        attempted += wl.rows
        failed += wl.rows

    correct = failed == 0
    calls = plain + traced
    print(
        f"workload {wl.name} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced calls, {wl.items} items per call, "
        f"{attempted} rows checked"
    )
    print(f"  fail_ratio {failed / max(attempted, 1):.6g} (1): "
          f"{failed} of {attempted} rows missing or wrong")
    if not calls or args.trace and not (traced and plain):
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 0

    if args.trace:
        per_call = [layer_metrics(r["trace"]) for r in traced]
        counts = [exact_counts(r["trace"]) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            print("exact counts differ between traced calls", file=sys.stderr)
            correct = False
        values = {
            k: per_call[0][k] if k.endswith(".calls") or k in EXACT
            else median([m[k] for m in per_call])
            for k in per_call[0]
        }
        values["trace.overhead_s"] = min(r["wall_s"] for r in traced) - min(
            r["wall_s"] for r in plain
        )
        wanted = bench["per_layer"]
    else:
        walls = [r["wall_s"] for r in calls]
        series = {
            "wall_s": (min, walls),
            "items_per_s": (max, [wl.items / w for w in walls]),
            "cpu_s": (min, [r["cpu_s"] for r in calls]),
            "setup_s": (median, setups),
            "peak_rss_mib": (median, [r["rss_kib"] / 1024 for r in calls]),
        }
        values = {}
        for name, (pick, xs) in series.items():
            values[name] = pick(xs)
            print(f"  {name} {pick.__name__} {values[name]:.6g} of {len(xs)} "
                  f"samples ({describe(xs, pick is max)})")
        wanted = bench["end_to_end"]

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
