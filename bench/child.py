"""One benchmark call in a fresh interpreter.

Usage: python3 bench/child.py SPEC

SPEC is a JSON object written by ``run.py``:
  src         directory the clawgenus package must be imported from
  calls       list of CLI argv lists, run in turn in this process
  trace       record spans through ``tracer.py``
  spans       where to write the spans of a traced call (optional)

The package is imported first so that the monotonic clock reading after it
marks the end of set-up (the clock is shared with the spawning process).  The
CLI calls then run with stdout and stderr captured, so terminal output costs
no time.  One JSON line on stdout reports the call.
"""

import time

import clawgenus.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = clawgenus.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback the CLI let through
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    got = os.path.realpath(clawgenus.cli.__file__)
    if os.path.commonpath([src, got]) != src:
        print(f"clawgenus imported from {got}, not from {src}", file=sys.stderr)
        return 3
    rec = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        rec = tracer.install()

    results = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for argv in spec["calls"]:
        results.append(_run(argv))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    report = dict(
        imported=IMPORTED,
        wall_s=wall,
        cpu_s=cpu,
        rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        exits=[code for code, _, _ in results],
        stdout=[out for _, out, _ in results],
        stderr=[err for _, _, err in results],
    )
    if rec is not None:
        report["trace"] = rec.summary()
        if spec.get("spans"):
            rec.write_spans(spec["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
