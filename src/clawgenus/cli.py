"""Command-line interface.

Commands:
  compute       genus polynomial coefficients by a chosen route (or all)
  table         the coefficient table for n = 0 .. max-n
  certify       root / interlacing / log-concavity certificates
  oracle-check  compare exhaustive enumeration against the algebraic engine

Results go to stdout, diagnostics to stderr.  The exit status is 0 exactly
when every requested check passed.  Exact quantities never serialize as
floating point: rationals appear as [numerator, denominator] pairs, and the
only float fields are decimal approximations explicitly marked "approx".

Each command-line call starts a fresh interpreter and pays for every module
imported here: ``json`` is imported by ``canonical_json``, the first time a
command writes JSON, so a text or CSV command never loads it.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice, starmap

from .errors import ClawgenusError
from .formulas import genus_explicit, genus_from_series, genus_recurrence
from .oracle import MAX_JOBS, enumerate_pgd
from .pgd import pgd
from .polynomials import IntPoly
from .rootcert import (
    InterlacingCertificate,
    RootCertificate,
    certificate_chain,
    certify_interlacing,
    concavity_report,
    normalized_recurrence,
)

CHECK, CROSS, SKIP = "✓", "✗", "-"


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, no whitespace, no floats for
    exact quantities.  Parsing and re-serializing is byte-identical."""
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_n_spec(spec: str) -> range:
    """Parse "7" or "0..10" into the range of indices, built lazily so a
    huge range reaches the command's own checks."""
    try:
        if ".." in spec:
            a_s, b_s = spec.split("..", 1)
            a, b = int(a_s), int(b_s)
        else:
            a = b = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index spec {spec!r}") from None
    if a < 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad index range {spec!r}")
    return range(a, b + 1)


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an integer no smaller than low, nor larger than high."""
    def parse(text: str) -> int:
        try:
            if low <= int(text) and (high is None or int(text) <= high):
                return int(text)
        except ValueError:
            pass
        bounds = f">= {low}" if high is None else f">= {low} and <= {high}"
        raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {text!r}")
    return parse


def _padded_coeffs(p: IntPoly, n: int) -> list[int]:
    return [p[i] for i in range(n + 2)]


def _print_csv(rows: list[tuple[int, IntPoly]]) -> None:
    for n, p in rows:
        print(",".join(map(str, [n, *_padded_coeffs(p, n)])))


#: The algebraic routes, each read through the module's names when called;
#: ``--route all`` checks them against the recurrence.
_ALGEBRAIC = {
    "pgd": lambda n: pgd(n).total(),
    "recurrence": lambda n: genus_recurrence(n).poly,
    "gf": lambda n: genus_from_series(n).poly,
    "explicit": lambda n: genus_explicit(n).poly,
}
ROUTES = (*_ALGEBRAIC, "oracle")


def cmd_compute(args) -> int:
    rows = []
    for n in args.n:
        if args.route == "oracle":
            p = enumerate_pgd(
                n, jobs=args.parallelism, acknowledge_cost=args.acknowledge_cost
            ).total()
        elif args.route != "all":
            p = _ALGEBRAIC[args.route](n)
        else:
            polys = {r: route(n) for r, route in _ALGEBRAIC.items()}
            p = polys["recurrence"]
            for r, q in polys.items():
                if q != p:
                    i = next(i for i in range(max(len(q), len(p))) if q[i] != p[i])
                    print(
                        f"route disagreement at n={n}, coefficient i={i}: "
                        f"{r}={q[i]}, recurrence={p[i]}",
                        file=sys.stderr,
                    )
                    return 1
        rows.append((n, p))

    agree = args.route == "all"
    if args.format == "csv":
        _print_csv(rows)
    elif args.format == "json":
        out = [
            {"n": n, "route": args.route, "coefficients": _padded_coeffs(p, n)}
            | ({"agree": True} if agree else {})
            for n, p in rows
        ]
        print(canonical_json(out))
    else:
        for n, p in rows:
            print(f"n={n}: {'AGREE  ' if agree else ''}{p}")
    return 0


def cmd_table(args) -> int:
    rows = [(n, genus_recurrence(n).poly) for n in range(args.max_n + 1)]
    if args.format == "csv":
        _print_csv(rows)
    elif args.format == "json":
        print(canonical_json(
            [{"n": n, "coefficients": _padded_coeffs(p, n)} for n, p in rows]
        ))
    else:
        width = args.max_n + 2
        cells = [["n/i"] + [str(i) for i in range(width)]]
        cells += [[str(n)] + [str(p[i]) for i in range(width)] for n, p in rows]
        widths = [max(len(r[c]) for r in cells) for c in range(width + 1)]
        for r in cells:
            print("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return 0


def _root_cert_json(cert: RootCertificate) -> dict:
    d = cert.to_json_dict()
    d["approx"] = [iv.approx() for iv in cert.intervals]
    return d


def _mark(ok: bool | None) -> str:
    return SKIP if ok is None else CHECK if ok else CROSS


def _interlace(c: RootCertificate, *pairs: tuple | None) -> tuple[RootCertificate, dict]:
    """One step of the certificate chain with its pairs certified: mode ->
    certificate, or None where the pair failed, which is reported on
    stderr; no entry for a pair below index 0."""
    out: dict[str, InterlacingCertificate | None] = {}
    for mode, pair in zip(("consecutive", "skip"), pairs):
        if pair is None:
            continue
        try:
            out[mode] = certify_interlacing(*pair)
        except (ClawgenusError, ValueError) as exc:
            # ValueError: a certificate of the pair is incomplete
            print(f"n={c.n} {mode} interlacing failed: {exc}", file=sys.stderr)
            out[mode] = None
    return c, out


def cmd_certify(args) -> int:
    # the chain starts two below the range, so its first index has both
    # pairs; a cold count (Descartes' rule on the squarefree part) runs
    # only there, or where the brackets fail
    first = max(args.n[0] - 2, 0)
    chain = certificate_chain(map(normalized_recurrence, range(first, args.n[-1] + 1)))
    failures = 0
    out_rows = []
    # starmap keeps no step's pairs once they are certified
    for c, pairs in starmap(_interlace, islice(chain, args.n[0] - first, None)):
        n = c.n
        failures += list(pairs.values()).count(None)
        ok = {mode: ic is not None for mode, ic in pairs.items()}
        conc = concavity_report(genus_recurrence(n))
        if not c.complete or not conc.ok:
            failures += 1

        if args.format == "json":
            out_rows.append(
                {
                    "n": n,
                    "root_certificate": _root_cert_json(c),
                    "interlacing": {
                        mode: ic.to_json_dict() if (ic := pairs.get(mode)) else None
                        for mode in ("consecutive", "skip")
                    },
                    "log_concave": conc.ok,
                    "summary": {
                        "real_rooted": c.complete,
                        "interlace_consecutive": ok.get("consecutive"),
                        "interlace_skip": ok.get("skip"),
                        "log_concave": conc.ok,
                    },
                }
            )
        else:
            print(
                f"n={n}: real-rooted {_mark(c.complete)} "
                f"({len(c.intervals)} intervals), "
                f"interlace(n-1) {_mark(ok.get('consecutive'))}, "
                f"interlace(n-2) {_mark(ok.get('skip'))}, "
                f"log-concave {_mark(conc.ok)}"
            )
    if args.format == "json":
        print(canonical_json(out_rows))
    return 1 if failures else 0


def cmd_oracle_check(args) -> int:
    status = 0
    for n in args.n:
        o = enumerate_pgd(n, jobs=args.parallelism, acknowledge_cost=args.acknowledge_cost)
        v = pgd(n)
        pairs = zip("abc", o.as_polys(), (v.a, v.b, v.c))
        bad = [name for name, op, vp in pairs if op != vp]
        if bad:
            print(
                f"n={n}: oracle differs from the production route in "
                f"class(es) {', '.join(bad)}",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"n={n}: oracle matches the production route "
                f"({o.embedding_count()} embeddings) {CHECK}"
            )
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clawgenus",
        description=(
            "Exact genus polynomials of iterated-claw graphs: computation "
            "by independent routes, brute-force verification, and "
            "machine-checkable certificates of real-rootedness, root "
            "interlacing and log-concavity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    index = argparse.ArgumentParser(add_help=False)
    index.add_argument("--n", type=parse_n_spec, required=True, metavar="N|A..B",
                       help="claw index or inclusive range, e.g. 4 or 0..10")
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--parallelism", type=_int_at_least(1, MAX_JOBS), default=1,
                        help="oracle: worker processes above the size cap, "
                             f"one process up to it (1 to {MAX_JOBS})")
    oracle.add_argument("--acknowledge-cost", action="store_true",
                        help="allow oracle enumeration above the size cap")

    p = sub.add_parser("compute", parents=[index, oracle],
                       help="genus polynomial coefficients")
    p.add_argument("--route", choices=ROUTES + ("all",), default="all",
                   help="computation route; 'all' cross-checks the four "
                        "algebraic routes (default)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="coefficient table for n = 0..max-n")
    p.add_argument("--max-n", type=_int_at_least(0), default=4)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("certify", parents=[index],
                       help="root and log-concavity certificates")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle-check", parents=[index, oracle],
                       help="compare exhaustive enumeration with the engine")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact output at any size: lift the int-to-str digit limit (Python
    # 3.10.7 on) for this command only, and give the caller its own back
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            status = args.func(args)
        except (ClawgenusError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
        sys.stdout.flush()  # a closed pipe raises here at the latest, not at exit
        return status
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull so
        # the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except KeyboardInterrupt:  # 128 + SIGINT, as a shell reports it
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
