"""Command-line interface: the four commands of ``COMMANDS``, compute,
table, certify and oracle-check.

Results go to stdout, diagnostics to stderr.  The exit status is 0 exactly
when every requested check passed.  Exact quantities never serialize as
floating point: rationals appear as [numerator, denominator] pairs, and the
only float fields are decimal approximations explicitly marked "approx".

``table`` and ``certify`` write each row as it is computed, JSON through
``_print_json``; ``table``'s text mode first reads the rows once for its
column widths, keeping only each column's largest entry.  Only ``compute``
holds its rows until every index has passed.

Each command-line call starts a fresh interpreter and pays for every module
imported here: ``json`` is imported by ``canonical_json``, the first time a
command writes JSON, so a text or CSV command never loads it.
``parse_args`` reads a plain argv (``_plain``: each option spelled in full
as ``--flag value`` with a valid value) itself and imports ``argparse`` for any other argv, so
that help, prefixes and usage errors are argparse's own.
"""

from __future__ import annotations

import os
import sys
from itertools import islice, starmap
from types import SimpleNamespace

from .errors import ClawgenusError
from .formulas import genus_explicit, genus_from_series, genus_recurrence
from .oracle import MAX_JOBS, enumerate_pgd
from .pgd import pgd
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
        raise ValueError(f"bad index spec {spec!r}") from None
    if a < 0 or b < a:
        raise ValueError(f"bad index range {spec!r}")
    return range(a, b + 1)


def _int_at_least(low: int, high: int | None = None):
    """Converter: an integer no smaller than low, nor larger than high."""
    def parse(text: str) -> int:
        try:
            if low <= (value := int(text)) and (high is None or value <= high):
                return value
        except ValueError:
            pass
        bounds = f">= {low}" if high is None else f">= {low} and <= {high}"
        raise ValueError(f"expected an integer {bounds}, got {text!r}")
    return parse


def _print_json(objs) -> None:
    """canonical_json of the list of objs, written one object at a time as
    it is read: "[", the objects' canonical_json joined by ",", then "]"."""
    sep = "["
    for obj in objs:
        print(sep, canonical_json(obj), sep="", end="")
        sep = ","
    print("]")


def _print_rows(rows, fmt: str, **fields) -> None:
    """Each (n, polynomial) pair as it is read, its coefficients padded
    with zeros to n + 2: a CSV line, or a JSON object with the given fields."""
    padded = ((n, p.coeffs + (0,) * (n + 2 - len(p.coeffs))) for n, p in rows)
    if fmt == "csv":
        for n, coeffs in padded:
            print(",".join(map(str, (n, *coeffs))))
    else:
        _print_json({"n": n, "coefficients": coeffs} | fields for n, coeffs in padded)


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

    agree = {"agree": True} if args.route == "all" else {}
    if args.format != "text":
        _print_rows(rows, args.format, route=args.route, **agree)
    else:
        for n, p in rows:
            print(f"n={n}: {'AGREE  ' if agree else ''}{p}")
    return 0


def cmd_table(args) -> int:
    def rows():
        return ((n, genus_recurrence(n).poly) for n in range(args.max_n + 1))

    if args.format != "text":
        _print_rows(rows(), args.format)
        return 0
    # two passes, each holding one row: the first keeps each column's
    # largest coefficient, its widest as the coefficients are >= 0, built
    # from the rows as they come, each at least as long as the one before
    width = args.max_n + 2
    top: list[int] = []
    for _, p in rows():
        top = [*map(max, top, p.coeffs), *p.coeffs[len(top):]]
    header = ["n/i", *map(str, range(width))]
    widths = [max(len(h), len(str(t))) for h, t in zip(header, [args.max_n, *top])]

    def line(cells):
        print("  ".join(s.rjust(w) for s, w in zip(cells, widths)))

    line(header)
    for n, p in rows():
        line([str(n), *(str(p[i]) for i in range(width))])
    return 0


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
    failed = False

    def records():
        """Per index: its root certificate, its pairs (None where one failed)
        and its checks, each True, False, or None for a pair below index 0."""
        nonlocal failed
        # starmap keeps no step's pairs once they are certified
        for c, pairs in starmap(_interlace, islice(chain, args.n[0] - first, None)):
            summary = {f"interlace_{mode}": pairs[mode] is not None if mode in pairs else None
                       for mode in ("consecutive", "skip")}
            summary |= {"real_rooted": c.complete,
                        "log_concave": concavity_report(genus_recurrence(c.n)).log_concave}
            failed |= False in summary.values()
            yield c, pairs, summary

    if args.format == "json":
        _print_json(
            {
                "n": c.n,
                "root_certificate": c.to_json_dict()
                | {"approx": [iv.approx() for iv in c.intervals]},
                "interlacing": {
                    mode: ic.to_json_dict() if (ic := pairs.get(mode)) else None
                    for mode in ("consecutive", "skip")
                },
                "log_concave": summary["log_concave"],
                "summary": summary,
            }
            for c, pairs, summary in records()
        )
    else:
        for c, _, summary in records():
            print(
                f"n={c.n}: real-rooted {_mark(summary['real_rooted'])} "
                f"({len(c.intervals)} intervals), "
                f"interlace(n-1) {_mark(summary['interlace_consecutive'])}, "
                f"interlace(n-2) {_mark(summary['interlace_skip'])}, "
                f"log-concave {_mark(summary['log_concave'])}"
            )
    return 1 if failed else 0


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


#: The default of an option that every call must give.
REQUIRED = object()
_INDEX = ("--n", parse_n_spec, REQUIRED, "N|A..B", "claw index or inclusive range, e.g. 4 or 0..10")
_ORACLE = (
    ("--parallelism", _int_at_least(1, MAX_JOBS), 1, "PARALLELISM",
     f"oracle: worker processes above the size cap, one process up to it (1 to {MAX_JOBS})"),
    ("--acknowledge-cost", None, False, None, "allow oracle enumeration above the size cap"),
)

#: command -> (name of its function, looked up on each call so that a
#: rebinding of the module's name reaches it; help; options).  An option is
#: (flag, a converter raising ValueError or the choices or None for a switch,
#: default or REQUIRED, metavar, help).  Every command also takes -h.
COMMANDS = {
    "compute": ("cmd_compute", "genus polynomial coefficients", (
        _INDEX, *_ORACLE,
        ("--route", (*ROUTES, "all"), "all", None,
         "computation route; 'all' cross-checks the four algebraic routes (default)"),
        ("--format", ("text", "csv", "json"), "text", None, "output format"))),
    "table": ("cmd_table", "coefficient table for n = 0..max-n", (
        ("--max-n", _int_at_least(0), 4, "MAX_N", "largest index (default 4)"),
        ("--format", ("text", "csv", "json"), "text", None, "output format"))),
    "certify": ("cmd_certify", "root and log-concavity certificates", (
        _INDEX, ("--format", ("text", "json"), "text", None, "output format"))),
    "oracle-check": ("cmd_oracle_check", "compare exhaustive enumeration with the engine",
                     (_INDEX, *_ORACLE)),
}
DESCRIPTION = """\
Exact genus polynomials of iterated-claw graphs: computation by independent
routes, brute-force verification, and machine-checkable certificates of
real-rootedness, root interlacing and log-concavity."""


def _plain(argv: list[str]) -> dict | None:
    """The fields of an argv of the plain form, else None.  The plain form
    is a command, then its options spelled in full: ``--flag value``, a
    switch bare, every value valid and not starting with "-", every
    required option given.  argparse reads it the same."""
    if not argv or argv[0] not in COMMANDS:
        return None
    specs = {opt[0]: opt for opt in COMMANDS[argv[0]][2]}
    values = {flag: opt[2] for flag, opt in specs.items()}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in specs:
            return None
        kind = specs[flag][1]
        if kind is None:  # a switch
            values[flag] = True
            continue
        text = next(tokens, "-")  # no value left reads as an option
        if text.startswith("-") or not (callable(kind) or text in kind):
            return None
        try:
            values[flag] = kind(text) if callable(kind) else text
        except ValueError:
            return None
    if any(value is REQUIRED for value in values.values()):
        return None
    return {"command": argv[0], **{flag[2:].replace("-", "_"): v for flag, v in values.items()}}


def _argparse(argv: list[str]) -> dict:
    """The fields of any argv as argparse reads it over ``COMMANDS``: unique
    prefixes, ``--``, ``-1`` as a value, the last of a repeated option.
    ``-h`` prints help and exits 0; a usage error prints the usage and an
    ``error:`` line on stderr and exits 2."""
    import argparse

    def typed(convert):  # argparse prints an ArgumentTypeError's message as it is
        def parse(text: str):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return parse

    parser = argparse.ArgumentParser(prog="clawgenus", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, options) in COMMANDS.items():
        p = sub.add_parser(command, help=about, description=about)
        for flag, kind, default, metavar, text in options:
            kw = {"required": True} if default is REQUIRED else {"default": default}
            if kind is None:
                kw["action"] = "store_true"
            elif callable(kind):
                kw |= {"type": typed(kind), "metavar": metavar}
            else:
                kw["choices"] = kind
            p.add_argument(flag, help=text, **kw)
    return vars(parser.parse_args(argv))


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its options, read from argv over ``COMMANDS``: by
    ``_plain`` where it can, else by ``_argparse``, which alone prints help
    or a usage error."""
    fields = _plain(argv) or _argparse(argv)
    return SimpleNamespace(func=globals()[COMMANDS[fields["command"]][0]], **fields)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
