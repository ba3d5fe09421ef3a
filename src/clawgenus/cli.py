"""Command-line interface: the four commands of ``COMMANDS``, compute,
table, certify and oracle-check.

Results go to stdout, diagnostics to stderr.  The exit status is 0 exactly
when every requested check passed.  Exact quantities never serialize as
floating point: rationals appear as [numerator, denominator] pairs, and the
only float fields are decimal approximations explicitly marked "approx".

``table`` and ``certify`` write each row as it is computed, JSON through
``_print_json``.  Only ``compute`` holds its rows until every index has
passed, and ``table``'s text mode needs every row for its column widths.

Each command-line call starts a fresh interpreter and pays for every module
imported here: ``json`` is imported by ``canonical_json``, the first time a
command writes JSON, so a text or CSV command never loads it, and
``parse_args`` reads the arguments over ``COMMANDS`` without ``argparse``.
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
    rows = ((n, genus_recurrence(n).poly) for n in range(args.max_n + 1))
    if args.format != "text":
        _print_rows(rows, args.format)
    else:
        rows = list(rows)
        width = args.max_n + 2
        cells = [["n/i"] + [str(i) for i in range(width)]]
        cells += [[str(n)] + [str(p[i]) for i in range(width)] for n, p in rows]
        widths = [max(len(r[c]) for r in cells) for c in range(width + 1)]
        for r in cells:
            print("  ".join(s.rjust(w) for s, w in zip(r, widths)))
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
                        "log_concave": concavity_report(genus_recurrence(c.n)).ok}
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


def _spelled(flag: str, kind, _default, metavar: str | None, _text: str) -> str:
    return f"{flag} {metavar or '{%s}' % ','.join(kind)}" if kind else flag


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: clawgenus [-h] {{{','.join(COMMANDS)}}} ..."
    words = (_spelled(*o) if o[2] is REQUIRED else f"[{_spelled(*o)}]" for o in COMMANDS[command][2])
    return " ".join([f"usage: clawgenus {command} [-h]", *words])


def _help(command: str | None):
    """Print the usage and what each command or option does, and exit 0."""
    if command is None:
        about, rows = DESCRIPTION, [(c, spec[1]) for c, spec in COMMANDS.items()]
    else:
        about, rows = COMMANDS[command][1], [(_spelled(*o), o[4]) for o in COMMANDS[command][2]]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    print(_usage(command), "", about, "", *(f"  {a:<20}  {b}" for a, b in rows), sep="\n")
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    """Exit 2 as argparse does: usage, then the error line, on stderr."""
    prog = f"clawgenus {command}" if command else "clawgenus"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _convert(command: str | None, name: str, kind, text: str):
    if not callable(kind) and text not in kind:
        choices = ", ".join(map(repr, kind))
        _fail(command, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return kind(text) if callable(kind) else text
    except ValueError as exc:
        _fail(command, f"argument {name}: {exc}")


def _classify(tokens: list[str], flags: tuple[str, ...], command: str | None) -> list:
    """Each token as argparse reads it, all before any acts: None for a
    value, "--" for the end of the options, else (flag or None where it is
    unknown, the text after "=" or None)."""
    kinds = []
    for token in tokens:
        if "--" in kinds or token[:1] != "-" or token == "-":
            kinds.append(None)
        elif token == "--":
            kinds.append(token)
        elif token[1] == "h":  # -h; -hh is -h twice, other text after it is ignored
            bad = (token[3:] if token[:3] == "-h=" else token[2:]).lstrip("h")
            kinds.append(("--help", bad if bad or token == "-h=" else None))
        elif token[1] == "-" and (hits := [f for f in flags if f.startswith(token.split("=")[0])]):
            head, eq, value = token.partition("=")
            if len(hits) > 1 and head not in hits:
                _fail(command, f"ambiguous option: {token} could match {', '.join(hits)}")
            kinds.append((head if head in hits else hits[0], value if eq else None))
        else:  # argparse's negative numbers (-1, -.5) and text with a space are values
            number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
            kinds.append(None if number or " " in token else (None, None))
    return kinds


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its options, read from argv over ``COMMANDS`` as
    argparse read them: unique prefixes, ``--opt=value``, the last of a
    repeated option, ``-1`` as a value.  ``-h`` prints help and exits 0; a
    usage error prints argparse's usage and error lines and exits 2."""
    command, specs, values, extras = None, {}, {}, []
    tokens, i = list(argv), 0
    kinds = _classify(tokens, ("--help",), None)
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        flag, value = kind if isinstance(kind, tuple) else (None, None)
        i += 1
        if command is None and (kind is None or kind == "--" and i < len(tokens)):
            command = _convert(None, "command", COMMANDS, token)
            specs = {opt[0]: opt for opt in COMMANDS[command][2]}
            values = {flag: opt[2] for flag, opt in specs.items()}
            tokens, i, kinds = tokens[i:], 0, _classify(tokens[i:], ("--help", *specs), command)
        elif flag is None:
            extras.append(token)
        elif flag == "--help" or specs[flag][1] is None:  # -h or a switch
            if value is not None:
                name = flag if flag in specs else "-h/--help"
                _fail(command, f"argument {name}: ignored explicit argument {value!r}")
            if flag == "--help":
                _help(command)
            values[flag] = True
        else:
            if value is None:
                if i == len(tokens) or kinds[i] is not None:
                    _fail(command, f"argument {flag}: expected one argument")
                value, i = tokens[i], i + 1
            values[flag] = _convert(command, flag, specs[flag][1], value)
    if command is None:
        _fail(None, "the following arguments are required: command")
    if missing := [flag for flag, value in values.items() if value is REQUIRED]:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    fields = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=command, func=globals()[COMMANDS[command][0]], **fields)


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
