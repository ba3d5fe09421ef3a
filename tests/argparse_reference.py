"""The CLI's grammar as an ``argparse`` parser: the reference that
``clawgenus.cli.parse_args`` is compared against.

The CLI's converters raise ``ValueError``; argparse would print that as
"invalid ... value", so each is wrapped to raise ``ArgumentTypeError``,
whose message argparse prints as it is.
"""

import argparse

from clawgenus import cli
from clawgenus.oracle import MAX_JOBS


def _typed(convert):
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


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
    index.add_argument("--n", type=_typed(cli.parse_n_spec), required=True,
                       metavar="N|A..B",
                       help="claw index or inclusive range, e.g. 4 or 0..10")
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--parallelism", type=_typed(cli._int_at_least(1, MAX_JOBS)),
                        default=1,
                        help="oracle: worker processes above the size cap, "
                             f"one process up to it (1 to {MAX_JOBS})")
    oracle.add_argument("--acknowledge-cost", action="store_true",
                        help="allow oracle enumeration above the size cap")

    p = sub.add_parser("compute", parents=[index, oracle],
                       help="genus polynomial coefficients")
    p.add_argument("--route", choices=cli.ROUTES + ("all",), default="all",
                   help="computation route; 'all' cross-checks the four "
                        "algebraic routes (default)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cli.cmd_compute)

    p = sub.add_parser("table", help="coefficient table for n = 0..max-n")
    p.add_argument("--max-n", type=_typed(cli._int_at_least(0)), default=4)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cli.cmd_table)

    p = sub.add_parser("certify", parents=[index],
                       help="root and log-concavity certificates")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cli.cmd_certify)

    p = sub.add_parser("oracle-check", parents=[index, oracle],
                       help="compare exhaustive enumeration with the engine")
    p.set_defaults(func=cli.cmd_oracle_check)
    return parser
