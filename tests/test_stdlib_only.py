"""The package runs on the standard library alone: ``dependencies = []``.

It also imports no more of the standard library than its commands need:
every CLI call starts a fresh interpreter, so each module that
``import clawgenus.cli`` loads is paid on every call.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import clawgenus

SOURCES = sorted(Path(clawgenus.__file__).parent.glob("*.py"))
SRC = str(Path(clawgenus.__file__).resolve().parents[1])


def imports(tree):
    """The top-level name of each module that an absolute import under tree
    names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_every_import_is_relative_or_from_the_standard_library():
    outside = [f"{path.name}: {m}" for path in SOURCES
               for m in imports(ast.parse(path.read_text(encoding="utf-8")))
               if m not in sys.stdlib_module_names]
    assert SOURCES and not outside, outside


def test_only_cli_argparse_imports_argparse():
    """One ``import argparse`` in the package, in the body of
    ``cli._argparse``: an argv that ``cli._plain`` reads, as every README
    command does, never loads it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    found = [name for name, tree in trees.items() for m in imports(tree) if m == "argparse"]
    (reader,) = (node for node in trees["cli.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "_argparse")
    assert found == ["cli.py"] and list(imports(reader)) == ["argparse"], found


#: Modules no command needs at import: the records are NamedTuples, not
#: dataclasses (which pull in ``inspect``), ``Fraction`` (which pulls in
#: ``decimal``) is built only where a caller asks for one, ``json`` loads
#: with the first JSON output, and the CLI imports ``argparse`` (whose
#: messages pull in ``gettext``) only for an argv that ``cli._plain``
#: refuses: help, a prefix, a usage error.
NOT_AT_IMPORT = ("dataclasses", "inspect", "fractions", "decimal", "json", "argparse",
                 "gettext")

#: The commands of the benchmark's four workloads, none of which prints JSON.
WORKLOAD_CALLS = (
    ["certify", "--n", "0..28"],
    ["certify", "--n", "31..32"],
    ["compute", "--route", "all", "--format", "csv", "--n", "0..36"],
    ["oracle-check", "--parallelism", "2", "--n", "0..3"],
)

SCRIPT = """\
import contextlib, io, sys
before = set(sys.modules)
import clawgenus.cli
print(sorted(set(sys.modules) - before))
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert clawgenus.cli.main(argv) == 0, argv
print(sorted(set(sys.modules) - before))
"""


def fresh_modules(calls) -> tuple[list[str], list[str]]:
    """The modules ``SCRIPT`` sees ``import clawgenus.cli`` load in a fresh
    interpreter, then those loaded by the end of the calls."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(calls=calls)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(ast.literal_eval, proc.stdout.splitlines()))


def test_the_cli_imports_no_stdlib_machinery_its_commands_do_not_need():
    """In a fresh interpreter, ``import clawgenus.cli`` loads none of
    ``NOT_AT_IMPORT``, and the workloads' commands then load no
    ``fractions``, ``json``, ``argparse``, ``gettext`` or ``locale``.  (The
    README's commands are plain, so they load no ``argparse`` either:
    ``test_only_cli_argparse_imports_argparse`` with ``test_cli``'s test of
    the plain reader.)"""
    imported, ran = fresh_modules(WORKLOAD_CALLS)
    assert "clawgenus.cli" in imported
    assert not set(NOT_AT_IMPORT) & set(imported), imported
    assert not {"fractions", "json", "argparse", "gettext", "locale"} & set(ran), ran
