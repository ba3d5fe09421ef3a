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


def test_every_import_is_relative_or_from_the_standard_library():
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and not outside, outside


#: Modules no command needs at import: the records are NamedTuples, not
#: dataclasses (which pull in ``inspect``), ``Fraction`` (which pulls in
#: ``decimal``) is built only where a caller asks for one, and ``json``
#: loads with the first JSON output.
NOT_AT_IMPORT = ("dataclasses", "inspect", "fractions", "decimal", "json")

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
imported = set(sys.modules) - before
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert clawgenus.cli.main(argv) == 0, argv
ran = set(sys.modules) - before
print(sorted(imported))
print(sorted(ran))
"""


def test_the_cli_imports_no_stdlib_machinery_its_commands_do_not_need():
    """In a fresh interpreter, ``import clawgenus.cli`` loads none of
    ``NOT_AT_IMPORT``, and the workloads' commands then load neither
    ``fractions`` nor ``json``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(calls=WORKLOAD_CALLS)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    imported, ran = map(ast.literal_eval, proc.stdout.splitlines())
    assert "clawgenus.cli" in imported
    assert not set(NOT_AT_IMPORT) & set(imported), imported
    assert not {"fractions", "json"} & set(ran), ran
