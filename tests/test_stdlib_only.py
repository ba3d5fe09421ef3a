"""The package runs on the standard library alone: ``dependencies = []``."""

import ast
import sys
from pathlib import Path

import clawgenus

SOURCES = sorted(Path(clawgenus.__file__).parent.glob("*.py"))


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
