"""The README's library example and CLI commands run as written."""

import contextlib
import io
import multiprocessing
import re
import shlex
from pathlib import Path

from clawgenus.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs_and_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    # each print(...) line states its output in a trailing comment
    expected = [ln.split("# ", 1)[1] for ln in block.splitlines() if ln.startswith("print(")]
    assert expected and out.getvalue().splitlines() == expected
    assert multiprocessing.active_children() == []


def readme_cli_commands() -> list[list[str]]:
    """The argv of each ``clawgenus`` line of the CLI section."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(ln, comments=True) for ln in block.splitlines()]
    assert commands and all(argv[0] == "clawgenus" for argv in commands)
    return [argv[1:] for argv in commands]


def test_cli_block_commands_exit_0_with_nothing_on_stderr(capsys):
    """Each ``clawgenus`` line of the CLI section runs as documented."""
    for argv in readme_cli_commands():
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out and err == "", argv
    assert multiprocessing.active_children() == []
