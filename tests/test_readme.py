"""The README's library example runs as written."""

import contextlib
import io
import multiprocessing
import re
from pathlib import Path

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
