"""Mutants of the certificate search, each with the check that catches it.

Each row makes one small change to a private function of ``rootcert``,
applied with ``monkeypatch``, and runs ``certify --format json`` over a
short range.  The mutant is compiled from the function's own source with
one piece of text replaced, so a row whose text the source no longer holds
fails instead of testing nothing.
"""

import __future__
import inspect
import json
import textwrap

import pytest

import clawgenus.rootcert as rootcert
from certcheck import certificate_errors
from clawgenus.cli import main

RANGE = "0..40"

#: W_{n-1}'s halved intervals, paired for the skip merge at step n+1, read
#: through W_n's sign table instead of their own.
ALIASED_TABLE = (
    rootcert, "_isolate",
    "halved = replace(prev, intervals=tuple(refined))",
    "halved = replace(prev, intervals=tuple(refined), signs=signs)",
)
UNGUARDED = (
    rootcert.RootCertificate, "__post_init__",
    "elif self.signs.poly != self.poly:", "elif False:",
)

#: Mutants that certcheck or the exit code of ``certify`` must catch.
CAUGHT = {
    "aliased-table-past-the-guard": [ALIASED_TABLE, UNGUARDED],
    # W_0 = 2 + 2z has its root -1 at the hi of its interval (-2, -1]
    "halve-keeps-the-lower-half-at-a-root-hi": [
        (rootcert, "_halve", "if s == 0 or p(", "if s != 0 and p("),
    ],
}


def mutate(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Set ``owner.name`` to its own source with ``old`` replaced by ``new``."""
    func = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{name} no longer holds {old!r}"
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, func.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def certify(capsys) -> tuple[int, str, str]:
    code = main(["certify", "--n", RANGE, "--format", "json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", CAUGHT)
def test_certcheck_or_the_exit_code_catches(capsys, monkeypatch, name):
    for edit in CAUGHT[name]:
        mutate(monkeypatch, *edit)
    code, out, _ = certify(capsys)
    assert code != 0 or certificate_errors(json.loads(out))


def test_the_certificate_refuses_a_table_of_another_polynomial(capsys, monkeypatch):
    """The search's own merge trusts the signs it is given (past the guard
    ``certify`` exits 0 with every check passed), so the guard in
    ``RootCertificate`` is what stops an aliased table."""
    mutate(monkeypatch, *ALIASED_TABLE)
    code, out, err = certify(capsys)
    assert code == 1 and out == ""
    assert "sign table of another polynomial" in err


def test_flipped_bracket_parity_shows_only_in_the_digests(capsys, monkeypatch):
    """``_brackets`` asking w for the opposite sign at each of prev's roots.
    Its sign count proves every root it claims whatever sign it asks for,
    so every step falls back to a Sturm chain and pairs the canonical
    certificates.  The merges printed change but stay true: certcheck and
    the exit code cannot tell, and only the golden certify digests (the
    bytes) and the count of Sturm chains show it."""
    builds, real = [], rootcert.SturmChain
    monkeypatch.setattr(rootcert, "SturmChain", lambda p: builds.append(p) or real(p))
    code, out, _ = certify(capsys)
    assert code == 0 and len(builds) == 1  # W_0's, where the walk starts
    builds.clear()
    mutate(monkeypatch, rootcert, "_brackets",
           "want = -1 if (d - j) % 2 else 1", "want = 1 if (d - j) % 2 else -1")
    code, mutant_out, _ = certify(capsys)
    assert code == 0 and certificate_errors(json.loads(mutant_out)) == []
    assert mutant_out != out and len(builds) == 41
