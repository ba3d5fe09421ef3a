"""Mutants of the package, each with the check that catches it.

Each row makes one small change to a constant or to a private function,
applied with ``monkeypatch``, and runs a command over a short range, or
the check that the row names.  A
function's mutant is compiled from its own source with one piece of text
replaced, so a row whose text the source no longer holds fails instead of
testing nothing.  The routes keep state between calls, each in a
``ResumableSequence``: ``fresh_routes`` starts every one of them over, so a
patched constant is read, and no term computed from it outlives the test.
"""

import __future__
import inspect
import json
import sys
import textwrap

import pytest

import clawgenus.cli as cli
import clawgenus.formulas as formulas
import clawgenus.oracle as oracle
import clawgenus.rootcert as rootcert
from certcheck import certificate_errors
from clawgenus.cli import main
from clawgenus.errors import ConsistencyError, StructureViolation
from clawgenus.pgd import ResumableSequence
from clawgenus.polynomials import IntPoly
from test_cli import certificate_reach, halving_errors, sign_reads
from test_rootcert import COLD_PANEL, bound_mismatches, cold_mismatches, cold_splits

#: The module; ``clawgenus.pgd`` is the function the package exports.
pgd = sys.modules["clawgenus.pgd"]

RANGE = "0..40"


def entry(table: tuple, i: int, value) -> tuple:
    """table with entry i replaced by value."""
    return table[:i] + (value,) + table[i + 1:]


#: Mutants of the certificate search that certcheck or the exit code of
#: ``certify`` must catch, with the range certified.
CAUGHT = {
    # W_0 = 2 + 2z has its root -1 at the hi of its interval (-2, -1]
    "halve-keeps-the-lower-half-at-a-root-hi": ([
        (rootcert, "_halve", "if s == 0 or p.sign(", "if s != 0 and p.sign("),
    ], RANGE),
    # The memo lives on the mutant function, so it goes with the mutant.
    # Every pair fails from (1, 0) on, each at a growing cost: 8.6 s over
    # 0..30, so the range is short.
    "one-memo-for-every-polynomial": ([
        (IntPoly, "sign", "memo = self._signs = {}",
         "memo = self._signs = IntPoly.sign.__dict__.setdefault('memo', {})"),
    ], "0..8"),
}

#: Mutants of the certificate search that keep every certificate true and
#: the exit code 0, so only the halving counts (``halving_errors``) over
#: ``RANGE`` see them; the CLI reads certificate_chain through its own name.
MISCOUNTED = {
    "skip-pair-merges-w-n-2-unhalved":
        (cli, "certificate_chain", "(gaps, below) if gaps", "(gaps, older) if gaps"),
    "isolate-keeps-the-gaps-unnarrowed":
        (rootcert, "_isolate", "cert, RootCertificate(np_.n, narrowed, w), halved",
         "cert, cert, halved"),
}

#: Mutants of Descartes' rule, of the bisection walk it counts for and of
#: the bound the walk starts from, each with the check that catches it:
#: ``cold_mismatches`` names the inputs whose cold certificate fails the
#: Sturm reference, ``cold_splits`` counts the splits of a cold count and is
#: None for a count that would split forever, and ``bound_mismatches`` names
#: the inputs with a root at or below the start.
COLD = {
    # (z + 1)(z + 4) is certified as (-4, -2], (-2, 0]
    "midpoint-root-goes-to-the-right-half": (
        (rootcert, "_roots", "(cs[-1] == 0)", "(cs[0] == 0)"), cold_mismatches),
    # (z + 1)(z + 4) is certified as the one interval (-8, 0]
    "fewer-intervals-are-kept": (
        (rootcert, "_bisect", "if roots == 1:", "if roots in (1, 2):"),
        cold_mismatches),
    # the counts stay right on real-rooted input, so every certificate does
    # too; a complex pair's 2 is handed down the right spine for ever
    "right-half-count-inferred": (
        (rootcert, "_bisect", "count(right), right))",
         "roots - count(left), right))"),
        lambda: cold_splits(IntPoly((5, 8, 4))) != 2),
    # no split separates the two copies of the double root -1/3
    "repeated-root-counted-on-w-itself": (
        (rootcert, "_descartes", "_bernstein(_squarefree_part(w), E)",
         "_bernstein(w, E)"),
        lambda: cold_splits(COLD_PANEL["repeated-root"]) is None),
    # W_2 has the root -2.74 at or below -2**1
    "start-one-halving-too-high": (
        (rootcert, "_bound_exponent", "max(min(cauchy, fujiwara), 1)",
         "max(min(cauchy, fujiwara) - 1, 1)"), bound_mismatches),
    # z^2 + 7z - 49 has the root -11.3 at or below -2**3
    "fujiwara-without-its-factor-two": (
        (rootcert, "_bound_exponent", "fujiwara = 1 + max(", "fujiwara = max("),
        bound_mismatches),
}

#: The recurrence's first window with G_2 = 48z + 720z^2 + 256z^3 moved to
#: 49z + 719z^2 + 256z^3, which keeps its coefficient sum.
SEEDED = tuple(formulas.GenusPolynomial(n, p) for n, p in enumerate(
    entry(formulas._SEEDS, 2, IntPoly((0, 49, 719, 256)))))

#: Mutants past ``rootcert``: each edit is (owner, name, value) for a
#: constant or (owner, name, old text, new text) for a function, with the
#: command that must exit 1 and what its error must say.
FAILS = {
    "recurrence-c2-minus-63": (
        [(formulas, "RECURRENCE", entry(formulas.RECURRENCE, 1, IntPoly((0, 24, -63))))],
        ["compute", "--n", "0..4"],
        "error: coefficient sum at n=3 is 16448, expected 2^14",
    ),
    "production-matrix-8-to-9": (
        [(pgd, "PRODUCTION_MATRIX", entry(
            pgd.PRODUCTION_MATRIX, 0,
            entry(pgd.PRODUCTION_MATRIX[0], 2, IntPoly.constant(9))))],
        ["compute", "--n", "0..4"], "error: embedding total at n=1 is 66, expected 64",
    ),
    "production-matrix-12-to-11": (
        [(pgd, "PRODUCTION_MATRIX", entry(
            pgd.PRODUCTION_MATRIX, 1,
            entry(pgd.PRODUCTION_MATRIX[1], 0, IntPoly.monomial(1, 11))))],
        ["compute", "--n", "0..4"], "error: embedding total at n=1 is 62, expected 64",
    ),
    "composition-sum-multiplier-3-to-2": (
        [(formulas, "MULTIPLIERS", entry(formulas.MULTIPLIERS, 0, (2, 0)))],
        ["compute", "--n", "0..4"], "error: coefficient sum at n=0 is 3, expected 2^2",
    ),
    # the one product rule of Z[sqrt 3]; _COMPOSITION keeps the step
    # function it was built with, so the row mutates that reference
    "sqrt3-squared-is-2": (
        [(formulas._COMPOSITION, "step", "3 * q * y", "2 * q * y")],
        ["compute", "--n", "0..4"], "error: coefficient sum at n=1 is 60, expected 2^6",
    ),
    # the CLI reads genus_explicit through its own name
    "explicit-4-6z-to-4-5z": (
        [(cli, "genus_explicit", "IntPoly((4, -6))", "IntPoly((4, -5))")],
        ["compute", "--n", "0..4"],
        "error: halving at n=0: coefficient 5 not divisible by 2",
    ),
    # _GENUS copies _SEEDS at import, and fresh_routes has already started
    # it from that copy, so the row sets both of its terms
    "recurrence-seed-g2": (
        [(formulas._GENUS, "first", SEEDED), (formulas._GENUS, "last", (0, SEEDED))],
        ["compute", "--n", "0..4"],
        "route disagreement at n=2, coefficient i=1: pgd=48, recurrence=49",
    ),
    "tally-files-class-a-as-c": (
        [(oracle, "_tally", "tallies[cls][", "tallies[cls or 2][")],
        ["oracle-check", "--n", "0..3"],
        "n=0: oracle differs from the production route in class(es) a, c",
    ),
    # the two below raised a bare IndexError out of the CLI before the
    # enumeration checked the root class it derives
    "join-drops-the-root-flags": (
        [(oracle, "_tally", "nxt[p], root[p] = e, touched", "nxt[p] = e")],
        ["oracle-check", "--n", "0..3"], "error: 0 root faces in enumeration",
    ),
    "walk-drops-the-root-darts-it-passes": (
        [(oracle, "_walk", "touched |= root[d]", "pass")],
        ["oracle-check", "--n", "0..3"], "error: 0 root faces in enumeration",
    ),
    # walked from its inner darts first, a side closes the faces that come
    # in at its ports as if they never left it, and its port map leaves
    # through inner darts, which the join refuses before it walks
    "side-walks-without-its-ports-first": (
        [(oracle, "_side", "starts = ports + [", "starts = [")],
        ["oracle-check", "--n", "0..3"],
        "error: a port map leaves through darts that are not ports",
    ),
    # side A's buckets hold one configuration each up to n = 1, so the
    # count first goes wrong at n = 2
    "join-drops-side-a-multiplicity": (
        [(oracle, "_tally", "+= count_a * count_b", "+= count_b")],
        ["oracle-check", "--n", "0..3"],
        "error: oracle enumerated 192 rotation systems at n=2, expected 1024",
    ),
    "side-counts-each-bucket-once": (
        [(oracle, "_side", "counts.get(key, 0) + 1", "1")],
        ["oracle-check", "--n", "0..3"],
        "error: oracle enumerated 32 rotation systems at n=1, expected 64",
    ),
    # the counts stay right, so only the routes see the classes move
    "bucket-key-drops-the-closed-root-faces": (
        [(oracle, "_side", "key, counts = (faces, root_faces)", "key, counts = (faces, 0)")],
        ["oracle-check", "--n", "0..3"],
        "n=1: oracle differs from the production route in class(es) a, c",
    ),
    # the caller drops every block of a side after its first, which shows
    # only where a side splits: above the cap, with more than one job; the
    # CLI reads enumerate_pgd through its own name
    "caller-keeps-one-block-per-side": (
        [(oracle, "DEFAULT_CAP", 1),
         (cli, "enumerate_pgd", "for pmap, counts in more.items():",
          "for pmap, counts in ():")],
        ["oracle-check", "--n", "2", "--parallelism", "2", "--acknowledge-cost"],
        "error: oracle enumerated 256 rotation systems at n=2, expected 1024",
    ),
}


def mutate(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Set ``owner.name`` to its own source with ``old`` replaced by ``new``;
    a decorated function's source holds its decorators, so they apply again.
    The attribute may hold the function under another name."""
    func = inspect.unwrap(getattr(owner, name))
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{name} no longer holds {old!r}"
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, func.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[func.__name__])


def apply(monkeypatch, edit: tuple) -> None:
    """Set a constant, (owner, name, value), or mutate a function."""
    if len(edit) == 3:
        monkeypatch.setattr(*edit)
    else:
        mutate(monkeypatch, *edit)


@pytest.fixture
def fresh_routes(monkeypatch):
    """Every route starts from its first terms, and none keeps a mutant's:
    each ``ResumableSequence`` of the route modules, found by its type."""
    for module in (formulas, pgd):
        for seq in vars(module).values():
            if isinstance(seq, ResumableSequence):
                monkeypatch.setattr(seq, "last", (0, seq.first))


def certify(capsys, spec: str = RANGE) -> tuple[int, str, str]:
    code = main(["certify", "--n", spec, "--format", "json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", CAUGHT)
def test_certcheck_or_the_exit_code_catches(capsys, monkeypatch, name):
    edits, spec = CAUGHT[name]
    for edit in edits:
        apply(monkeypatch, edit)
    code, out, _ = certify(capsys, spec)
    assert code != 0 or certificate_errors(json.loads(out))


@pytest.mark.parametrize("name", MISCOUNTED)
def test_only_the_halving_counts_catch(capsys, monkeypatch, name):
    mutate(monkeypatch, *MISCOUNTED[name])
    code, out, _ = certify(capsys)
    assert code == 0 and not certificate_errors(json.loads(out))
    assert halving_errors(capsys, monkeypatch, RANGE)


@pytest.mark.parametrize("name", COLD)
def test_the_cold_count_checks_catch(name):
    edit, check = COLD[name]
    assert not check()
    with pytest.MonkeyPatch.context() as monkeypatch:
        mutate(monkeypatch, *edit)
        assert check()


@pytest.mark.parametrize("name", FAILS)
def test_the_command_fails_with_its_own_error(capsys, monkeypatch, fresh_routes, name):
    edits, argv, message = FAILS[name]
    for edit in edits:
        apply(monkeypatch, edit)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1 and message in err, err


def test_the_series_check_catches_a_numerator_entry(monkeypatch, fresh_routes):
    """-12z -> -11z in the closed generating function's numerator."""
    monkeypatch.setattr(formulas, "SERIES_NUMERATOR", entry(
        formulas.SERIES_NUMERATOR, 1, IntPoly((8, -11))))
    with pytest.raises(ConsistencyError, match="at t\\^1"):
        formulas.verify_series_closed_form(6)


def test_the_euler_residue_catches_a_face_counted_twice(monkeypatch):
    """A face count one too high makes 2 - V + E - F odd, which no genus
    gives: ``face_trace`` refuses it."""
    g = oracle.build_iterated_claw(0)
    rot = oracle.RotationSystem.from_bits(g, 0)
    assert oracle.face_trace(g, rot) == (1, 1)  # one face, on the torus
    mutate(monkeypatch, oracle, "_faces",
           "return faces, root_faces", "return faces + 1, root_faces")
    with pytest.raises(StructureViolation, match="residue 1;"):
        oracle.face_trace(g, rot)


def test_the_read_count_catches_a_memo_keyed_as_written(capsys, monkeypatch):
    """A memo keyed by the point as written, not in lowest terms, still
    gives true signs, so ``certify`` passes with the same points read; only
    the count of evaluations in lowest terms, as in
    ``test_certify_reads_each_sign_once``, sees the repeats."""
    clean = sign_reads(capsys, monkeypatch, "0..28")
    mutate(monkeypatch, IntPoly, "sign", "if k and not x & 1:", "if False:")
    reads = sign_reads(capsys, monkeypatch, "0..28")
    assert len(clean) == len(set(clean)) == len(set(reads)) < len(reads)


def test_flipped_bracket_parity_shows_only_in_the_digests(capsys, monkeypatch):
    """``_brackets`` asking w for the opposite sign at each of prev's roots.
    Its sign count proves every root it claims whatever sign it asks for,
    so every step falls back to a cold count and pairs the canonical
    certificates.  The merges printed change but stay true: certcheck and
    the exit code cannot tell, and only the golden certify digests (the
    bytes) and the count of cold isolations show it."""
    cold, real = [], rootcert._descartes
    monkeypatch.setattr(rootcert, "_descartes", lambda w, E: cold.append(w) or real(w, E))
    code, out, _ = certify(capsys)
    assert code == 0 and len(cold) == 1  # W_0's, where the walk starts
    cold.clear()
    mutate(monkeypatch, rootcert, "_brackets",
           "want = -1 if (d - j) % 2 else 1", "want = 1 if (d - j) % 2 else -1")
    code, mutant_out, _ = certify(capsys)
    assert code == 0 and certificate_errors(json.loads(mutant_out)) == []
    assert mutant_out != out and len(cold) == 41


def test_the_reach_check_catches_a_chain_step_kept_alive(capsys, monkeypatch):
    """A plain ``for`` over the chain keeps the last step bound while the
    next is isolated, and with it the brackets that hold W_{n-3}."""
    mutate(monkeypatch, cli, "cmd_certify",
           "for c, pairs in starmap(_interlace, islice(chain, args.n[0] - first, None)):",
           "for step in islice(chain, args.n[0] - first, None):\n"
           "        c, pairs = _interlace(*step)")
    assert certificate_reach(capsys, monkeypatch, "0..12") != (3, 2)
