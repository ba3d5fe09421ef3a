"""Brute-force embedding enumeration against the algebraic engine."""

import ast
import multiprocessing
import signal
from collections import Counter
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

import clawgenus.cli as cli
import clawgenus.oracle as oracle
import clawgenus.rootcert as rootcert
from clawgenus.errors import OracleCapExceeded, StructureViolation
from clawgenus.oracle import (
    DEFAULT_CAP,
    MAX_JOBS,
    ROOT_CLASSES,
    MultiGraph,
    RotationSystem,
    build_iterated_claw,
    enumerate_pgd,
    face_trace,
    root_class,
)
from clawgenus.pgd import PRODUCTION_MATRIX, initial_pgd, pgd
from clawgenus.polynomials import IntPoly


class TestBuild:
    @pytest.mark.parametrize("n", range(5))
    def test_counts_and_degrees(self, n):
        g = build_iterated_claw(n)
        assert g.num_vertices == 4 * n + 2
        assert g.num_edges == 6 * n + 3
        assert all(len(g.incidence[v]) == 3 for v in range(g.num_vertices))
        assert len(g.incidence[g.root]) == 3

    def test_dipole(self):
        g = build_iterated_claw(0)
        assert g.num_vertices == 2 and g.num_edges == 3
        assert g.edges == ((0, 1), (0, 1), (0, 1))

    def test_first_claw_is_k33(self):
        g = build_iterated_claw(1)
        # simple, bipartite with parts of size 3, all nine cross edges
        assert len(set(map(frozenset, g.edges))) == 9
        part = {0, 1, g.root}
        other = set(range(6)) - part
        assert len(other) == 3
        assert {frozenset((u, v)) for u, v in g.edges} == {
            frozenset((a, b)) for a in part for b in other
        }

    def test_dart_pairing_is_a_fixed_point_free_involution(self):
        g = build_iterated_claw(2)
        at = {d: v for v, darts in enumerate(g.incidence) for d in darts}
        for d in range(g.num_darts):
            assert (d ^ 1) != d and ((d ^ 1) ^ 1) == d
            assert at[d] in g.edges[d // 2]


class TestFaceTrace:
    def test_triangle_is_planar(self):
        tri = MultiGraph(3, [(0, 1), (1, 2), (2, 0)], root=0)
        rot = RotationSystem(tuple(tri.incidence))
        assert face_trace(tri, rot) == (2, 0)

    def test_dipole_rotation_classes(self):
        """The dipole's four embeddings, traced one by one, give the
        production route's base triple: two planar of class a, two toroidal
        of class c."""
        v = initial_pgd()
        assert tuple(map(IntPoly, per_system_tallies(0))) == (v.a, v.b, v.c)

    def test_k33_genus_range(self):
        g = build_iterated_claw(1)
        genera = {
            face_trace(g, RotationSystem.from_bits(g, bits))[1]
            for bits in range(0, 64, 7)
        }
        assert genera <= {1, 2}

    def test_rejects_mismatched_rotation(self):
        g = build_iterated_claw(0)  # darts (0, 2, 4) and (1, 3, 5)
        for orders, message in [
            (((0, 2, 4),), "rotation system does not match the vertex count"),
            (((0, 2, 4), (1, 3, 4)), "rotation at vertex 1 is not a permutation of its darts"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                face_trace(g, RotationSystem(orders))

    @pytest.mark.parametrize("fn", [face_trace, root_class])
    def test_validates_the_rotation_once_per_call(self, monkeypatch, fn):
        real, calls = oracle._validate_rotation, []
        monkeypatch.setattr(
            oracle, "_validate_rotation", lambda g, r: calls.append(r) or real(g, r)
        )
        g = build_iterated_claw(1)
        fn(g, RotationSystem.from_bits(g, 5))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", range(3))
    def test_per_system_walks_agree_with_the_enumeration(self, n):
        """Decoding each index with from_bits and tracing it alone gives the
        same tallies as the split-walk enumeration."""
        assert per_system_tallies(n) == enumerate_pgd(n).tallies

    @pytest.mark.parametrize("n", range(3))
    def test_mirror_images_have_the_same_genus_and_root_class(self, n):
        """Setting every bit reverses every rotation, which gives the mirror
        embedding; so the enumeration's tallies are twice those of the
        systems whose top bit is 0."""
        g = build_iterated_claw(n)
        top = 1 << (g.num_vertices - 1)
        tallies = [[0] * (n + 2) for _ in ROOT_CLASSES]
        for bits in range(top):
            rot = RotationSystem.from_bits(g, bits)
            mirror = RotationSystem.from_bits(g, bits ^ (2 * top - 1))
            faces, genus = face_trace(g, rot)
            cls = root_class(g, rot)
            assert face_trace(g, mirror) == (faces, genus)
            assert root_class(g, mirror) == cls
            tallies[ROOT_CLASSES.index(cls)][genus] += 2
        assert tuple(map(tuple, tallies)) == enumerate_pgd(n).tallies


@lru_cache(maxsize=None)
def gadget_columns(m) -> set[tuple[int, tuple]]:
    """(root class j, histogram of (new class, genus increment)) of each
    embedding of G_m, over the 16 rotations of what G_{m+1} adds: the three
    midpoints and the new root.  Each old vertex keeps its cyclic order of
    edges.  At the old root a root edge's place goes to the edge from the
    midpoint that subdivides it, so the bits that keep the orders are
    found, not assumed to carry over."""
    old, new = build_iterated_claw(m), build_iterated_claw(m + 1)
    v, r = old.num_vertices, old.root
    rename = {}  # at the old root: old edge -> new edge
    for e in (d >> 1 for d in old.incidence[r]):
        (w,) = set(new.edges[e]) - set(old.edges[e])
        rename[e] = next(d >> 1 for d in new.incidence[r] if w in new.edges[d >> 1])

    def cyclic(graph, u, names):  # u's edges at bit 0, least first
        order = [names.get(d >> 1, d >> 1) for d in graph.incidence[u]]
        i = order.index(min(order))
        return order[i:] + order[:i]

    flips = sum((cyclic(old, u, rename if u == r else {}) != cyclic(new, u, {})) << u
                for u in range(v))
    columns = set()
    for bits in range(1 << v):
        rot = RotationSystem.from_bits(old, bits)
        hist = Counter()
        for gadget in range(16):
            grown = RotationSystem.from_bits(new, bits ^ flips | gadget << v)
            hist[ROOT_CLASSES.index(root_class(new, grown)),
                 face_trace(new, grown)[1] - face_trace(old, rot)[1]] += 1
        columns.add((ROOT_CLASSES.index(root_class(old, rot)), tuple(sorted(hist.items()))))
    return columns


def side(n, first, last=None, lo=0, hi=None):
    """``_side`` of claw n for vertices first..last-1 (to the last vertex
    when last is None), over configurations lo..hi-1 (to the last when hi
    is None)."""
    g = build_iterated_claw(n)
    last = g.num_vertices if last is None else last
    hi = 1 << (last - first) if hi is None else hi
    return oracle._side(g.incidence, g.incidence[g.root], first, last, range(lo, hi))


def tally(n, side_a, side_b, euler_shift=0):
    """``_tally`` of two sides of claw n, with its Euler base shifted."""
    g = build_iterated_claw(n)
    return oracle._tally(side_a, side_b, 2 - g.num_vertices + g.num_edges + euler_shift, n + 2)


def flat(buckets) -> Counter:
    """A side's buckets as one count per (port map, closed faces, closed
    root faces)."""
    return Counter({(pmap, key): c for pmap, counts in buckets.items()
                    for key, c in counts.items()})


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for ``multiprocessing.Pool``: runs each block in this
    process, and records the size of each pool and the blocks it ran."""
    record = SimpleNamespace(sizes=[], blocks=[])

    class SerialPool:
        def __init__(self, processes, **_):
            record.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items):
            record.blocks += items
            return [fn(*x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return record


def spy_pools(monkeypatch) -> list[int]:
    """Sizes of the pools the oracle opens, in order.  The pools are real,
    and each must have started its workers, one process apiece."""
    started, real = [], multiprocessing.Pool

    def pool(processes, **kwargs):
        opened = real(processes, **kwargs)
        assert len(multiprocessing.active_children()) == processes, "no workers"
        started.append(processes)
        return opened

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    return started


@lru_cache(maxsize=None)
def per_system_tallies(n):
    """Tallies of all 2^(4n+2) systems, each decoded and traced alone."""
    g = build_iterated_claw(n)
    tallies = [[0] * (n + 2) for _ in ROOT_CLASSES]
    for bits in range(1 << g.num_vertices):
        rot = RotationSystem.from_bits(g, bits)
        cls = ROOT_CLASSES.index(root_class(g, rot))
        tallies[cls][face_trace(g, rot)[1]] += 1
    return tuple(map(tuple, tallies))


class TestProductionRule:
    """PRODUCTION_MATRIX at its source: column j is what one claw makes of
    any embedding whose root has class j, by face tracing alone.  The
    embeddings of G_0 and G_1 realize classes a, b and c."""

    @staticmethod
    def disagreements(matrix) -> list:
        columns = gadget_columns(0) | gadget_columns(1)
        assert {j for j, _ in columns} == {0, 1, 2}
        return [(j, hist) for j, hist in columns if hist != tuple(sorted(
            ((i, g), c) for i in range(3) for g, c in enumerate(matrix[i][j].coeffs) if c))]

    def test_each_embedding_grows_by_its_class_column(self):
        assert self.disagreements(PRODUCTION_MATRIX) == []

    @pytest.mark.parametrize("i,j", [(i, j) for i in range(3) for j in range(3)
                                     if PRODUCTION_MATRIX[i][j]])
    def test_an_entry_moved_one_power_of_z_disagrees(self, i, j):
        e = PRODUCTION_MATRIX[i][j]
        for power in {max(e.degree - 1, 0), e.degree + 1} - {e.degree}:
            moved = [list(row) for row in PRODUCTION_MATRIX]
            moved[i][j] = IntPoly.monomial(power, e.lead)
            assert self.disagreements(moved), power


class TestSplitWalk:
    @pytest.mark.parametrize("n", range(3))
    def test_every_split_matches_the_per_system_walks(self, n):
        """At any k in 0..V-1, the two whole sides tally all systems as
        tracing each alone does."""
        for k in range(4 * n + 2):
            got = tally(n, side(n, 0, k), side(n, k))
            assert tuple(map(tuple, got)) == per_system_tallies(n), f"k={k}"

    def test_split_is_the_smallest_then_most_even_cut(self):
        assert [oracle._split(build_iterated_claw(n)) for n in range(5)] == [1, 1, 5, 5, 9]

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_unaligned_chunks_match_the_engine(self, n, jobs, monkeypatch):
        """One, two and three blocks of side B's 256 configurations with the
        mirror bit 0, the three of unequal size, give the engine's tallies.
        The blocks run in workers, so the cap is lowered below n."""
        monkeypatch.setattr(oracle, "DEFAULT_CAP", n - 1)
        started = spy_pools(monkeypatch)
        o = enumerate_pgd(n, jobs=jobs, acknowledge_cost=True)
        v = pgd(n)
        assert o.as_polys() == (v.a, v.b, v.c)
        assert started == ([jobs] if jobs > 1 else [])
        assert multiprocessing.active_children() == []

    def test_join_rejects_an_exit_that_is_not_a_port(self):
        """A walk sent to an inner dart would never come back to its start,
        so the join must fail before it walks; the timer turns a hang into
        a failure."""
        g = build_iterated_claw(2)
        k = oracle._split(g)
        ports_a, buckets_a = side(2, 0, k)
        ports_b, buckets_b = side(2, k, hi=1)
        inner = min(set(range(g.num_darts)) - set(ports_a + ports_b))
        bad = ((inner, 0),) + next(iter(buckets_a))[1:]  # one exit swapped for an inner dart
        previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the join hangs"))
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(StructureViolation, match="not ports"):
                tally(2, (ports_a, {bad: {(0, 0): 1}}), (ports_b, buckets_b))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_face_trace_and_enumeration_share_one_walk(self, monkeypatch):
        real, calls = oracle._walk, []

        def spy(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(oracle, "_walk", spy)
        g = build_iterated_claw(1)
        face_trace(g, RotationSystem.from_bits(g, 5))
        assert calls == [g.num_darts]
        enumerate_pgd(1)
        assert len(calls) > 1


def imported_names(module) -> set[str]:
    """Every module a source file imports, and every name it imports from
    one as "module.name"; relative modules keep no leading dots."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    return imported


class TestIndependence:
    def test_oracle_imports_no_algebraic_route(self):
        """The oracle is ground truth only while it shares no code with the
        routes it checks."""
        imported = imported_names(oracle)
        parts = {p for name in imported for p in name.split(".")}
        assert not parts & {"pgd", "formulas", "rootcert"}, sorted(imported)


class TestCliImports:
    def test_cli_imports_no_part_of_the_certificate_walk(self):
        """``certificate_chain`` owns the walk: which certificates each
        pair merges, and what each step keeps.  The CLI takes no private
        name from the package and no ``isolate_roots``, so it can only
        certify and format.  Nor does it import ``dataclasses``, which the
        package does not load at all (``test_stdlib_only``): its records
        are NamedTuples or classes with their own constructors."""
        imported = {n.removeprefix("clawgenus.") for n in imported_names(cli)}
        package = {"errors", "formulas", "oracle", "pgd", "polynomials", "rootcert"}
        private = {n for n in imported if n.split(".")[0] in package
                   and n.rsplit(".", 1)[-1].startswith("_")}
        walk = {n for n in imported
                if n.split(".")[0] == "dataclasses" or n.endswith(".isolate_roots")}
        assert not private | walk, sorted(private | walk)

    def test_cli_imports_no_pool_machinery(self):
        """The oracle owns its workers: ``enumerate_pgd`` decides at
        ``DEFAULT_CAP`` whether they pay, and opens and closes its own pool.
        The CLI imports no ``multiprocessing`` and names no pool."""
        tree = ast.parse(Path(cli.__file__).read_text())
        names = {part for name in imported_names(cli) for part in name.split(".")}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
        pools = {n for n in names - {None}
                 if "pool" in n.lower() or n in {"multiprocessing", "concurrent"}}
        assert not pools, sorted(pools)


def attribute_owners(tree: ast.AST, attr: str, scope: str = "") -> set[str]:
    """Qualified names of the functions and classes (dotted, innermost
    last) whose bodies use ``.attr``, or ``attr`` as a bare name; "" stands
    for module level."""
    owners = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owners |= attribute_owners(node, attr, f"{scope}.{node.name}".lstrip("."))
            continue
        if (isinstance(node, ast.Attribute) and node.attr == attr
                or isinstance(node, ast.Name) and node.id == attr):
            owners.add(scope)
        owners |= attribute_owners(node, attr, scope)
    return owners


class TestRootcertSignReads:
    def test_signs_are_read_only_through_the_tables_and_sturm_chains(self):
        """A certified polynomial's signs live in its own memo, read through
        ``IntPoly.sign``, and a Sturm chain reads its own polynomials; any
        other reader would be a second carrier of the same signs, read
        again.  No code of the package but ``IntPoly.sign`` touches the
        memo, so nothing else can fill it with another polynomial's signs."""
        tree = ast.parse(Path(rootcert.__file__).read_text())
        assert attribute_owners(tree, "sign_at") == {"SturmChain.variations"}
        memo = {
            f"{path.stem}:{owner}"
            for path in Path(rootcert.__file__).parent.glob("*.py")
            for owner in attribute_owners(ast.parse(path.read_text()), "_signs")
        }
        assert memo == {"polynomials:IntPoly.sign"}

    def test_no_certificate_path_builds_a_sturm_chain(self):
        """Brackets and Descartes' rule are the only root counters: no code
        of ``rootcert`` outside the class names ``SturmChain``, so none can
        build one, and the class stays the tests' independent reference."""
        tree = ast.parse(Path(rootcert.__file__).read_text())
        assert attribute_owners(tree, "SturmChain") <= {"SturmChain"}


class TestEnumeration:
    def test_dipole_tallies(self):
        assert enumerate_pgd(0).as_polys() == (IntPoly((2,)), IntPoly(), IntPoly((0, 2)))

    @pytest.mark.parametrize("n", range(DEFAULT_CAP + 1))
    def test_matches_engine_componentwise(self, n, monkeypatch):
        """Ground truth at every n up to the cap, in this process."""
        started = spy_pools(monkeypatch)
        o = enumerate_pgd(n)
        v = pgd(n)
        assert o.as_polys() == (v.a, v.b, v.c)
        assert started == []

    def test_matches_engine_at_n5(self, monkeypatch):
        """Ground truth past n = 4: 2^22 systems, split over two workers.
        The blocks run in workers, so the cap is lowered below n."""
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 4)
        started = spy_pools(monkeypatch)
        o = enumerate_pgd(5, jobs=2, acknowledge_cost=True)
        v = pgd(5)
        assert o.as_polys() == (v.a, v.b, v.c)
        assert started == [2]

    def test_total_count(self):
        for n in range(3):
            assert enumerate_pgd(n).embedding_count() == 1 << (4 * n + 2)

    def test_observed_genus_range(self):
        o = enumerate_pgd(3)
        t = o.total()
        lo = (3 + 1) // 2
        assert all(t[i] == 0 for i in range(lo))
        assert all(t[i] > 0 for i in range(lo, 5))

    @pytest.mark.parametrize("lo", range(65))
    def test_blocks_split_at_any_position(self, lo):
        """A block walks a side only in its own configurations, so the
        buckets of two blocks split at configuration lo add up to the whole
        range's, for either side at every k where its configurations reach
        lo; each distinct (first, last, lo), 203 in all, runs once."""
        for first, last in [(0, k) for k in range(7)] + [(k, 6) for k in range(1, 7)]:
            if lo > 1 << (last - first):
                continue
            ports, whole = side(1, first, last)
            lower, upper = side(1, first, last, hi=lo), side(1, first, last, lo=lo)
            assert lower[0] == upper[0] == ports
            assert flat(lower[1]) + flat(upper[1]) == flat(whole)

    @pytest.mark.parametrize("n", range(4))
    def test_upper_half_of_the_positions_tallies_like_the_lower(self, n):
        """The upper half of side B's configurations holds the systems whose
        top bit is 1, the mirrors of the lower half's, so both halves give
        the same tallies and the enumeration reads twice the lower half."""
        k = oracle._split(build_iterated_claw(n))
        half, side_a = 1 << (4 * n + 1 - k), side(n, 0, k)
        lower = tally(n, side_a, side(n, k, hi=half))
        assert tally(n, side_a, side(n, k, lo=half)) == lower
        assert enumerate_pgd(n).tallies == tuple(
            tuple(2 * x for x in row) for row in lower
        )

    def test_every_system_passes_the_euler_check(self):
        for k in range(7):
            with pytest.raises(StructureViolation):
                tally(1, side(1, 0, k), side(1, k), euler_shift=1)

    def test_parallel_runs_agree(self, monkeypatch):
        serial = enumerate_pgd(2, jobs=1)
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 1)
        started = spy_pools(monkeypatch)
        assert enumerate_pgd(2, jobs=2, acknowledge_cost=True) == serial
        assert enumerate_pgd(2, jobs=3, acknowledge_cost=True) == serial
        assert started == [2, 3]
        assert multiprocessing.active_children() == []

    def test_runs_in_this_process_up_to_the_cap(self, monkeypatch, serial_pool):
        """Up to the cap, where the cost needs no acknowledgment, no jobs
        value opens a pool (see ``DEFAULT_CAP``)."""
        for n in range(DEFAULT_CAP + 1):
            enumerate_pgd(n, jobs=MAX_JOBS)
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 1)
        assert enumerate_pgd(1, jobs=2, acknowledge_cost=True) == enumerate_pgd(1)
        assert serial_pool.sizes == []

    def test_starts_no_more_workers_than_chunks(self, monkeypatch, serial_pool):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", -1)
        for n in range(3):
            serial = enumerate_pgd(n, acknowledge_cost=True)
            assert enumerate_pgd(n, jobs=MAX_JOBS, acknowledge_cost=True) == serial
        # the larger side's configurations: side A's 2 at n = 0, side B's
        # 2^4 with the mirror bit 0 at n = 1, side A's 2^5 at n = 2, whose
        # vertices 0..4 reach the pool in blocks as much as side B's
        assert serial_pool.sizes == [2, 16, 32]
        assert [b[4] for b in serial_pool.blocks if b[2:4] == (0, 5)] == [
            range(j, j + 1) for j in range(32)]

    def test_cap_refusal_mentions_cost(self):
        with pytest.raises(OracleCapExceeded) as exc:
            enumerate_pgd(DEFAULT_CAP + 1)
        assert str(1 << (4 * (DEFAULT_CAP + 1) + 2)) in str(exc.value)
        assert str(exc.value).endswith(
            "pass --acknowledge-cost (acknowledge_cost=True) to proceed"
        )

    def test_cap_is_the_documented_n_6(self):
        """The README's cap, in literals: n = 6 runs unacknowledged, n = 7
        is refused before any work."""
        assert enumerate_pgd(6).n == 6
        with pytest.raises(OracleCapExceeded, match=(
                r"^n=7 needs 1073741824 rotation systems \(cap is n=6\); ")):
            enumerate_pgd(7)

    def test_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 1)
        with pytest.raises(OracleCapExceeded):
            enumerate_pgd(2)
        assert enumerate_pgd(2, acknowledge_cost=True).n == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_pgd(-1)
        with pytest.raises(ValueError):
            enumerate_pgd(1, jobs=0)

    def test_rejects_jobs_above_the_ceiling_before_any_pool(self, monkeypatch, serial_pool):
        assert MAX_JOBS >= 64
        with pytest.raises(ValueError):
            enumerate_pgd(0, jobs=MAX_JOBS + 1)
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 0)
        with pytest.raises(ValueError):
            enumerate_pgd(1, jobs=MAX_JOBS + 1, acknowledge_cost=True)
        assert serial_pool.sizes == []
