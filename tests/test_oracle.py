"""Brute-force embedding enumeration against the algebraic engine."""

import pytest

import clawgenus.oracle as oracle
from clawgenus.errors import OracleCapExceeded
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
    worker_pool,
)
from clawgenus.pgd import pgd
from clawgenus.polynomials import IntPoly


class TestBuild:
    @pytest.mark.parametrize("n", range(5))
    def test_counts_and_degrees(self, n):
        g = build_iterated_claw(n)
        assert g.num_vertices == 4 * n + 2
        assert g.num_edges == 6 * n + 3
        assert all(g.degree(v) == 3 for v in range(g.num_vertices))
        assert g.degree(g.root) == 3

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
        for d in range(g.num_darts):
            assert (d ^ 1) != d and ((d ^ 1) ^ 1) == d
            assert g.dart_vertex[d] in g.edges[d // 2]


class TestFaceTrace:
    def test_triangle_is_planar(self):
        tri = MultiGraph(3, [(0, 1), (1, 2), (2, 0)], root=0)
        rot = RotationSystem(tuple(tri.incidence))
        assert face_trace(tri, rot) == (2, 0)

    def test_dipole_rotation_classes(self):
        g = build_iterated_claw(0)
        results = []
        for bits in range(4):
            rot = RotationSystem.from_bits(g, bits)
            faces, genus = face_trace(g, rot)
            results.append((genus, root_class(g, rot)))
        assert sorted(results) == [(0, "a"), (0, "a"), (1, "c"), (1, "c")]

    def test_k33_genus_range(self):
        g = build_iterated_claw(1)
        genera = {
            face_trace(g, RotationSystem.from_bits(g, bits))[1]
            for bits in range(0, 64, 7)
        }
        assert genera <= {1, 2}

    def test_rejects_mismatched_rotation(self):
        g = build_iterated_claw(0)
        with pytest.raises(ValueError):
            face_trace(g, RotationSystem(((0, 1, 2),)))

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
        same tallies as the bit-mask enumeration."""
        g = build_iterated_claw(n)
        tallies = [[0] * (n + 2) for _ in ROOT_CLASSES]
        for bits in range(1 << g.num_vertices):
            rot = RotationSystem.from_bits(g, bits)
            cls = ROOT_CLASSES.index(root_class(g, rot))
            tallies[cls][face_trace(g, rot)[1]] += 1
        assert tuple(map(tuple, tallies)) == enumerate_pgd(n).tallies


class TestEnumeration:
    def test_dipole_tallies(self):
        o = enumerate_pgd(0)
        assert o.class_poly("a") == IntPoly((2,))
        assert o.class_poly("b") == IntPoly()
        assert o.class_poly("c") == IntPoly((0, 2))

    @pytest.mark.parametrize("n", range(4))
    def test_matches_engine_componentwise(self, n):
        o = enumerate_pgd(n)
        v = pgd(n)
        assert o.as_polys() == (v.a, v.b, v.c)

    def test_total_count(self):
        for n in range(3):
            assert enumerate_pgd(n).embedding_count() == 1 << (4 * n + 2)

    def test_observed_genus_range(self):
        o = enumerate_pgd(3)
        t = o.total()
        lo = (3 + 1) // 2
        assert all(t[i] == 0 for i in range(lo))
        assert all(t[i] > 0 for i in range(lo, 5))

    def test_parallel_runs_agree(self):
        serial = enumerate_pgd(2, jobs=1)
        assert enumerate_pgd(2, jobs=2) == serial
        assert enumerate_pgd(2, jobs=3) == serial

    def test_starts_no_more_workers_than_chunks(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(x) for x in items]

        monkeypatch.setattr(oracle, "Pool", SerialPool)
        assert enumerate_pgd(0, jobs=8) == enumerate_pgd(0)  # 4 systems
        assert started == [4]

    def test_cap_refusal_mentions_cost(self):
        with pytest.raises(OracleCapExceeded) as exc:
            enumerate_pgd(DEFAULT_CAP + 1)
        assert str(1 << (4 * (DEFAULT_CAP + 1) + 2)) in str(exc.value)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("CLAWGENUS_ORACLE_CAP", "1")
        with pytest.raises(OracleCapExceeded):
            enumerate_pgd(2)
        assert enumerate_pgd(2, acknowledge_cost=True).n == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_pgd(-1)
        with pytest.raises(ValueError):
            enumerate_pgd(1, jobs=0)

    def test_rejects_jobs_above_the_ceiling_before_any_pool(self, monkeypatch):
        def no_pool(processes):
            raise AssertionError(f"a pool of {processes} was requested")

        monkeypatch.setattr(oracle, "Pool", no_pool)
        assert MAX_JOBS >= 64
        with pytest.raises(ValueError):
            enumerate_pgd(0, jobs=MAX_JOBS + 1)
        with pytest.raises(ValueError):
            worker_pool(MAX_JOBS + 1, 0)
