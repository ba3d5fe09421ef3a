"""Brute-force embedding oracle for iterated claws.

Builds the iterated-claw multigraph by repeated claw attachment, enumerates
every rotation system, traces face-boundary walks, and tallies embeddings by
genus and by root class.  This is the ground truth the algebraic routes are
measured against: it shares no code with them beyond integer arithmetic.

Every vertex of an iterated claw is 3-valent, so each vertex has exactly
(3-1)! = 2 cyclic orders and a full rotation system is one bit per vertex;
the whole enumeration is a (4n+2)-bit counter, which partitions trivially
across workers by index range.  One face-walk loop, ``_walks``, serves both
the per-system functions (``face_trace``, ``root_class``) and the
enumeration.  A command that enumerates several indices opens one pool
with ``worker_pool`` and hands it to every ``enumerate_pgd`` call, so the
workers start once per command, not once per index.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool

from .errors import ClawgenusError, OracleCapExceeded, StructureViolation
from .polynomials import IntPoly

#: Largest n enumerated without an explicit cost acknowledgment.
DEFAULT_CAP = 4
CAP_ENV_VAR = "CLAWGENUS_ORACLE_CAP"
#: Most blocks one enumeration splits into, and so most worker processes.
MAX_JOBS = 64

ROOT_CLASSES = ("a", "b", "c")


class MultiGraph:
    """Connected multigraph with dart-level incidence.

    Edge i owns darts 2i and 2i+1; a dart's partner is ``dart ^ 1``.
    Parallel edges are first-class citizens (the three-edge dipole needs
    them), which is why incidence is stored per dart, not per neighbor.
    """

    __slots__ = ("num_vertices", "edges", "root", "incidence", "dart_vertex")

    def __init__(self, num_vertices: int, edges, root: int):
        self.num_vertices = num_vertices
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (int(u), int(v)) for u, v in edges
        )
        self.root = root
        incidence: list[list[int]] = [[] for _ in range(num_vertices)]
        dart_vertex: list[int] = []
        for i, (u, v) in enumerate(self.edges):
            incidence[u].append(2 * i)
            incidence[v].append(2 * i + 1)
            dart_vertex.extend((u, v))
        self.incidence = tuple(tuple(ds) for ds in incidence)
        self.dart_vertex = tuple(dart_vertex)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_darts(self) -> int:
        return 2 * len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])


def build_iterated_claw(n: int) -> MultiGraph:
    """Iterated-claw multigraph after n claw attachments.

    Starts from the dipole (two vertices, three parallel edges, root 0) and,
    per attachment, splits each root edge with a fresh midpoint vertex and
    joins the three midpoints to a fresh root.  The result has 4n+2
    vertices, 6n+3 edges, and every vertex 3-valent.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    edges: list[tuple[int, int]] = [(0, 1), (0, 1), (0, 1)]
    root = 0
    num_vertices = 2
    for _ in range(n):
        incident = [i for i, (u, v) in enumerate(edges) if root in (u, v)]
        assert len(incident) == 3
        midpoints = []
        for ei in incident:
            u, v = edges[ei]
            other = v if u == root else u
            w = num_vertices
            num_vertices += 1
            midpoints.append(w)
            edges[ei] = (other, w)
            edges.append((w, root))
        new_root = num_vertices
        num_vertices += 1
        for w in midpoints:
            edges.append((w, new_root))
        root = new_root
    return MultiGraph(num_vertices, edges, root)


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic order of darts at each vertex."""

    orders: tuple[tuple[int, ...], ...]

    @classmethod
    def from_bits(cls, graph: MultiGraph, bits: int) -> RotationSystem:
        """Decode one enumeration index: bit v swaps the last two darts of
        vertex v's incidence order (3-valent vertices only)."""
        orders = []
        for v, darts in enumerate(graph.incidence):
            if len(darts) == 3 and (bits >> v) & 1:
                darts = (darts[0], darts[2], darts[1])
            orders.append(tuple(darts))
        return cls(tuple(orders))

    def successor_map(self, num_darts: int) -> list[int]:
        succ = [0] * num_darts
        for order in self.orders:
            k = len(order)
            for i, d in enumerate(order):
                succ[d] = order[(i + 1) % k]
        return succ


def _validate_rotation(graph: MultiGraph, rot: RotationSystem) -> None:
    if len(rot.orders) != graph.num_vertices:
        raise ValueError("rotation system does not match the vertex count")
    for v, order in enumerate(rot.orders):
        if sorted(order) != sorted(graph.incidence[v]):
            raise ValueError(f"rotation at vertex {v} is not a permutation "
                             "of its darts")


def _walks(succ0, succ1, dart_vertex, mask, visited, face_of) -> int:
    """Trace every face-boundary walk of one rotation system; return the count.

    A walk steps from a dart to the rotation successor of its partner, read
    from succ1 at vertices whose bit is set in mask, else from succ0.  The
    darts of the k-th face get face_of = k and visited = mask, so a visited
    array stamped with another mask needs no reset.
    """
    faces = 0
    for start in range(len(succ0)):
        if visited[start] == mask:
            continue
        faces += 1
        d = start
        while visited[d] != mask:
            visited[d] = mask
            face_of[d] = faces
            e = d ^ 1
            d = succ1[e] if (mask >> dart_vertex[e]) & 1 else succ0[e]
    return faces


def _faces(graph: MultiGraph, rot: RotationSystem) -> tuple[int, list[int]]:
    """Face count and the face label of each dart of one rotation system."""
    _validate_rotation(graph, rot)
    succ = rot.successor_map(graph.num_darts)
    face_of = [0] * graph.num_darts
    visited = [-1] * graph.num_darts
    return _walks(succ, succ, graph.dart_vertex, 0, visited, face_of), face_of


def face_trace(graph: MultiGraph, rot: RotationSystem) -> tuple[int, int]:
    """Count face-boundary walks and derive the embedding genus.

    Euler's formula gives 2 - V + E - F = 2 * genus.
    """
    faces, _ = _faces(graph, rot)
    doubled = 2 - graph.num_vertices + graph.num_edges - faces
    if doubled < 0 or doubled % 2:
        raise StructureViolation(
            f"face trace gave Euler characteristic residue {doubled}; "
            "the rotation system or trace is corrupt"
        )
    return faces, doubled // 2


def root_class(graph: MultiGraph, rot: RotationSystem) -> str:
    """Classify an embedding by distinct face walks at the root: 'a' for
    three, 'b' for exactly two, 'c' for a single walk incident thrice."""
    _, face_of = _faces(graph, rot)
    distinct = len({face_of[d] for d in graph.incidence[graph.root]})
    return ROOT_CLASSES[3 - distinct]


@dataclass(frozen=True)
class OraclePgd:
    """Enumeration tallies per root class and genus."""

    n: int
    tallies: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def class_poly(self, cls: str) -> IntPoly:
        return IntPoly(self.tallies[ROOT_CLASSES.index(cls)])

    def as_polys(self) -> tuple[IntPoly, IntPoly, IntPoly]:
        return tuple(IntPoly(t) for t in self.tallies)

    def total(self) -> IntPoly:
        a, b, c = self.as_polys()
        return a + b + c

    def embedding_count(self) -> int:
        return sum(sum(t) for t in self.tallies)

    def validate(self) -> None:
        expected = 1 << (4 * self.n + 2)
        if self.embedding_count() != expected:
            raise StructureViolation(
                f"oracle enumerated {self.embedding_count()} rotation "
                f"systems at n={self.n}, expected {expected}"
            )


def _tally_chunk(args) -> list[list[int]]:
    """Tally one contiguous block of rotation-system indices.

    The hot loop: one ``_walks`` call per system, with one stamped visited
    array reused across the block and no per-system allocation.
    """
    succ0, succ1, dart_vertex, root_darts, euler_base, slots, lo, hi = args
    visited = [-1] * len(succ0)
    face_of = [0] * len(succ0)
    tallies = [[0] * slots for _ in range(3)]
    rd0, rd1, rd2 = root_darts
    for mask in range(lo, hi):
        doubled = euler_base - _walks(succ0, succ1, dart_vertex, mask, visited, face_of)
        if doubled < 0 or doubled % 2:
            raise StructureViolation("impossible Euler residue in enumeration")
        f0, f1, f2 = face_of[rd0], face_of[rd1], face_of[rd2]
        if f0 != f1 and f0 != f2 and f1 != f2:
            cls = 0
        elif f0 == f1 == f2:
            cls = 2
        else:
            cls = 1
        tallies[cls][doubled // 2] += 1
    return tallies


def oracle_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR, str(DEFAULT_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ClawgenusError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None


def worker_pool(jobs: int, n: int):
    """Context manager giving a pool for ``enumerate_pgd`` at indices up to
    n with ``jobs`` blocks each, or None when one process does the work.

    Leaving the context ends the workers.
    """
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be in 1..{MAX_JOBS}")
    workers = min(jobs, 1 << (4 * n + 2))
    return Pool(processes=workers) if workers > 1 else nullcontext()


def enumerate_pgd(
    n: int, jobs: int = 1, acknowledge_cost: bool = False, pool=None
) -> OraclePgd:
    """Exhaustively enumerate all 2^(4n+2) rotation systems of claw n.

    Tallies are per root class and genus.  The result is independent of
    ``jobs`` (1 to ``MAX_JOBS``): blocks are merged by summation.  The
    blocks run in ``pool`` when one is given (see ``worker_pool``), else in
    a pool of their own that closes on return.  Enumeration above the cap
    (default 4, override via the CLAWGENUS_ORACLE_CAP environment variable)
    is refused unless ``acknowledge_cost`` is set.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be in 1..{MAX_JOBS}")
    cap = oracle_cap()
    total = 1 << (4 * n + 2)
    if n > cap and not acknowledge_cost:
        raise OracleCapExceeded(
            f"n={n} needs {total} rotation systems (cap is n={cap}); "
            "pass an explicit cost acknowledgment to proceed"
        )
    graph = build_iterated_claw(n)
    nd = graph.num_darts
    succ0 = RotationSystem.from_bits(graph, 0).successor_map(nd)
    succ1 = RotationSystem.from_bits(
        graph, (1 << graph.num_vertices) - 1
    ).successor_map(nd)
    euler_base = 2 - graph.num_vertices + graph.num_edges
    slots = n + 2
    root_darts = graph.incidence[graph.root]

    bounds = [total * k // jobs for k in range(jobs + 1)]
    chunks = [
        (succ0, succ1, graph.dart_vertex, root_darts, euler_base, slots, lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    ]
    if len(chunks) == 1:
        results = [_tally_chunk(c) for c in chunks]
    elif pool is not None:
        results = pool.map(_tally_chunk, chunks)
    else:
        with Pool(processes=len(chunks)) as own:
            results = own.map(_tally_chunk, chunks)

    tallies = [[0] * slots for _ in range(3)]
    for part in results:
        for c in range(3):
            for g in range(slots):
                tallies[c][g] += part[c][g]
    out = OraclePgd(n, tuple(tuple(t) for t in tallies))
    out.validate()
    return out
