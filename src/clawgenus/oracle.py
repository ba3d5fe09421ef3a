"""Brute-force embedding oracle for iterated claws.

Builds the iterated-claw multigraph by repeated claw attachment, enumerates
every rotation system, traces face-boundary walks, and tallies embeddings by
genus and by root class.  This is the ground truth the algebraic routes are
measured against: it shares no code with them beyond integer arithmetic.

Every vertex of an iterated claw is 3-valent, so each vertex has exactly
(3-1)! = 2 cyclic orders and a full rotation system is one bit per vertex.
Setting every bit reverses every rotation, which gives the mirror
embedding: its faces are the same walks run backwards, so it has the same
genus and root class.  The enumeration therefore traces one system of each
mirror pair and counts it twice.  It visits positions 0..2^(4n+1)-1 in
Gray-code order: position i traces system i ^ (i >> 1), whose top bit is
0, so consecutive positions differ at one vertex and the kernel rewrites
three entries of its face map per system.  Workers split the range of
positions.  One face-walk loop, ``_trace``, serves both the per-system
functions (``face_trace``, ``root_class``) and the enumeration.  A command
that enumerates several indices opens one pool with ``worker_pool`` and
hands it to every ``enumerate_pgd`` call, so the workers start once per
command, not once per index.

The enumeration refuses n above the module constant ``DEFAULT_CAP``
(2^18 systems at n = 4) unless the caller acknowledges the cost with
``acknowledge_cost=True``, which ``--acknowledge-cost`` sets on the command
line; that is the one way past the cap.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool

from .errors import OracleCapExceeded, StructureViolation
from .polynomials import IntPoly

#: Largest n enumerated without an explicit cost acknowledgment.
DEFAULT_CAP = 4
#: Most blocks one enumeration splits into, and so most worker processes.
MAX_JOBS = 64

ROOT_CLASSES = ("a", "b", "c")


class MultiGraph:
    """Connected multigraph with dart-level incidence.

    Edge i owns darts 2i and 2i+1; a dart's partner is ``dart ^ 1``.
    Parallel edges are first-class citizens (the three-edge dipole needs
    them), which is why incidence is stored per dart, not per neighbor.
    """

    __slots__ = ("num_vertices", "edges", "root", "incidence")

    def __init__(self, num_vertices: int, edges, root: int):
        self.num_vertices = num_vertices
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (int(u), int(v)) for u, v in edges
        )
        self.root = root
        incidence: list[list[int]] = [[] for _ in range(num_vertices)]
        for i, (u, v) in enumerate(self.edges):
            incidence[u].append(2 * i)
            incidence[v].append(2 * i + 1)
        self.incidence = tuple(tuple(ds) for ds in incidence)

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


def _trace(nxt, visited, stamp, root_darts) -> tuple[int, int]:
    """Face count and root face count of one rotation system.

    nxt[d] is the dart after d on its face: the rotation successor of d ^ 1.
    Walks start at the root darts first, so those walks are the distinct
    root faces.  Visited darts get the value stamp, so no reset is needed.
    """
    faces = 0
    for starts in (root_darts, range(len(nxt))):
        root_faces = faces
        for start in starts:
            if visited[start] != stamp:
                faces += 1
                visited[start] = stamp
                d = nxt[start]
                while d != start:
                    visited[d] = stamp
                    d = nxt[d]
    return faces, root_faces


def _faces(graph: MultiGraph, rot: RotationSystem) -> tuple[int, int]:
    """Face count and root face count of one rotation system."""
    _validate_rotation(graph, rot)
    succ = rot.successor_map(graph.num_darts)
    nxt = [succ[d ^ 1] for d in range(graph.num_darts)]
    return _trace(nxt, [-1] * len(nxt), 0, graph.incidence[graph.root])


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
    _, root_faces = _faces(graph, rot)
    return ROOT_CLASSES[3 - root_faces]


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
    """Tally the rotation systems at Gray-code positions lo..hi-1.

    The hot loop.  The face map nxt is built once for the system at lo;
    each later position flips the rotation at one vertex v, which rewrites
    nxt only at the three darts whose partners sit at v.  One stamped
    visited array serves the block.  Any range of positions works;
    ``enumerate_pgd`` passes blocks of the lower half and doubles their
    tallies.
    """
    incidence, root_darts, euler_base, slots, lo, hi = args
    # Bit v swaps the last two darts of vertex v (see RotationSystem.from_bits).
    heads = [(d0 ^ 1, d1 ^ 1, d2 ^ 1) for d0, d1, d2 in incidence]
    succs = [((d1, d2, d0), (d2, d0, d1)) for d0, d1, d2 in incidence]
    nxt = [0] * (3 * len(incidence))
    for v, (e0, e1, e2) in enumerate(heads):  # the system at position lo
        nxt[e0], nxt[e1], nxt[e2] = succs[v][((lo ^ (lo >> 1)) >> v) & 1]
    visited = [-1] * len(nxt)
    tallies = [[0] * slots for _ in range(3)]
    for i in range(lo, hi):
        if i != lo:
            v = (i & -i).bit_length() - 1
            e0, e1, e2 = heads[v]
            nxt[e0], nxt[e1], nxt[e2] = succs[v][((i ^ (i >> 1)) >> v) & 1]
        faces, root_faces = _trace(nxt, visited, i, root_darts)
        doubled = euler_base - faces
        if doubled < 0 or doubled % 2:
            raise StructureViolation("impossible Euler residue in enumeration")
        tallies[3 - root_faces][doubled // 2] += 1
    return tallies


def _traced_bits(n: int) -> int:
    """Bits of the traced Gray-code positions: 0..2^(4n+1)-1 hold one system
    of each mirror pair, half of the 2^(4n+2)."""
    return 4 * n + 1


def worker_pool(jobs: int, n: int):
    """Context manager giving a pool for ``enumerate_pgd`` at indices up to
    n with ``jobs`` blocks each, or None when one process does the work.

    The pool has no more workers than traced positions at n, which is the
    most blocks an enumeration there splits into.  Leaving the context ends
    the workers.
    """
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be in 1..{MAX_JOBS}")
    # 2**MAX_JOBS.bit_length() > MAX_JOBS, and the shift stays small at any n
    workers = min(jobs, 1 << min(_traced_bits(n), MAX_JOBS.bit_length()))
    return Pool(processes=workers) if workers > 1 else nullcontext()


def enumerate_pgd(
    n: int, jobs: int = 1, acknowledge_cost: bool = False, pool=None
) -> OraclePgd:
    """Exhaustively tally all 2^(4n+2) rotation systems of claw n.

    Tallies are per root class and genus.  Each of the 2^(4n+1) traced
    systems counts twice, once for itself and once for its mirror image
    (see the module docstring).  The result is independent of
    ``jobs`` (1 to ``MAX_JOBS``): blocks are merged by summation.  The
    blocks run in ``pool`` when one is given, else in one of their own from
    ``worker_pool`` that closes on return, and in this process when that
    gives None (``jobs`` = 1).  Enumeration above ``DEFAULT_CAP``, read at
    call time, is refused unless ``acknowledge_cost`` is set.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be in 1..{MAX_JOBS}")
    bits = 4 * n + 2
    if n > DEFAULT_CAP and not acknowledge_cost:
        # Past a few thousand digits, str() of the count itself raises.
        count = 1 << bits if bits <= 64 else f"2^{bits}"
        raise OracleCapExceeded(
            f"n={n} needs {count} rotation systems (cap is n={DEFAULT_CAP}); "
            "pass --acknowledge-cost (acknowledge_cost=True) to proceed"
        )
    graph = build_iterated_claw(n)
    euler_base = 2 - graph.num_vertices + graph.num_edges
    slots = n + 2
    root_darts = graph.incidence[graph.root]

    bounds = [(1 << _traced_bits(n)) * k // jobs for k in range(jobs + 1)]
    chunks = [
        (graph.incidence, root_darts, euler_base, slots, lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    ]
    with (nullcontext(pool) if pool is not None else worker_pool(jobs, n)) as run:
        if run is not None:
            results = run.map(_tally_chunk, chunks)
        else:
            results = [_tally_chunk(c) for c in chunks]

    tallies = [[0] * slots for _ in range(3)]
    for part in results:
        for c in range(3):
            for g in range(slots):
                tallies[c][g] += 2 * part[c][g]
    out = OraclePgd(n, tuple(tuple(t) for t in tallies))
    out.validate()
    return out
