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
mirror pair, the indices 0..2^(4n+1)-1 whose top bit is 0, and counts it
twice.  That bit is vertex V-1's, on side B below.

The kernel splits the graph in two: vertices 0..k-1 (side A) and the rest
(side B), with k at the smallest cut, three edges in a claw (the
cut-and-glue view of Gross, Khan and Poshni, Ars Math. Contemp. 3, 2010).
Each side is walked once per configuration of its own vertices, from the
ports where faces come in across the cut to where they leave, and the faces
left inside are closed there.  A block is a range of one side's
configurations (side B's with that bit 0), and ``_side``, which walks it,
is all a worker runs.  Configurations with the same port map, closed faces
and closed root faces share a bucket, so a side's blocks add up bucket by
bucket.  A system's faces are A's closed faces, B's, and the cycles of the
two port maps joined; so ``_tally`` joins the two sides once, walking each
pair of maps once, and each pair of buckets is Euler-checked once and
counts the product of their sizes (meet in the middle: Horowitz and Sahni,
J. ACM 21, 1974).  One face-walk loop, ``_walk``, serves the sides, the
join and the per-system functions (``face_trace``, ``root_class``), which
walk the whole graph as one region.

``DEFAULT_CAP`` is the one threshold of the enumeration.  Up to it, each
side is one block walked in the calling process; that is the policy of
the cap, where the cost needs no acknowledgment, and not where a pool
starts to pay (see the constant).  Above it, the caller must acknowledge
the cost with ``acknowledge_cost=True``, which ``--acknowledge-cost`` sets
on the command line (the one way past the cap), and the blocks run in a
pool that the call opens and closes itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OracleCapExceeded, StructureViolation
from .polynomials import IntPoly

#: Largest n enumerated without a cost acknowledgment, and in one process
#: whatever ``jobs`` is.  On a 2-core host (Python 3.11), in-process, one
#: process takes 27-44 ms at n = 5, 79-95 ms at n = 6, 0.52-0.74 s at n = 7
#: and 1.6-2.3 s at n = 8; a pool of two, which splits both sides, 35-50 ms,
#: 60-74 ms, 0.37-0.47 s and 1.0-1.2 s.  With both sides split, a pool pays
#: from n = 6 on, by 15-20 ms there, so the cap is no longer that break-even:
#: it stays at 6 as the point where a caller must acknowledge the cost.
DEFAULT_CAP = 6
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


def _walk(nxt, root, owned, starts, visited, stamp) -> tuple[list, int, int]:
    """Walk the face map d -> nxt[d] from every start not yet visited.

    A walk runs over owned darts and ends when it comes back to its start,
    which closes a face, or when it reaches a dart that is not owned, which
    it leaves through.  root[d] is 1 for the darts that mark a root face.
    Returns (exits, faces, root_faces): exits lists (dart reached, 1 if the
    walk passed a root dart, else 0) for the walks that left, in the order
    of their starts; faces and root_faces count the closed walks.  Visited
    darts get the value stamp, so no reset is needed between calls.
    """
    exits = []
    faces = root_faces = 0
    for start in starts:
        if visited[start] == stamp:
            continue
        visited[start] = stamp
        touched = root[start]
        d = nxt[start]
        while d != start and owned[d]:
            visited[d] = stamp
            touched |= root[d]
            d = nxt[d]
        if d == start:
            faces += 1
            root_faces += touched
        else:
            exits.append((d, touched))
    return exits, faces, root_faces


def _faces(graph: MultiGraph, rot: RotationSystem) -> tuple[int, int]:
    """Face count and root face count of one rotation system: the whole
    graph walked as one region, with no port to leave through."""
    _validate_rotation(graph, rot)
    succ = rot.successor_map(graph.num_darts)
    nxt = [succ[d ^ 1] for d in range(graph.num_darts)]
    root = [int(d in graph.incidence[graph.root]) for d in range(len(nxt))]
    _, faces, root_faces = _walk(
        nxt, root, [True] * len(nxt), range(len(nxt)), [-1] * len(nxt), 0
    )
    return faces, root_faces


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


def _split(graph: MultiGraph) -> int:
    """Size k of side A, which holds vertices 0..k-1 and leaves k..V-1 to
    side B: the fewest edges across, then the most even split, then the
    least k.  A level-ordered claw has 3-edge cuts, at k = 1, 5, 5, 9 for
    n = 1..4."""
    v = graph.num_vertices
    return min(
        range(1, v),
        key=lambda k: (sum((a < k) != (b < k) for a, b in graph.edges), abs(v - 2 * k)),
    )


def _side(incidence, root_darts, first, last, configs):
    """Walk one side, vertices first..last-1, in each of configs, a range of
    its configurations: the one function a worker runs.

    The side owns the darts whose face-map entry its rotations set, those
    whose partner sits at one of its vertices; bit v - first of a
    configuration is vertex v's bit, which swaps the last two darts of
    vertex v (see RotationSystem.from_bits).  Its ports are the owned darts
    that start on the other side, where faces come in.  Per configuration
    the walks run from every port first, then close the faces left inside.
    Returns (ports, buckets): the ports, and for each port map, a tuple of
    (dart where the walk from that port leaves, whether it passed a root
    dart), the number of its configurations per (closed faces, closed root
    faces).  Keyed by the maps themselves, the buckets of two ranges add up
    to those of their union.
    """
    heads = [(d0 ^ 1, d1 ^ 1, d2 ^ 1) for d0, d1, d2 in incidence]
    succs = [((d1, d2, d0), (d2, d0, d1)) for d0, d1, d2 in incidence]
    at = {d: v for v, darts in enumerate(incidence) for d in darts}
    root = [int(d in root_darts) for d in range(len(at))]
    owned = [first <= at[d ^ 1] < last for d in range(len(at))]
    ports = [d for d in range(len(at)) if owned[d] and not first <= at[d] < last]
    starts = ports + [d for d in range(len(at)) if owned[d]]
    nxt, visited = [0] * len(at), [-1] * len(at)
    buckets: dict[tuple, dict[tuple[int, int], int]] = {}
    for c in configs:
        for v in range(first, last):
            e0, e1, e2 = heads[v]
            nxt[e0], nxt[e1], nxt[e2] = succs[v][(c >> (v - first)) & 1]
        exits, faces, root_faces = _walk(nxt, root, owned, starts, visited, c)
        key, counts = (faces, root_faces), buckets.setdefault(tuple(exits), {})
        counts[key] = counts.get(key, 0) + 1
    return ports, buckets


def _tally(side_a, side_b, euler_base, slots) -> list[list[int]]:
    """Tally per root class and genus the systems that pair each bucket of
    side A with each of side B, both (ports, buckets) as ``_side`` gives
    them for vertices 0..k-1 and k..V-1, and euler_base = 2 - V + E.

    Each map's exits must be the other side's ports, or a walk could cycle
    without its start, so any other map raises before anything walks.  Per
    pair of port maps, one walk follows their cycles across the cut, each
    walk of one side leaving through a port of the other.  Each pair of
    buckets then gets its face and root face counts, A's closed faces plus
    B's plus the joined ones, its Euler and root class checks, and
    count_a * count_b systems at its genus and class.
    """
    (ports_a, buckets_a), (ports_b, buckets_b) = side_a, side_b
    for buckets, other in ((buckets_a, ports_b), (buckets_b, ports_a)):
        if any(sorted(e for e, _ in pmap) != sorted(other) for pmap in buckets):
            raise StructureViolation("a port map leaves through darts that are not ports")
    starts = ports_a + ports_b
    size = max(starts, default=0) + 1  # a joined walk reaches only ports
    nxt, root, owned = [0] * size, [0] * size, [True] * size
    tallies = [[0] * slots for _ in ROOT_CLASSES]
    for map_a, counts_a in buckets_a.items():
        for map_b, counts_b in buckets_b.items():
            for ports, pmap in ((ports_a, map_a), (ports_b, map_b)):
                for p, (e, touched) in zip(ports, pmap):
                    nxt[p], root[p] = e, touched
            _, faces, roots = _walk(nxt, root, owned, starts, [-1] * size, 0)
            for (faces_a, roots_a), count_a in counts_a.items():
                for (faces_b, roots_b), count_b in counts_b.items():
                    doubled = euler_base - faces_a - faces_b - faces
                    cls = 3 - roots_a - roots_b - roots
                    if doubled < 0 or doubled & 1:
                        raise StructureViolation("impossible Euler residue in enumeration")
                    if not 0 <= cls <= 2:
                        raise StructureViolation(f"{3 - cls} root faces in enumeration; "
                                                 "the root has 1 to 3")
                    tallies[cls][doubled >> 1] += count_a * count_b
    return tallies


def enumerate_pgd(n: int, jobs: int = 1, acknowledge_cost: bool = False) -> OraclePgd:
    """Exhaustively tally all 2^(4n+2) rotation systems of claw n.

    Tallies are per root class and genus.  Each of the 2^(4n+1) traced
    systems counts twice, once for itself and once for its mirror image
    (see the module docstring).  Side A's 2^k configurations, for
    k = ``_split``, and side B's 2^(V-k-1) with the mirror bit 0 each divide
    into ``jobs`` (1 to ``MAX_JOBS``) blocks, or one apiece if fewer, and
    each block is walked by ``_side``.  Up to ``DEFAULT_CAP``, read at call
    time, there is one block per side, walked in this process whatever
    ``jobs`` is: 0.1 s at n = 6.  Above it, enumeration is refused unless
    ``acknowledge_cost`` is set, and the blocks run in a pool of one worker
    per block of the larger side, deaf to SIGINT and closed before the call
    returns.  Each side's blocks add up bucket by bucket, and ``_tally``
    joins the two sides once, so the result is independent of ``jobs``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be in 1..{MAX_JOBS}")
    bits = 4 * n + 2
    if n <= DEFAULT_CAP:
        jobs = 1  # one block per side (see DEFAULT_CAP)
    elif not acknowledge_cost:
        # Past a few thousand digits, str() of the count itself raises.
        count = 1 << bits if bits <= 64 else f"2^{bits}"
        raise OracleCapExceeded(
            f"n={n} needs {count} rotation systems (cap is n={DEFAULT_CAP}); "
            "pass --acknowledge-cost (acknowledge_cost=True) to proceed"
        )
    graph = build_iterated_claw(n)
    root_darts = graph.incidence[graph.root]

    k, v = _split(graph), graph.num_vertices
    sides = ((0, k, 1 << k), (k, v, 1 << (v - k - 1)))  # side B's with the mirror bit 0
    parts = [min(jobs, configs) for _, _, configs in sides]
    blocks = [(graph.incidence, root_darts, first, last,
               range(configs * j // p, configs * (j + 1) // p))
              for (first, last, configs), p in zip(sides, parts) for j in range(p)]
    if max(parts) == 1:
        walked = [_side(*block) for block in blocks]
    else:
        # imported here, so a command at or below the cap loads no multiprocessing
        from multiprocessing import Pool
        from signal import SIG_IGN, SIGINT, signal

        # one worker per block of the larger side
        with Pool(max(parts), initializer=signal, initargs=(SIGINT, SIG_IGN)) as pool:
            walked = pool.starmap(_side, blocks)

    summed = []  # each side's first block, with its later blocks added into it
    for walks in (walked[:parts[0]], walked[parts[0]:]):
        ports, buckets = walks[0]
        for _, more in walks[1:]:
            for pmap, counts in more.items():
                into = buckets.setdefault(pmap, {})
                for key, count in counts.items():
                    into[key] = into.get(key, 0) + count
        summed.append((ports, buckets))
    tallies = _tally(*summed, 2 - v + graph.num_edges, n + 2)
    out = OraclePgd(n, tuple(tuple(2 * x for x in row) for row in tallies))
    out.validate()
    return out
