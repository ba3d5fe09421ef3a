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
left inside are closed there: side A once per enumeration, in the calling
process, and side B per block, a range of its configurations with that bit
0, which workers split above the cap.  Configurations with the same closed
faces, closed root faces and port map share a bucket, and a system's faces
are A's closed faces, B's, and the cycles of the two port maps joined (once
per pair of maps); so each pair of buckets is Euler-checked once and counts
the product of their sizes (meet in the middle: Horowitz and Sahni, J. ACM
21, 1974).  One face-walk loop, ``_walk``, serves the sides, the join and
the per-system functions (``face_trace``, ``root_class``), which walk the
whole graph as one region.

``DEFAULT_CAP`` is the one threshold of the enumeration.  Up to it, the
whole range is one block tallied in the calling process, since workers do
not pay there (measured at the constant).  Above it, the caller must
acknowledge the cost with ``acknowledge_cost=True``, which
``--acknowledge-cost`` sets on the command line (the one way past the cap),
and the blocks run in a pool that the call opens and closes itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OracleCapExceeded, StructureViolation
from .polynomials import IntPoly

#: Largest n enumerated without a cost acknowledgment, and in one process
#: whatever ``jobs`` is.  On a 2-core host (Python 3.11) one process takes
#: 7 ms at n = 4, 27-40 ms at n = 5, 0.10-0.13 s at n = 6, 0.50-0.76 s at
#: n = 7 and 1.4-1.9 s at n = 8; a pool of two 18-21 ms, 33-38 ms,
#: 0.09-0.11 s, 0.30-0.43 s and 1.3-1.4 s.  Workers pay only above n = 6, and
#: little at n = 8, where side A's 2^17 walks run serially in the caller.
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
    """Walk one side, vertices first..last-1, in each of its configurations.

    The side owns the darts whose face-map entry its rotations set, those
    whose partner sits at one of its vertices; bit v - first of a
    configuration is vertex v's bit, which swaps the last two darts of
    vertex v (see RotationSystem.from_bits).  Its ports are the owned darts
    that start on the other side, where faces come in.  Per configuration
    the walks run from every port first, then close the faces left inside.
    Returns (ports, maps, buckets): the ports, the distinct port maps in
    order of first appearance, each a tuple of (dart where the walk from
    that port leaves, whether it passed a root dart), and the number of
    configurations per (closed faces, closed root faces, port map index).
    """
    heads = [(d0 ^ 1, d1 ^ 1, d2 ^ 1) for d0, d1, d2 in incidence]
    succs = [((d1, d2, d0), (d2, d0, d1)) for d0, d1, d2 in incidence]
    at = {d: v for v, darts in enumerate(incidence) for d in darts}
    root = [int(d in root_darts) for d in range(len(at))]
    owned = [first <= at[d ^ 1] < last for d in range(len(at))]
    ports = [d for d in range(len(at)) if owned[d] and not first <= at[d] < last]
    starts = ports + [d for d in range(len(at)) if owned[d]]
    nxt, visited = [0] * len(at), [-1] * len(at)
    maps: dict[tuple, int] = {}
    buckets: dict[tuple[int, int, int], int] = {}
    for c in configs:
        for v in range(first, last):
            e0, e1, e2 = heads[v]
            nxt[e0], nxt[e1], nxt[e2] = succs[v][(c >> (v - first)) & 1]
        exits, faces, root_faces = _walk(nxt, root, owned, starts, visited, c)
        key = (faces, root_faces, maps.setdefault(tuple(exits), len(maps)))
        buckets[key] = buckets.get(key, 0) + 1
    return ports, list(maps), buckets


def _join(ports_a, maps_a, ports_b, maps_b, size) -> list[list[tuple[int, int]]]:
    """Faces and root faces across the cut for each pair of port maps, B's
    index first: the cycles of the two maps followed in turn, each walk of
    one side leaving through a port of the other.  size is the number of
    darts.  Each map's exits must be the other side's ports, or a walk
    could cycle without its start, so any other map raises first."""
    for maps, other in ((maps_a, ports_b), (maps_b, ports_a)):
        if any(sorted(e for e, _ in pmap) != sorted(other) for pmap in maps):
            raise StructureViolation("a port map leaves through darts that are not ports")
    joined = []
    for map_b in maps_b:
        row = []
        for map_a in maps_a:
            nxt, root = [0] * size, [0] * size
            for ports, pmap in ((ports_a, map_a), (ports_b, map_b)):
                for p, (e, touched) in zip(ports, pmap):
                    nxt[p], root[p] = e, touched
            row.append(_walk(nxt, root, [True] * size, ports_a + ports_b, [-1] * size, 0)[1:])
        joined.append(row)
    return joined


def _tally_chunk(args) -> list[list[int]]:
    """Tally the systems (b << k) | a with b_lo <= b < b_hi, every a.

    System s = (b << k) | a sets vertices 0..k-1 (side A) by a and the
    rest (side B) by b.  Each side is walked once per configuration into
    buckets (``_side``): A's 2^k by the caller, once for all blocks, and
    here B's b_lo..b_hi-1.  The cut between the sides is small, so few
    distinct port maps come out, and ``_join`` joins each pair of them once.
    Each pair of buckets then gets its face and root face counts, A's
    closed faces plus B's plus the joined ones, its Euler and root class
    checks, and count_a * count_b systems at its genus and class: 12 x 154
    pairs at n = 7.  Any range of B and k in 0..V work; ``enumerate_pgd``
    passes B's configurations with the mirror bit 0 and doubles the tallies.
    """
    incidence, root_darts, euler_base, slots, k, (ports_a, maps_a, side_a), b_lo, b_hi = args
    size = sum(map(len, incidence))
    ports_b, maps_b, side_b = _side(incidence, root_darts, k, len(incidence),
                                    range(b_lo, b_hi))
    joined = _join(ports_a, maps_a, ports_b, maps_b, size)
    tallies = [[0] * slots for _ in range(3)]
    for (faces_b, roots_b, ib), count_b in side_b.items():
        for (faces_a, roots_a, ia), count_a in side_a.items():
            faces, roots = joined[ib][ia]
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
    (see the module docstring).  Up to ``DEFAULT_CAP``, read at call time,
    the systems are one block tallied in this process, whatever ``jobs``
    (1 to ``MAX_JOBS``) is: 0.1 s at n = 6.  Above it, enumeration is
    refused unless ``acknowledge_cost`` is set, and side B's 2^(V-k-1)
    configurations with the mirror bit 0, for k = ``_split``, divide into
    ``jobs`` blocks, or one apiece if fewer.  More than one block runs in a pool of one
    worker per block, deaf to SIGINT and closed before the call returns.
    The result is independent of ``jobs``: the blocks' tallies are summed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be in 1..{MAX_JOBS}")
    bits = 4 * n + 2
    if n <= DEFAULT_CAP:
        jobs = 1  # workers do not pay here (see DEFAULT_CAP)
    elif not acknowledge_cost:
        # Past a few thousand digits, str() of the count itself raises.
        count = 1 << bits if bits <= 64 else f"2^{bits}"
        raise OracleCapExceeded(
            f"n={n} needs {count} rotation systems (cap is n={DEFAULT_CAP}); "
            "pass --acknowledge-cost (acknowledge_cost=True) to proceed"
        )
    graph = build_iterated_claw(n)
    euler_base = 2 - graph.num_vertices + graph.num_edges
    root_darts = graph.incidence[graph.root]

    k = _split(graph)
    side_a = _side(graph.incidence, root_darts, 0, k, range(1 << k))
    configs = 1 << (bits - k - 1)  # side B's with the mirror bit 0
    jobs = min(jobs, configs)
    bounds = [configs * j // jobs for j in range(jobs + 1)]
    chunks = [
        (graph.incidence, root_darts, euler_base, n + 2, k, side_a, lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    if jobs == 1:
        results = [_tally_chunk(chunks[0])]
    else:
        # imported here, so a command at or below the cap loads no multiprocessing
        from multiprocessing import Pool
        from signal import SIG_IGN, SIGINT, signal

        with Pool(jobs, initializer=signal, initargs=(SIGINT, SIG_IGN)) as pool:
            results = pool.map(_tally_chunk, chunks)

    tallies = tuple(tuple(2 * sum(col) for col in zip(*rows)) for rows in zip(*results))
    out = OraclePgd(n, tallies)
    out.validate()
    return out
