"""Plane graphs over hypercube vertices, given by an explicit rotation system.

A rotation system assigns each vertex the cyclic order of its incident
edges.  Tracing faces with the standard next-edge rule certifies the
embedding: if the traced face count satisfies Euler's formula on a connected
graph, the rotation describes a sphere embedding.  The trace is also the
one test of the rotation: it raises exactly when rotation_problems, which
names the defect, finds one.  It bounds degrees, walks the rotation rows
one pass per face and stops at the first edge it has already traced, so a
malformed rotation cannot make it loop; each entry is walked and tested as
a hypercube edge exactly once, by comparing each face's steps with the
bits of its flip word.  Faces with one flip word share one flips tuple.
While it runs it holds one int of slot marks per vertex, in a list indexed
by vertex.  Graphs are frozen; the trace keeps the face list and the outer
face's index, nothing per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import xor

from .hypercube import MAX_DIMENSION, edge_direction, shown


class InconsistentRotation(ValueError):
    """The rotation lists do not describe a well-formed embedded graph."""


@dataclass(frozen=True, slots=True)
class Face:
    """A closed face walk; edge t joins vertices[t] to vertices[t+1 mod length]."""

    vertices: tuple[int, ...]
    flips: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class PlaneDualGraph:
    """A plane spanning subgraph of Q_n, the dual of a Venn diagram.

    rotation is a list of 2^n rows: row v is the cyclic tuple of vertex v's
    neighbors, and an empty row is a vertex missing from the graph.
    outer_edge is a directed edge whose traced face is the outer face; the
    trace caches the faces, as a tuple, and that face's index, nothing per
    edge, so the rotation must not be changed in place: build_venn(2^k)
    returns one graph per process, and a doubled graph shares the rows it
    leaves alone.  Every graph the library builds or loads has tuple rows;
    dataclasses.replace makes an untraced copy with another rotation.  The
    trace only reads rows, so hand-made list rows work.
    construction records (k, m) for graphs built here: a power-of-two base
    build with k levels, doubled m times.  ring_bases lists the base vertex
    of each concentric ring, outermost first, for concentric builds (ring
    vertex p is base ^ ring_prefixes(n)[p]); it is None for doubled graphs.
    n lies in [1, MAX_DIMENSION], and the rotation is a list of 2^n rows; a
    graph with any other n or rotation is refused when made.
    """

    n: int
    rotation: list[tuple[int, ...]]
    outer_edge: tuple[int, int]
    construction: tuple[int, int] | None = None
    ring_bases: tuple[int, ...] | None = None
    _faces: tuple[Face, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _outer_face: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"a graph needs 1 <= n <= {MAX_DIMENSION}, got {shown(self.n)}")
        if type(self.rotation) is not list or len(self.rotation) != 1 << self.n:
            raise ValueError(f"the rotation must be a list of 2^{self.n} rows, one per vertex")

    def vertices(self) -> list[int]:
        return [v for v, nbrs in enumerate(self.rotation) if nbrs]

    @property
    def vertex_count(self) -> int:
        return len(self.rotation) - sum(1 for nbrs in self.rotation if not nbrs)

    def edges(self) -> list[tuple[int, int, int]]:
        """Undirected edges as sorted (u, v, direction) triples with u < v."""
        return sorted(
            (u, v, edge_direction(u, v)) for u, row in enumerate(self.rotation) for v in row if u < v
        )

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.rotation)) // 2

    def outer_face_index(self) -> int:
        trace_faces(self)
        if self._outer_face is None:
            u, v = self.outer_edge
            raise InconsistentRotation(f"outer_edge ({u:#x}, {v:#x}) is not in the rotation")
        return self._outer_face


def trace_faces(g: PlaneDualGraph) -> tuple[Face, ...]:
    """All faces of the embedding; each directed edge is used exactly once.

    The tuple is cached on g and handed to every caller, so none can change it.
    """
    if g._faces is not None:
        return g._faces
    rotation, n = g.rotation, g.n
    # With this bound the trace raises exactly when rotation_problems is not
    # empty; it also keeps the nbrs.index scans linear.
    if max(map(len, rotation)) > n:
        raise InconsistentRotation(f"a vertex lists more than {n} neighbors")
    # Bit s of done[a] marks the edge from a to rotation[a][s] as traced.  A
    # neighbor listed twice is then two edges into one next edge, so the walk
    # over the second copy cannot close its face.  A neighbor past 2^n raises
    # IndexError in the rotation; a negative one reads a row from the end,
    # but its step's diff is negative, so the face's steps fail the word test.
    faces: list[Face] = []
    done = [0] * len(rotation)
    # Each distinct flip word, with the bit of each of its letters (-1 for a
    # zero step), so the faces share one flips tuple per word.
    words: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
    ou, ov = g.outer_edge
    nbrs = rotation[ou] if 0 <= ou < len(rotation) else ()
    outer_bit = 1 << nbrs.index(ov) if ov in nbrs else 0
    outer = None
    for u in range(len(rotation)):
        row = rotation[u]
        if done[u] == (1 << len(row)) - 1:
            continue
        for i in range(len(row)):
            if done[u] >> i & 1:
                continue
            a, s, nbrs, walk, stuck = u, i, row, [], False
            try:
                while not (mask := done[a]) >> s & 1:
                    done[a] = mask | 1 << s
                    walk.append(a)
                    b = nbrs[s]
                    nbrs = rotation[b]
                    s = nbrs.index(a) + 1
                    if s == len(nbrs):
                        s = 0
                    a = b
            except (IndexError, ValueError):
                stuck = True
            # Step t runs from walk[t] to ends[t]; a stuck walk ends on (a, b).
            # Each step's direction is read off here, once per face, and the
            # steps are hypercube edges exactly when each diff is its letter's bit.
            ends = walk[1:]
            ends.append(b if stuck else a)
            diffs = list(map(xor, walk, ends))
            word = tuple(map(int.bit_length, diffs))
            if (entry := words.get(word)) is None:
                entry = words[word] = (word, [1 << d - 1 if d else -1 for d in word])
            flips, bits = entry
            if bits != diffs:
                t = list(map(int.__eq__, bits, diffs)).index(False)  # the first step off Q_n
                raise InconsistentRotation(
                    f"masks {walk[t]:#x} and {ends[t]:#x} do not span a hypercube edge"
                )
            if stuck:
                raise InconsistentRotation(
                    f"edge ({a:#x}, {b:#x}) missing from the rotation at {b:#x}"
                )
            if (a, s) != (u, i):
                raise InconsistentRotation(
                    f"face walk from ({u:#x}, {row[i]:#x}) runs into the traced "
                    f"edge ({a:#x}, {rotation[a][s]:#x})"
                )
            if outer is None and outer_bit and done[ou] & outer_bit:
                outer = len(faces)
            walk[0] = a  # the closing step's vertex: a row's object, not range's
            faces.append(Face(tuple(walk), flips))
    object.__setattr__(g, "_faces", tuple(faces))
    object.__setattr__(g, "_outer_face", outer)
    return g._faces


def crossing_count(g: PlaneDualGraph) -> int:
    """Number of faces, which equals the crossing count of the primal diagram."""
    return len(trace_faces(g))


def rotation_problems(rotation: list[tuple[int, ...]], n: int) -> list[str]:
    """Structural defects of the rotation, as readable strings, once a trace has raised."""
    problems = []
    for v, nbrs in enumerate(rotation):
        if len(set(nbrs)) != len(nbrs):
            problems.append(f"vertex {v:#x} lists a neighbor twice")
        for u in nbrs:
            diff = u ^ v
            if diff == 0 or diff & (diff - 1):
                problems.append(f"({u:#x}, {v:#x}) is not a hypercube edge")
            elif diff.bit_length() > n:
                problems.append(f"edge ({u:#x}, {v:#x}) has direction above {n}")
            if not (0 <= u < len(rotation) and v in rotation[u]):
                problems.append(f"edge ({u:#x}, {v:#x}) missing its reverse entry")
        if len(problems) > 20:
            problems.append("further problems suppressed")
            break
    return problems
