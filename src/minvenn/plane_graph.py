"""Plane graphs over hypercube vertices, given by an explicit rotation system.

A rotation system assigns each vertex the cyclic order of its incident
edges.  Tracing faces with the standard next-edge rule certifies the
embedding: if the traced face count satisfies Euler's formula on a connected
graph, the rotation describes a sphere embedding.  Graphs are treated as
immutable once built; the face list is computed on first use and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hypercube import edge_direction


class InconsistentRotation(ValueError):
    """The rotation lists do not describe a well-formed embedded graph."""


@dataclass(frozen=True)
class Face:
    """A closed face walk; edge t joins vertices[t] to vertices[t+1 mod length]."""

    vertices: tuple[int, ...]
    flips: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(eq=False)
class PlaneDualGraph:
    """A plane spanning subgraph of Q_n, the dual of a Venn diagram.

    rotation maps each vertex bitmask to the cyclic list of its neighbors.
    outer_edge is a directed edge whose traced face is the outer face.
    construction records (k, m) for graphs built here: a power-of-two base
    build with k levels, doubled m times.  layout gives (ring, position) for
    concentric builds and is None for doubled or imported graphs.
    """

    n: int
    rotation: dict[int, list[int]]
    outer_edge: tuple[int, int]
    construction: tuple[int, int] | None = None
    layout: dict[int, tuple[int, int]] | None = None
    _faces: list[Face] | None = field(default=None, init=False, repr=False)
    _edge_face: dict[tuple[int, int], int] | None = field(default=None, init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlaneDualGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.rotation == other.rotation
            and self.outer_edge == other.outer_edge
            and self.construction == other.construction
            and self.layout == other.layout
        )

    def vertices(self) -> list[int]:
        return sorted(self.rotation)

    @property
    def vertex_count(self) -> int:
        return len(self.rotation)

    def edges(self) -> list[tuple[int, int, int]]:
        """Undirected edges as sorted (u, v, direction) triples with u < v."""
        out = []
        for u, nbrs in self.rotation.items():
            for v in nbrs:
                if u < v:
                    out.append((u, v, edge_direction(u, v)))
        out.sort()
        return out

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.rotation.values()) // 2

    def edge_face_map(self) -> dict[tuple[int, int], int]:
        trace_faces(self)
        assert self._edge_face is not None
        return self._edge_face

    def outer_face_index(self) -> int:
        return self.edge_face_map()[self.outer_edge]


def trace_faces(g: PlaneDualGraph) -> list[Face]:
    """All faces of the embedding; each directed edge is used exactly once."""
    if g._faces is None:
        faces, edge_face = _trace(g.rotation)
        g._faces = faces
        g._edge_face = edge_face
    return g._faces


def _trace(rotation: dict[int, list[int]]) -> tuple[list[Face], dict[tuple[int, int], int]]:
    succ: dict[tuple[int, int], int] = {}
    for v, nbrs in rotation.items():
        deg = len(nbrs)
        for t, u in enumerate(nbrs):
            succ[(u, v)] = nbrs[(t + 1) % deg]

    faces: list[Face] = []
    edge_face: dict[tuple[int, int], int] = {}
    for u in sorted(rotation):
        for v in rotation[u]:
            if (u, v) in edge_face:
                continue
            walk = []
            a, b = u, v
            while True:
                edge_face[(a, b)] = len(faces)
                walk.append(a)
                try:
                    a, b = b, succ[(a, b)]
                except KeyError:
                    raise InconsistentRotation(
                        f"edge ({a:#x}, {b:#x}) missing from the rotation at {b:#x}"
                    ) from None
                if (a, b) == (u, v):
                    break
            flips = tuple(
                edge_direction(walk[t], walk[(t + 1) % len(walk)]) for t in range(len(walk))
            )
            faces.append(Face(tuple(walk), flips))
    return faces, edge_face


def crossing_count(g: PlaneDualGraph) -> int:
    """Number of faces, which equals the crossing count of the primal diagram."""
    return len(trace_faces(g))


def rotation_problems(rotation: dict[int, list[int]], n: int) -> list[str]:
    """Structural defects of the rotation system, as human-readable strings."""
    problems = []
    for v, nbrs in rotation.items():
        if len(set(nbrs)) != len(nbrs):
            problems.append(f"vertex {v:#x} lists a neighbor twice")
        if v >> n:
            problems.append(f"vertex {v:#x} has bits above dimension {n}")
        for u in nbrs:
            diff = u ^ v
            if diff == 0 or diff & (diff - 1):
                problems.append(f"({u:#x}, {v:#x}) is not a hypercube edge")
            elif diff.bit_length() > n:
                problems.append(f"edge ({u:#x}, {v:#x}) has direction above {n}")
            if u not in rotation or v not in rotation.get(u, []):
                problems.append(f"edge ({u:#x}, {v:#x}) missing its reverse entry")
        if problems and len(problems) > 20:
            problems.append("further problems suppressed")
            break
    return problems
