"""The face trace that `plane_graph.trace_faces` ran before its lean rewrite.

Kept unchanged as the reference that `tests/test_trace_differential.py`
compares the library's trace against: it computes each step's direction
with `edge_direction`, once in the scan over the rotation entries and once
in the walk, and keys traced edges by `a << 5 | (direction - 1)`.
Returns the faces and the outer face index instead of caching them.

Since the rotation became a list of 2^n rows, row v for vertex v, the
oracle reads it as one: its scan enumerates the rows, and a neighbor past
2^n raises IndexError where a missing key raised KeyError.  A step off Q_n
raises InconsistentRotation with `edge_direction`'s message, as the
library's trace does.  Its algorithm is unchanged.
"""

from __future__ import annotations

from minvenn.hypercube import edge_direction
from minvenn.plane_graph import Face, InconsistentRotation, PlaneDualGraph


def _direction(u: int, v: int) -> int:
    try:
        return edge_direction(u, v)
    except ValueError as exc:
        raise InconsistentRotation(str(exc)) from None


def trace_faces(g: PlaneDualGraph) -> tuple[list[Face], int | None]:
    rotation = g.rotation
    # Edge (a, b) is traced once a << 5 | (direction - 1) is in the set, one to one
    # under that bound.  An outer edge not in the rotation gets no key: it would alias another.
    faces: list[Face] = []
    traced: set[int] = set()
    ou, ov = g.outer_edge
    listed = 0 <= ou < len(rotation) and ov in rotation[ou]
    outer_key = ou << 5 | ((ou ^ ov).bit_length() - 1) if listed else -1
    outer = None
    for u, row in enumerate(rotation):
        for v in row:
            a, b, d = u, v, _direction(u, v)
            if a << 5 | (d - 1) in traced:
                continue
            walk, flips = [], []
            while (key := a << 5 | (d - 1)) not in traced:
                traced.add(key)
                walk.append(a)
                flips.append(d)
                try:
                    nbrs = rotation[b]
                    a, b = b, nbrs[nbrs.index(a) + 1 - len(nbrs)]
                except (IndexError, ValueError):
                    raise InconsistentRotation(
                        f"edge ({a:#x}, {b:#x}) missing from the rotation at {b:#x}"
                    ) from None
                d = _direction(a, b)
            if (a, b) != (u, v):
                raise InconsistentRotation(
                    f"face walk from ({u:#x}, {v:#x}) runs into the traced edge ({a:#x}, {b:#x})"
                )
            if outer is None and outer_key in traced:
                outer = len(faces)
            faces.append(Face(tuple(walk), tuple(flips)))
    return faces, outer
