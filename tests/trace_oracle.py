"""The face trace that `plane_graph.trace_faces` ran before its lean rewrite.

Kept unchanged as the reference that `tests/test_trace_differential.py`
compares the library's trace against: it computes each step's direction
with `edge_direction`, once in the scan over the rotation entries and once
in the walk, and keys traced edges by `a << 5 | (direction - 1)`.
Returns the faces and the outer face index instead of caching them.
"""

from __future__ import annotations

from minvenn.hypercube import MAX_DIMENSION, edge_direction
from minvenn.plane_graph import Face, InconsistentRotation, PlaneDualGraph


def trace_faces(g: PlaneDualGraph) -> tuple[list[Face], int | None]:
    rotation = g.rotation
    if rotation and (min(rotation) < 0 or max(rotation) >> MAX_DIMENSION):
        raise InconsistentRotation(f"vertex masks must lie in [0, 2^{MAX_DIMENSION})")
    # Edge (a, b) is traced once a << 5 | (direction - 1) is in the set, one to one
    # under that bound.  An outer edge not in the rotation gets no key: it would alias another.
    faces: list[Face] = []
    traced: set[int] = set()
    ou, ov = g.outer_edge
    outer_key = ou << 5 | ((ou ^ ov).bit_length() - 1) if ov in rotation.get(ou, ()) else -1
    outer = None
    for u in sorted(rotation):
        for v in rotation[u]:
            a, b, d = u, v, edge_direction(u, v)
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
                except (KeyError, ValueError):
                    raise InconsistentRotation(
                        f"edge ({a:#x}, {b:#x}) missing from the rotation at {b:#x}"
                    ) from None
                d = edge_direction(a, b)
            if (a, b) != (u, v):
                raise InconsistentRotation(
                    f"face walk from ({u:#x}, {v:#x}) runs into the traced edge ({a:#x}, {b:#x})"
                )
            if outer is None and outer_key in traced:
                outer = len(faces)
            faces.append(Face(tuple(walk), tuple(flips)))
    return faces, outer
