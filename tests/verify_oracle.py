"""The checks the verifier used before it was rebuilt to do less work.

Kept unchanged as the reference that `tests/test_verify_differential.py`
compares `minvenn.verify` against: the union-find curve checks (2n
union-finds, one per side of every curve, and one full face sweep per
direction) and the face-pairs check that judges every face, not every
distinct flip word.  Since the rotation became a list of 2^n rows, the
union-finds hold the graph's vertices, the rows that are not empty.
"""

from __future__ import annotations

from minvenn.plane_graph import PlaneDualGraph, trace_faces
from minvenn.verify import CheckResult, face_condition_ok


class UnionFind:
    def __init__(self, items) -> None:
        self.parent = {x: x for x in items}
        self.count = len(self.parent)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
            self.count -= 1


def check_connected(g: PlaneDualGraph) -> CheckResult:
    uf = UnionFind(g.vertices())
    for u, nbrs in enumerate(g.rotation):
        for v in nbrs:
            uf.union(u, v)
    if uf.count == 1:
        return CheckResult("connected", True)
    return CheckResult("connected", False, f"{uf.count} components")


def face_cycle(g: PlaneDualGraph, j: int):
    """Cyclic order of faces along curve j, or (None, problem).

    Returns (cycle, None) where cycle is a list of (face_index, edge) pairs;
    crossing `edge` leads from that face to the next one in the list.
    """
    faces = trace_faces(g)
    edge_key = lambda u, v: (u, v) if u < v else (v, u)
    incident: dict[int, list[tuple[int, int]]] = {}
    by_edge: dict[tuple[int, int], list[int]] = {}
    for idx, f in enumerate(faces):
        for t, d in enumerate(f.flips):
            if d != j:
                continue
            e = edge_key(f.vertices[t], f.vertices[(t + 1) % len(f)])
            incident.setdefault(idx, []).append(e)
            by_edge.setdefault(e, []).append(idx)
    if not incident:
        return None, f"direction {j} appears on no face"
    for idx, es in incident.items():
        if len(es) != 2 or es[0] == es[1]:
            return None, f"face {idx} carries {len(es)} edges of direction {j}"
    for e, fs in by_edge.items():
        if len(fs) != 2 or fs[0] == fs[1]:
            return None, f"edge {e} of direction {j} borders faces {fs}"

    start = min(incident)
    cycle = []
    cur_face = start
    cur_edge = min(incident[start])
    while True:
        cycle.append((cur_face, cur_edge))
        nxt_face = next(fi for fi in by_edge[cur_edge] if fi != cur_face)
        nxt_edge = next(e for e in incident[nxt_face] if e != cur_edge)
        cur_face, cur_edge = nxt_face, nxt_edge
        if (cur_face, cur_edge) == (start, min(incident[start])):
            break
        if len(cycle) > len(incident):
            return None, f"direction {j} face walk does not close"
    if len(cycle) != len(incident):
        return None, (
            f"direction {j} splits into several closed curves "
            f"({len(cycle)} of {len(incident)} faces reached)"
        )
    return cycle, None


def check_curves(g: PlaneDualGraph) -> CheckResult:
    """Inside and outside of every curve connected; each curve one closed cycle."""
    n = g.n
    for j in range(1, n + 1):
        jbit = 1 << (j - 1)
        for side_name, keep in (("inside", True), ("outside", False)):
            side = [v for v in g.vertices() if bool(v & jbit) == keep]
            uf = UnionFind(side)
            member = set(side)
            for u in side:
                for v in g.rotation[u]:
                    if v in member:
                        uf.union(u, v)
            if uf.count != 1:
                return CheckResult(
                    "curves-simple",
                    False,
                    f"direction {j}: {side_name} splits into {uf.count} components",
                )
        _cycle, problem = face_cycle(g, j)
        if problem:
            return CheckResult("curves-simple", False, problem)
    return CheckResult("curves-simple", True)



def check_faces(g: PlaneDualGraph) -> CheckResult:
    """Every face has even length 2L with exactly two edges of L directions."""
    for idx, f in enumerate(trace_faces(g)):
        if not face_condition_ok(f.flips, g.n):
            return CheckResult(
                "faces-direction-pairs", False, f"face {idx} with flips {f.flips}"
            )
    return CheckResult("faces-direction-pairs", True)
