"""Independent validation of dual graphs.

A valid dual graph of an n-Venn diagram must (1) span all 2^n hypercube
vertices, (2) be a plane graph in which every face of length 2L carries
exactly two edges of L distinct directions, and (3) for every curve j, G
minus the direction-j edges has exactly two components, one inside curve j
and one outside it, so that both sides of the curve are connected.
Planarity of the explicit rotation system is certified by Euler's formula
on a connected graph; no general planarity test is involved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .bases import _check_level
from .hypercube import MAX_DIMENSION, shown
from .plane_graph import PlaneDualGraph, rotation_problems, trace_faces


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class VerificationReport:
    n: int
    crossings: int
    lower_bound: int
    monotone_reference: int
    expected_crossings: int | None
    face_histogram: dict[int, int]
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "crossings": self.crossings,
            "lower_bound": self.lower_bound,
            "monotone_reference": self.monotone_reference,
            "expected_crossings": self.expected_crossings,
            "face_histogram": {str(k): v for k, v in sorted(self.face_histogram.items())},
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def format_text(self) -> str:
        lines = [f"dual graph over Q_{self.n}: {self.crossings} crossings"]
        lines.append(
            f"  lower bound {self.lower_bound}, monotone reference {self.monotone_reference}"
            + (
                f", construction formula {self.expected_crossings}"
                if self.expected_crossings is not None
                else ""
            )
        )
        hist = " ".join(f"{length}:{cnt}" for length, cnt in sorted(self.face_histogram.items()))
        lines.append(f"  face lengths {hist}")
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" [{c.witness}]" if c.witness else ""
            lines.append(f"  {status}  {c.name}{suffix}")
        lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def lower_bound(n: int) -> int:
    """Minimum crossing count of any n-Venn diagram: ceil((2^n - 2) / (n - 1))."""
    if not 2 <= n <= MAX_DIMENSION:
        raise ValueError(f"lower bound needs 2 <= n <= {MAX_DIMENSION}, got {shown(n)}")
    return -((2 - (1 << n)) // (n - 1))


def monotone_reference(n: int) -> int:
    """Minimum crossings among monotone diagrams, reported for comparison only.

    The n = 1 row is 0 by table convention, not comb(1, 0) = 1.
    """
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"need 1 <= n <= {MAX_DIMENSION}, got {shown(n)}")
    if n == 1:
        return 0
    return comb(n, n // 2)


def expected_crossings(k: int, m: int) -> int:
    """Exact crossing count of the (k, m) construction, from the closed form.

    Integer arithmetic throughout; the k >= 4 expression combines the run
    statistics of the driving path scaled from dimension 2^(k-1).
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {shown(k)}")
    _check_level(k - 1)  # the level of the driving path, as driving_path(k) checks it
    n = 1 << k
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < 2^k, got m={shown(m)}")
    if k == 3:
        base = 2 * ((1 << 8) // 8) - 6 - 2 * 8 - 2  # nu=6, lam=8 from the Q_4 path
    else:
        nhat = n // 2
        mhat = nhat - k - 1
        q, r = divmod(1 << nhat, nhat)
        assert r == 0
        nu = (17 * q // 8 - 4) << mhat
        lam = ((1 << nhat) - 25 * q // 8 + 4) << mhat
        assert 17 * q % 8 == 0 and 25 * q % 8 == 0
        base = 2 * ((1 << n) // n) - nu - 2 * lam - 2
    return base << m


def face_condition_ok(flips, n: int) -> bool:
    """Whether a face walk has length 2L, 2 <= L <= n, with L directions twice each."""
    length = len(flips)
    if length == 0 or length % 2:
        return False
    ell = length // 2
    if not 2 <= ell <= n:
        return False
    counts = Counter(flips)
    return len(counts) == ell and all(c == 2 for c in counts.values())


def check_spanning(g: PlaneDualGraph) -> CheckResult:
    """All 2^n subsets present as vertices: a vertex with an empty row is missing."""
    if all(g.rotation):
        return CheckResult("spanning", True)
    missing = next(v for v, nbrs in enumerate(g.rotation) if not nbrs)
    return CheckResult("spanning", False, f"vertex {missing:#x} missing")


def _component_roots(rotation: list[tuple[int, ...]], skip_bit: int) -> list[int]:
    """First vertex reached in each component, leaving out edges u, v with u ^ v == skip_bit.

    skip_bit 0 keeps every edge.  One iterative walk over a consistent
    rotation, with a seen flag per vertex; a vertex with an empty row is
    missing from the graph and starts no component.
    """
    seen = bytearray(len(rotation))
    roots = []
    for root, row in enumerate(rotation):
        if seen[root] or not row:
            continue
        roots.append(root)
        seen[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v in rotation[u]:
                if not seen[v] and u ^ v != skip_bit:
                    seen[v] = 1
                    stack.append(v)
    return roots


def check_connected(g: PlaneDualGraph) -> CheckResult:
    """G is one component, by the verifier's one walk over the whole graph."""
    count = len(_component_roots(g.rotation, 0))
    if count == 1:
        return CheckResult("connected", True)
    return CheckResult("connected", False, f"{count} components")


def check_euler(g: PlaneDualGraph) -> CheckResult:
    v = g.vertex_count
    e = g.edge_count
    f = len(trace_faces(g))
    if v - e + f == 2:
        return CheckResult("euler", True)
    return CheckResult("euler", False, f"V-E+F = {v}-{e}+{f} = {v - e + f}")


def check_edge_conservation(g: PlaneDualGraph) -> CheckResult:
    """Face tracing must consume each directed edge exactly once.

    This holds whenever the trace succeeds: it walks each rotation slot
    exactly once and raises on a slot without its reverse, so its steps are
    the 2E directed edges.  The check stays as the third clause of the
    sphere that check_curves reads, and the benchmark's report checks and
    pinned outputs name it.
    """
    directed = 2 * g.edge_count
    traced = sum(len(f) for f in trace_faces(g))
    if traced == directed:
        return CheckResult("edge-conservation", True)
    return CheckResult(
        "edge-conservation", False, f"{traced} face steps for {directed} directed edges"
    )


def check_faces(g: PlaneDualGraph) -> CheckResult:
    """Every face has even length 2L with exactly two edges of L directions.

    Each distinct flip word is judged once, at its first face.
    """
    passed: set[tuple[int, ...]] = set()
    for idx, f in enumerate(trace_faces(g)):
        if f.flips not in passed:
            if not face_condition_ok(f.flips, g.n):
                return CheckResult(
                    "faces-direction-pairs", False, f"face {idx} with flips {f.flips}"
                )
            passed.add(f.flips)
    return CheckResult("faces-direction-pairs", True)


def face_edges_by_direction(g: PlaneDualGraph) -> list[list[int]]:
    """One sweep over the faces, sorting every edge step by its direction.

    Entry j lists, for each step of direction j in face order, the face
    index followed by the edge's lower endpoint, as a flat list of ints.
    """
    buckets: list[list[int]] = [[] for _ in range(g.n + 1)]
    for idx, f in enumerate(trace_faces(g)):
        verts = f.vertices
        for d, u, v in zip(f.flips, verts, verts[1:] + verts[:1]):
            buckets[d] += (idx, u if u < v else v)
    return buckets


def face_cycle(bucket: list[int], j: int):
    """Slot order of curve j through its faces, or (None, problem).

    bucket is entry j of face_edges_by_direction.  Returns (slots, None):
    slot s names the face bucket[2s] and the direction-j edge whose lower
    endpoint is bucket[2s + 1], and crossing that edge leads from the face
    to the next slot's face.
    """
    if not bucket:
        return None, f"direction {j} appears on no face"
    # The sweep lists a face's steps together, so a valid face fills the
    # slot pair 2i, 2i + 1.
    idxs, lows = bucket[::2], bucket[1::2]
    heads = idxs[::2]
    if not (
        len(idxs) % 2 == 0
        and heads == idxs[1::2]
        and len(set(heads)) == len(heads)
        and all(map(int.__ne__, lows[::2], lows[1::2]))
    ):
        incident: dict[int, list[int]] = {}
        for idx, low in zip(idxs, lows):
            incident.setdefault(idx, []).append(low)
        for idx, es in incident.items():
            if len(es) != 2 or es[0] == es[1]:
                return None, f"face {idx} carries {len(es)} edges of direction {j}"
    # The trace walks each side of an edge once, so every edge fills two
    # slots of distinct faces, side by side in the sort by edge.  Crossing an
    # edge and leaving a face by its other slot are involutions, so the walk
    # closes; the question is only whether it reaches all faces.
    order = sorted(range(len(lows)), key=lows.__getitem__)
    across = [0] * len(lows)
    for a, b in zip(order[::2], order[1::2]):
        across[a], across[b] = b, a
    start = 0 if lows[0] < lows[1] else 1
    slots = [start]
    slot = across[start] ^ 1
    while slot != start:
        slots.append(slot)
        slot = across[slot] ^ 1
    if len(slots) != len(heads):
        return None, (
            f"direction {j} splits into several closed curves "
            f"({len(slots)} of {len(heads)} faces reached)"
        )
    return slots, None


def check_curves(g: PlaneDualGraph, sphere: bool) -> CheckResult:
    """Inside and outside of every curve connected; each curve one closed cycle.

    Every edge of a direction other than j keeps bit j, so each component
    of G minus the direction-j edges lies on one side of curve j, and bit j
    of its first vertex tells which.

    The rotation is consistent here, and sphere is the caller's verdict that
    the checks connected, euler and edge-conservation all pass, so that the
    graph is a sphere.  Then no per-direction walk is needed: in a graph
    embedded on the sphere an edge set is a minimal cut exactly when its
    duals form one cycle (Whitney 1932; Diestel, Graph Theory, 4.6).  A
    passing face_cycle shows that the duals of the direction-j edges form
    one cycle, so G minus those edges has exactly two components, which the
    direction-j edges join across bit j: one inside and one outside.  The
    per-direction walk runs only where that argument does not apply, and
    its witness comes first, as it would without the shortcut.
    """
    buckets = face_edges_by_direction(g)
    for j in range(1, g.n + 1):
        problem = face_cycle(buckets[j], j)[1]
        if problem or not sphere:
            jbit = 1 << (j - 1)
            roots = _component_roots(g.rotation, jbit)
            inside = sum(1 for v in roots if v & jbit)
            for side, count in (("inside", inside), ("outside", len(roots) - inside)):
                if count != 1:
                    return CheckResult(
                        "curves-simple",
                        False,
                        f"direction {j}: {side} splits into {count} components",
                    )
        if problem:
            return CheckResult("curves-simple", False, problem)
    return CheckResult("curves-simple", True)


def _crossing_check(name: str, ok: bool, witness: str) -> CheckResult:
    return CheckResult(name, ok, None if ok else witness)


def verify_graph(g: PlaneDualGraph) -> VerificationReport:
    """Run the full battery of structural checks and collect a report."""
    n = g.n
    bound = lower_bound(n) if n >= 2 else 0
    monotone = monotone_reference(n)
    expected = None if g.construction is None else expected_crossings(*g.construction)

    # The trace decides the rotation; rotation_problems only names a defect.
    try:
        faces, problem = trace_faces(g), None
    except ValueError:
        faces, problem = [], rotation_problems(g.rotation, n)[0]
    checks = [CheckResult("rotation-consistent", problem is None, problem)]
    crossings = len(faces)
    if problem is None:
        sphere = [check_connected(g), check_euler(g), check_edge_conservation(g)]
        checks += [check_spanning(g), *sphere, check_faces(g)]
        checks.append(check_curves(g, all(c.passed for c in sphere)))
        low = f"{crossings} < {bound}"
        checks.append(_crossing_check("crossings-at-least-lower-bound", crossings >= bound, low))
        if expected is not None:
            off = f"{crossings} != {expected}"
            checks.append(_crossing_check("crossings-match-formula", crossings == expected, off))
    return VerificationReport(
        n=n,
        crossings=crossings,
        lower_bound=bound,
        monotone_reference=monotone,
        expected_crossings=expected,
        face_histogram=dict(Counter(map(len, faces))),
        checks=checks,
    )
