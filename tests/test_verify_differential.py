"""The verifier's connectivity and curve checks against the union-find oracle.

`verify_oracle` keeps the checks the verifier used before they were rebuilt
on one component walk and one face sweep.  Both must give equal results,
witnesses included, on every build n = 8..16 and on fixed mutations of the
n = 8 and n = 9 graphs.  The mutations also pin which checks catch each kind
of defect.
"""

import re
from collections import Counter

import pytest

import verify_oracle as oracle
from minvenn import verify
from minvenn.plane_graph import PlaneDualGraph
from minvenn.verify import CheckResult

MUTATIONS = (
    "swap-first-two",
    "reverse-rotation",
    "delete-edge",
    "drop-vertex",
    "add-edge",
    "non-hypercube-edge",
    "move-edge",
)

# Which checks fail, as a tuple in report order, and on how many of the 128
# mutants of each kind.  An empty tuple is a mutant that is still the same
# diagram: swapping or reversing the rotation of a degree-2 vertex changes
# nothing.  An added edge that splits a face cleanly adds one crossing, and
# only the formula check sees it.  Moving an edge keeps E, so Euler's
# formula fails only where the face count changes; the curve checks catch
# the rest.
CURVES = ("faces-direction-pairs", "curves-simple", "crossings-match-formula")
SOUNDNESS_MAP = {
    "swap-first-two": {("euler", *CURVES): 36, (): 92},
    "reverse-rotation": {("euler", *CURVES): 36, (): 92},
    "delete-edge": {CURVES: 128},
    "drop-vertex": {("spanning", *CURVES): 126, ("spanning", "crossings-match-formula"): 2},
    "add-edge": {("euler", *CURVES): 124, ("crossings-match-formula",): 4},
    "non-hypercube-edge": {("rotation-consistent",): 128},
    "move-edge": {("euler", *CURVES): 122, ("faces-direction-pairs", "curves-simple"): 6},
}


def oracle_report(g: PlaneDualGraph) -> dict:
    """verify_graph's report with the oracle's connectivity and curve checks."""
    with pytest.MonkeyPatch.context() as mp:
        # verify_graph hands check_curves the sphere verdict of three other
        # checks; the oracle decides the curves for itself.
        mp.setattr(verify, "check_connected", lambda g: oracle.check_connected(g))
        mp.setattr(verify, "check_curves", lambda g, _sphere: oracle.check_curves(g))
        return verify.verify_graph(g).to_dict()


def assert_agrees(g: PlaneDualGraph) -> dict[str, CheckResult]:
    """Assert both implementations agree on g; return the oracle's checks by name."""
    want = oracle_report(g)
    assert verify.verify_graph(g).to_dict() == want
    checks = {c["name"]: CheckResult(**c) for c in want["checks"]}
    if "curves-simple" in checks:  # the rotation is consistent, so every check ran
        assert verify.check_connected(g) == checks["connected"]
        assert verify.check_curves(g) == checks["curves-simple"]
    return checks


def mutate(g: PlaneDualGraph, v: int, kind: str) -> PlaneDualGraph:
    """A copy of g with one local defect at vertex v.

    Every kind but non-hypercube-edge keeps the rotation consistent.  The
    three edge insertions put the new neighbor at index 1 on both sides.
    move-edge first deletes the edge to nbrs[0], a ring edge in a concentric
    build, and then adds the edge to the smallest hypercube neighbor that
    was absent before, so the edge count stays the same.
    """
    rotation = {u: list(nbrs) for u, nbrs in g.rotation.items()}
    nbrs = rotation[v]
    if kind in ("add-edge", "non-hypercube-edge", "move-edge"):
        if kind == "non-hypercube-edge":
            w = v ^ 3
        else:
            w = min(v ^ 1 << i for i in range(g.n) if v ^ 1 << i not in nbrs)
        if kind == "move-edge":
            rotation[nbrs.pop(0)].remove(v)
        nbrs.insert(1, w)
        rotation[w].insert(1, v)
    elif kind == "swap-first-two":
        nbrs[0], nbrs[1] = nbrs[1], nbrs[0]
    elif kind == "reverse-rotation":
        nbrs.reverse()
    elif kind == "delete-edge":
        rotation[nbrs.pop(0)].remove(v)
    else:
        for u in rotation.pop(v):
            rotation[u].remove(v)
    return PlaneDualGraph(
        n=g.n, rotation=rotation, outer_edge=g.outer_edge, construction=g.construction
    )


@pytest.fixture(scope="module")
def builds(dual16, doubling_chain):
    return {**doubling_chain, 16: dual16}


@pytest.mark.parametrize("n", range(8, 17))
def test_build_agrees_with_oracle(builds, n):
    g = builds[n]
    checks = assert_agrees(g)
    assert checks["connected"].passed and checks["curves-simple"].passed
    if n <= 12:
        buckets = verify.face_edges_by_direction(g)
        for j in range(1, n + 1):
            assert verify.face_cycle(buckets[j], j) == oracle.face_cycle(g, j)


def test_mutations_agree_with_oracle(dual8, doubling_chain):
    witnesses = set()
    caught = {kind: Counter() for kind in MUTATIONS}
    for g in (dual8, doubling_chain[9]):
        for v in sorted(g.rotation)[:64]:
            for kind in MUTATIONS:
                mutant = mutate(g, v, kind)
                checks = assert_agrees(mutant)
                failed = tuple(name for name, c in checks.items() if not c.passed)
                assert all(checks[name].witness for name in failed)
                caught[kind][failed] += 1
                if "curves-simple" not in checks:
                    continue
                buckets = verify.face_edges_by_direction(mutant)
                for j in range(1, g.n + 1):
                    assert verify.face_cycle(buckets[j], j) == oracle.face_cycle(mutant, j)
                witness = checks["curves-simple"].witness
                if witness:
                    witnesses.add(re.sub(r"\d+", "#", witness))
    assert sum(sum(c.values()) for c in caught.values()) == 896
    for kind, want in SOUNDNESS_MAP.items():
        assert dict(caught[kind]) == want, kind
    assert {
        "direction #: inside splits into # components",
        "direction #: outside splits into # components",
        "face # carries # edges of direction #",
    } <= witnesses
