"""The face trace against the trace it replaced, kept in `trace_oracle`.

Both must give the same faces, in the same order, and the same outer face
on every build n = 8..17, and the same exception, type and message, on
every mutant of the n = 8 and n = 9 builds that `mutate` makes.  A
rotation that lists a neighbor twice is where the two part on purpose: the
oracle keyed traced edges by their ends, so the repeat looked traced and
could go unnoticed; the library's trace marks each rotation slot and
always raises.  It also bounds the degrees by n, which the oracle never
did.  The rotation is a list of 2^n rows, so a neighbor -1 reads the last
row and a neighbor 2^n reads none; both, and a neighbor that is no
hypercube neighbor, raise InconsistentRotation in both traces.  On every
mutant and every edit, the library's trace raises exactly when
`rotation_problems` names a defect.
"""

import pytest

import trace_oracle as oracle
from minvenn.doubling import double
from minvenn.plane_graph import InconsistentRotation, PlaneDualGraph, rotation_problems, trace_faces
from test_verify_differential import MUTATIONS, mutate


def fresh(g: PlaneDualGraph) -> PlaneDualGraph:
    return PlaneDualGraph(g.n, g.rotation, g.outer_edge, g.construction)


def outcome(trace, g: PlaneDualGraph):
    """(faces, outer face index), or the exception's type and message."""
    try:
        return trace(g)
    except ValueError as exc:
        return type(exc), str(exc)


def library(g: PlaneDualGraph):
    faces = trace_faces(g)
    return list(faces), g._outer_face


def assert_raised_iff_problems(g: PlaneDualGraph, raised: bool) -> None:
    assert raised == bool(rotation_problems(g.rotation, g.n))


@pytest.fixture(scope="module")
def builds(dual16, doubling_chain):
    # The n = 8 build again, with each row a list rather than a tuple.
    listed = [list(nbrs) for nbrs in doubling_chain[8].rotation]
    return {
        **doubling_chain,
        16: dual16,
        17: double(dual16),
        "8-list-rows": PlaneDualGraph(8, listed, doubling_chain[8].outer_edge),
    }


@pytest.mark.parametrize("n", [*range(8, 18), "8-list-rows"])
def test_build_traces_as_the_oracle(builds, n):
    g = builds[n]
    faces, outer = library(fresh(g))
    assert (faces, outer) == oracle.trace_faces(g)
    assert outer is not None and len(faces[outer]) == 2 * g.n


def test_mutants_raise_as_the_oracle(dual8, doubling_chain):
    kinds = set()
    count = 0
    for g in (dual8, doubling_chain[9]):
        for v in range(1 << g.n):
            for kind in MUTATIONS:
                mutant = mutate(g, v, kind)
                got = outcome(library, mutant)
                assert got == outcome(oracle.trace_faces, mutant), (kind, v)
                assert_raised_iff_problems(mutant, isinstance(got[0], type))
                kinds.add(got[0] if isinstance(got[0], type) else "faces")
                count += 1
    assert count == 5376
    assert kinds == {"faces", InconsistentRotation}


def edit(g: PlaneDualGraph, v: int, kind: str) -> PlaneDualGraph:
    """A copy of g whose rotation at v is broken in a way mutate never breaks it."""
    rotation = [list(nbrs) for nbrs in g.rotation]
    nbrs = rotation[v]
    if kind == "one-sided":
        nbrs.pop(0)  # v's neighbor still lists v
    elif kind == "self-loop":
        nbrs.insert(1, v)
    elif kind == "negative":
        nbrs.insert(1, -1 - v)
    elif kind == "minus-one":
        nbrs.insert(1, -1)
    elif kind == "two-to-the-n":
        nbrs.insert(1, 1 << g.n)
    elif kind == "non-neighbor":
        nbrs.insert(1, v ^ 3)
    elif kind == "past-the-cap":
        nbrs.insert(1, v ^ 1 << 40)
    elif kind == "above-n":
        nbrs.append(v | 1 << g.n)  # a vertex with no row
    elif kind == "over-degree":
        nbrs += nbrs[:1] * (g.n + 1 - len(nbrs))
    else:
        nbrs.append(nbrs[0])  # a neighbor listed twice, the copies cyclically adjacent
    return PlaneDualGraph(g.n, rotation, g.outer_edge)


@pytest.mark.parametrize(
    "kind", ["one-sided", "self-loop", "negative", "minus-one", "two-to-the-n", "non-neighbor"]
)
def test_inconsistent_rotations_raise_as_the_oracle(dual8, kind):
    # A list reads rotation[-1] as the last row, where a dict raised
    # KeyError; the step to -1 still fails the trace's hypercube-edge test.
    g = dual8
    for v in range(1 << g.n):
        broken = edit(g, v, kind)
        got = outcome(library, broken)
        assert got[0] is InconsistentRotation
        assert got == outcome(oracle.trace_faces, broken), v
        assert_raised_iff_problems(broken, True)


# The message each kind must raise with, where one guard always catches it.
EDIT_MESSAGES = {
    "repeat": None,
    "past-the-cap": None,
    "above-n": r"missing from the rotation at 0x1",
    "over-degree": "a vertex lists more than 8 neighbors",
}


@pytest.mark.parametrize("kind", sorted(EDIT_MESSAGES))
def test_every_rotation_slot_is_walked(dual8, kind):
    # Each slot is walked, so neither a repeated neighbor nor one past the
    # last row can be skipped: a neighbor past bit n has no row to walk
    # into, and the trace's bound refuses a vertex with more than n entries.
    # The oracle's edge keys let every repeat through (its copy looked
    # traced), and it knew no degree bound.
    g = dual8
    passed = 0
    for v in range(1 << g.n):
        broken = edit(g, v, kind)
        with pytest.raises(InconsistentRotation, match=EDIT_MESSAGES[kind]):
            trace_faces(broken)
        assert_raised_iff_problems(broken, True)
        passed += not isinstance(outcome(oracle.trace_faces, broken)[0], type)
    assert passed == (0 if kind in ("past-the-cap", "above-n") else len(g.rotation))
