import dataclasses
from fractions import Fraction

import pytest

import verify_oracle as oracle
from minvenn import verify
from minvenn.builder import partition_preview_graph
from minvenn.export import from_json, to_json
from minvenn.plane_graph import PlaneDualGraph, trace_faces
from minvenn.verify import (
    CheckResult,
    check_connected,
    check_curves,
    check_euler,
    check_faces,
    check_spanning,
    expected_crossings,
    face_condition_ok,
    face_cycle,
    face_edges_by_direction,
    lower_bound,
    monotone_reference,
    verify_graph,
)
from test_verify_differential import mutate

LOWER_BOUNDS = {
    2: 2, 3: 3, 4: 5, 5: 8, 6: 13, 7: 21, 8: 37,
    9: 64, 10: 114, 11: 205, 12: 373, 13: 683, 14: 1261, 15: 2341, 16: 4369,
}

MONOTONE = {
    1: 0, 2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 7: 35, 8: 70,
    9: 126, 10: 252, 11: 462, 12: 924, 13: 1716, 14: 3432, 15: 6435, 16: 12870,
}


def test_lower_bound_table():
    for n, want in LOWER_BOUNDS.items():
        assert lower_bound(n) == want
    with pytest.raises(ValueError):
        lower_bound(1)


def test_monotone_reference_table():
    for n, want in MONOTONE.items():
        assert monotone_reference(n) == want
    with pytest.raises(ValueError):
        monotone_reference(0)


def test_expected_crossings_known_values():
    assert expected_crossings(3, 0) == 40
    assert expected_crossings(3, 7) == 5120
    assert expected_crossings(4, 0) == 5118
    with pytest.raises(ValueError):
        expected_crossings(2, 0)
    with pytest.raises(ValueError):
        expected_crossings(3, 8)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_expected_crossings_matches_closed_form(k):
    n = 1 << k
    closed = (
        1 + Fraction(33, 8 * n) - Fraction(2, 2 ** (n // 2)) - Fraction(2 * n, 2**n)
    ) * Fraction(2**n, n)
    assert closed.denominator == 1
    assert expected_crossings(k, 0) == closed.numerator


def test_face_condition_examples():
    assert face_condition_ok((3, 4, 3, 5, 4, 5), 8)
    assert not face_condition_ok((1, 2, 1, 2, 1, 2), 8)
    assert not face_condition_ok((1, 2, 3), 8)
    assert not face_condition_ok((1, 1), 8)
    assert not face_condition_ok((), 8)


def test_full_report_on_base_build(dual8):
    g = dual8
    report = verify_graph(g)
    assert report.passed
    assert report.crossings == 40
    assert report.lower_bound == 37
    assert report.monotone_reference == 70
    assert report.expected_crossings == 40
    assert report.face_histogram == {16: 30, 14: 2, 10: 8}
    text = report.format_text()
    assert "PASS" in text and "40 crossings" in text
    data = report.to_dict()
    assert data["passed"] is True
    assert data["checks"][0]["name"] == "rotation-consistent"


def test_spanning_failure_has_witness():
    # a single 8-ring in Q_4 misses most vertices
    from minvenn.bases import ring_prefixes

    ring = [m for m in ring_prefixes(4)]
    rotation = {v: [ring[(i + 1) % 8], ring[(i - 1) % 8]] for i, v in enumerate(ring)}
    g = PlaneDualGraph(n=4, rotation=rotation, outer_edge=(ring[0], ring[1]))
    res = check_spanning(g)
    assert not res.passed
    assert "missing" in res.witness
    # a lone ring still traces two faces of full length
    assert len(trace_faces(g)) == 2
    assert check_euler(g).passed
    assert check_faces(g).passed


def test_disjoint_rings_fail_curve_checks():
    g = partition_preview_graph(2)
    assert check_spanning(g).passed
    assert not check_euler(g).passed
    assert check_connected(g) == CheckResult("connected", False, "2 components")
    assert check_curves(g) == CheckResult(
        "curves-simple", False, "direction 1: inside splits into 2 components"
    )
    report = verify_graph(g)
    assert not report.passed


def test_rotation_problems_short_circuit():
    g = PlaneDualGraph(n=2, rotation={0: [1], 1: []}, outer_edge=(0, 1))
    report = verify_graph(g)
    assert not report.passed
    assert report.checks[0].name == "rotation-consistent"
    assert not report.checks[0].passed


def test_face_cycles_per_direction(dual8):
    g = dual8
    faces = trace_faces(g)
    buckets = face_edges_by_direction(g)
    assert len(buckets) == 9 and buckets[0] == []
    for j in range(1, 9):
        cycle, problem = face_cycle(buckets[j], j)
        assert problem is None
        with_j = [idx for idx, f in enumerate(faces) if j in f.flips]
        assert len(cycle) == len(with_j)
        assert sorted(idx for idx, _edge in cycle) == sorted(with_j)
        for idx, (u, v) in cycle:
            assert u < v and u ^ v == 1 << (j - 1)
            assert v in g.rotation[u]
    assert face_cycle([], 3) == (None, "direction 3 appears on no face")


def test_doubled_graph_verifies(doubling_chain):
    report = verify_graph(doubling_chain[9])
    assert report.passed
    assert report.crossings == 80


@pytest.fixture
def walks(monkeypatch):
    """The skip bit of every _component_roots walk the verifier starts."""
    bits = []
    walk = verify._component_roots

    def counted(rotation, skip_bit):
        bits.append(skip_bit)
        return walk(rotation, skip_bit)

    monkeypatch.setattr(verify, "_component_roots", counted)
    return bits


@pytest.mark.parametrize("n", range(8, 17))
def test_curves_on_a_sphere_take_one_walk(dual16, doubling_chain, walks, n):
    g = dual16 if n == 16 else doubling_chain[n]
    assert check_curves(g).passed
    assert walks == [0]


@pytest.mark.parametrize("n", range(8, 13))
def test_duality_shortcut_agrees_with_the_walks(doubling_chain, walks, n):
    # Denied the sphere, check_curves walks every direction and must reach
    # the verdict that duality gives on a valid graph.
    g = doubling_chain[n]
    walked = check_curves(g, sphere=False)
    assert walks == [1 << (j - 1) for j in range(1, n + 1)]
    assert walked == check_curves(g) == CheckResult("curves-simple", True)


def test_curves_off_the_sphere_walk_each_direction(dual8, walks):
    # Disjoint rings fail connectivity, so direction 1 is walked; its inside
    # splits before its face cycle is looked at.
    rings = partition_preview_graph(2)
    witness = check_curves(rings)
    assert walks == [0, 1]
    assert witness == oracle.check_curves(rings)
    assert witness.witness == "direction 1: inside splits into 2 components"
    # An added edge breaks Euler's formula, so every direction is walked up
    # to the one whose face cycle fails, direction 1 included.
    extra = mutate(dual8, 31, "add-edge")
    assert not check_euler(extra).passed
    walks.clear()
    witness = check_curves(extra)
    assert walks == [0, 1, 2]
    assert witness == oracle.check_curves(extra)
    assert witness.witness == "face 3 carries 4 edges of direction 2"


def test_curves_walk_only_where_a_face_cycle_fails(dual8, walks):
    # A deleted edge leaves a connected sphere, so the one walk that follows
    # the shared one is for the direction whose face cycle fails.  That walk
    # finds a split side, and its witness wins over the face cycle's.
    cut = mutate(dual8, 0, "delete-edge")
    assert check_connected(cut).passed and check_euler(cut).passed
    walks.clear()
    witness = check_curves(cut)
    assert walks == [0, 2]
    assert witness == oracle.check_curves(cut)
    assert witness.witness == "direction 2: outside splits into 2 components"
    problem = face_cycle(face_edges_by_direction(cut)[2], 2)[1]
    assert problem == "face 0 carries 4 edges of direction 2"


@pytest.fixture
def rotation_checks(monkeypatch):
    """The n of every rotation_problems call verify_graph makes."""
    calls = []
    check = verify.rotation_problems

    def counted(rotation, n):
        calls.append(n)
        return check(rotation, n)

    monkeypatch.setattr(verify, "rotation_problems", counted)
    return calls


def test_loaded_rotation_is_checked_once(dual8, doubling_chain, rotation_checks):
    for built in (dual8, doubling_chain[9]):
        rotation_checks.clear()
        assert verify_graph(built).passed
        assert rotation_checks == [built.n]
        rotation_checks.clear()
        assert verify_graph(from_json(to_json(built))).passed
        assert rotation_checks == []


def test_rotation_changed_after_loading_is_checked(dual8, rotation_checks):
    doc = to_json(dual8)
    bad = mutate(dual8, 0, "non-hypercube-edge").rotation
    changed = from_json(doc)
    changed.rotation = bad
    copied = dataclasses.replace(from_json(doc), rotation=bad)
    widened = from_json(doc)
    widened.n = 9
    mutated = mutate(from_json(doc), 5, "add-edge")
    for g in (changed, copied, widened, mutated):
        rotation_checks.clear()
        assert not verify_graph(g).passed
        assert rotation_checks == [g.n]
    # The changed graph keeps the faces traced on loading, so only the
    # rotation check stands between it and a stale PASS.
    assert verify_graph(changed).checks == [
        CheckResult("rotation-consistent", False, "(0x3, 0x0) is not a hypercube edge")
    ]


def test_verify_graph_walks_once(dual8, walks):
    assert verify_graph(dual8).passed
    assert walks == [0]
    walks.clear()
    cut = mutate(dual8, 0, "delete-edge")
    report = verify_graph(cut)
    assert walks == [0, 2]
    assert report.checks[6] == check_curves(cut)
