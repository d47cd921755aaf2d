import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import minvenn
from minvenn import builder, doubling, plane_graph
from minvenn.builder import BuildError
from minvenn.doubling import DoublingError, build_venn, double, find_colorful_face
from minvenn.hypercube import edge_direction
from minvenn.plane_graph import InconsistentRotation, PlaneDualGraph, crossing_count, trace_faces
from minvenn.verify import verify_graph


def test_colorful_face_of_base_build(dual8):
    verts, vertex = find_colorful_face(dual8)
    assert vertex == 0 and 255 in verts
    assert len(verts) == 16


def test_short_faces_are_not_colorful(dual16):
    g = dual16
    from minvenn.doubling import _colorful

    short = next(f for f in trace_faces(g) if len(f) == 6)
    assert _colorful(short.vertices, g.n) is None


def test_double_counts(dual8):
    g = dual8
    d = double(g)
    assert d.n == 9
    assert crossing_count(d) == 80
    assert d.vertex_count == 2 * g.vertex_count
    assert d.edge_count == 2 * g.edge_count + 2
    assert d.construction == (3, 1)
    assert verify_graph(d).passed


def test_double_keeps_a_colorful_face(dual8):
    g = dual8
    d = double(g)
    verts, vertex = find_colorful_face(d)
    assert vertex in verts and vertex ^ ((1 << 9) - 1) in verts


def test_colorful_face_halves_are_permutations(dual8):
    g = dual8
    verts, vertex = find_colorful_face(g)
    i, j = verts.index(vertex), verts.index(vertex ^ 255)
    flips = list(map(edge_direction, verts, verts[1:] + verts[:1]))
    length = len(flips)
    half1 = [flips[(i + t) % length] for t in range((j - i) % length)]
    half2 = [flips[(j + t) % length] for t in range((i - j) % length)]
    assert sorted(half1) == list(range(1, 9))
    assert sorted(half2) == list(range(1, 9))


def test_double_raises_when_the_outer_face_is_not_colorful(dual8):
    # dual8 has other colorful faces; double goes through the outer face only
    short = next(f for f in trace_faces(dual8) if len(f) == 10)
    rerooted = dataclasses.replace(dual8, outer_edge=short.vertices[:2])
    with pytest.raises(DoublingError, match="outer face of the n=8 graph is not colorful"):
        double(rerooted)


def test_outer_edge_missing_from_the_rotation_raises(dual8):
    # 0 and 255 are not adjacent, and (0, 128) is the edge of direction 8 at 0:
    # a key built from the direction alone would hand back that edge's face.
    g = dataclasses.replace(dual8, outer_edge=(0, 255))
    assert verify_graph(g).passed
    missing = r"outer_edge \(0x0, 0xff\) is not in the rotation"
    with pytest.raises(InconsistentRotation, match=missing):
        g.outer_face_index()
    with pytest.raises(InconsistentRotation, match="outer_edge"):
        double(g)


@pytest.mark.parametrize("tail", [-1, 1 << 8, 1 << 40])
def test_outer_edge_off_the_vertices_raises(dual8, tail):
    # dual8 spans Q_8, so the trace keeps its slot masks in a list indexed
    # by vertex; a tail that is not a vertex must not index it.
    g = dataclasses.replace(dual8, outer_edge=(tail, 0))
    missing = re.escape(f"outer_edge ({tail:#x}, 0x0) is not in the rotation")
    with pytest.raises(InconsistentRotation, match=missing):
        g.outer_face_index()
    with pytest.raises(InconsistentRotation, match=missing):
        find_colorful_face(dataclasses.replace(g))


def test_trace_refuses_masks_past_the_dimension_cap():
    # Masks live in a machine word: a graph past it is refused where it is
    # made.  So is a rotation that is not a list of one row per vertex, such
    # as a dict keyed by mask, before the trace could read it.
    far = 1 << 32
    rotation = {0: [1, far], 1: [0], far: [0]}
    with pytest.raises(ValueError, match=r"a graph needs 1 <= n <= 32, got 33"):
        PlaneDualGraph(33, rotation, (0, 1))
    rows = r"^the rotation must be a list of 2\^32 rows, one per vertex$"
    for refused in (rotation, list(rotation.values()), dict(enumerate([()] * 4))):
        with pytest.raises(ValueError, match=rows):
            PlaneDualGraph(32, refused, (0, 1))
    with pytest.raises(ValueError, match=r"^the rotation must be a list of 2\^2 rows"):
        PlaneDualGraph(2, dict(enumerate([(1, 2), (0, 3), (3, 0), (2, 1)])), (0, 1))


def test_double_without_colorful_face():
    # a plain 6-cycle in Q_4 has no face of length 2n = 8
    walk = [0b0000, 0b0001, 0b0011, 0b0111, 0b0110, 0b0100]
    rotation = [[] for _ in range(16)]
    for i, v in enumerate(walk):
        rotation[v] = [walk[(i + 1) % 6], walk[(i - 1) % 6]]
    g = PlaneDualGraph(n=4, rotation=rotation, outer_edge=(walk[0], walk[1]))
    assert find_colorful_face(g) is None
    with pytest.raises(DoublingError):
        double(g)


def test_chain_matches_table(doubling_chain):
    want = {9: 80, 10: 160, 11: 320, 12: 640, 13: 1280, 14: 2560, 15: 5120}
    for n, crossings in want.items():
        g = doubling_chain[n]
        assert crossing_count(g) == crossings
        assert g.construction == (3, n - 8)


def test_build_venn_entry_point():
    g = build_venn(10)
    assert g.n == 10
    assert crossing_count(g) == 160
    assert g.construction == (3, 2)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_build_venn_matches_the_double_chain(doubling_chain, n):
    g, want = build_venn(n), doubling_chain[n]
    assert g.rotation == want.rotation
    assert g.outer_edge == want.outer_edge
    assert g.construction == want.construction
    assert trace_faces(g) == trace_faces(want)


@pytest.mark.parametrize("base", ["chain", "dual16"])
def test_outer_walk_finds_the_face_the_trace_finds(request, doubling_chain, base):
    graphs = doubling_chain.values() if base == "chain" else [request.getfixturevalue(base)]
    for g in graphs:
        verts, v = find_colorful_face(g)
        face = trace_faces(g)[g.outer_face_index()].vertices
        full = (1 << g.n) - 1
        assert v == min(u for u in face if u ^ full in face)
        # the same closed walk, started on outer_edge instead of at its least vertex
        i = face.index(g.outer_edge[0])
        assert verts == face[i:] + face[:i]


def test_outer_walk_rejects_an_outer_face_that_is_not_colorful(dual8):
    short = next(f for f in trace_faces(dual8) if len(f) == 10)
    rerooted = dataclasses.replace(dual8, outer_edge=short.vertices[:2])
    assert find_colorful_face(rerooted) is None
    missing = r"outer_edge \(0x0, 0xff\) is not in the rotation"
    with pytest.raises(InconsistentRotation, match=missing):
        find_colorful_face(dataclasses.replace(dual8, outer_edge=(0, 255)))


@pytest.mark.parametrize("base, top", [("dual8", 16), ("dual16", 17)])
def test_double_returns_the_outer_walk_of_the_graph_it_builds(request, base, top):
    g = request.getfixturevalue(base)
    while g.n < top:
        g, walk = doubling._double(g, *find_colorful_face(g))
        face = trace_faces(g)[g.outer_face_index()].vertices
        i = face.index(g.outer_edge[0])
        assert walk == face[i:] + face[:i]


@pytest.fixture
def fresh_bases():
    """An empty base cache, emptied again afterwards so that no patched base outlives the test."""
    doubling._base.cache_clear()
    yield
    doubling._base.cache_clear()


def test_build_venn_raises_when_the_outer_face_is_not_colorful(monkeypatch, dual8, fresh_bases):
    short = next(f for f in trace_faces(dual8) if len(f) == 10)
    rerooted = dataclasses.replace(dual8, outer_edge=short.vertices[:2])
    monkeypatch.setattr(doubling, "build_venn_dual", lambda k: rerooted)
    with pytest.raises(DoublingError, match="outer face of the n=8 graph is not colorful"):
        build_venn(9)


def test_no_caller_can_change_the_shared_base_trace(fresh_bases):
    faces = trace_faces(build_venn(8))
    with pytest.raises(AttributeError):
        faces.pop()
    assert crossing_count(build_venn(9)) == 80


def test_both_entry_points_check_the_face_count(monkeypatch, dual8):
    monkeypatch.setattr(doubling, "_double", lambda g, verts, vertex: (g, verts))
    with pytest.raises(DoublingError, match="produced 40 faces, expected 80"):
        build_venn(9)
    with pytest.raises(DoublingError, match="produced 40 faces, expected 80"):
        double(dual8)


def test_mirrored_copy_lists_each_vertex_as_one_object(dual8):
    d = double(dual8)
    bit = 1 << dual8.n
    assert len(d.rotation[bit:]) == dual8.vertex_count
    canon = {}
    for row in d.rotation:
        assert all(canon.setdefault(u, u) is u for u in row if u & bit)
    assert len(canon) == dual8.vertex_count


def test_doubled_graph_shares_every_row_it_leaves_alone(dual8):
    rows = [list(nbrs) for nbrs in dual8.rotation]
    _, vertex = find_colorful_face(dual8)
    d = double(dual8)
    # only the two vertices that take a joining edge get new rows
    unshared = {v for v, nbrs in enumerate(dual8.rotation) if d.rotation[v] is not nbrs}
    assert unshared == {vertex, vertex ^ 255}
    assert [list(nbrs) for nbrs in dual8.rotation] == rows


def test_build_venn_traces_the_base_and_the_result_only(monkeypatch, fresh_bases):
    traced = []
    real = plane_graph.trace_faces

    def counting(g):
        if g._faces is None:
            traced.append(g)
        return real(g)

    for module in (builder, doubling, plane_graph):
        monkeypatch.setattr(module, "trace_faces", counting)
    g = build_venn(12)
    assert [(t.n, t.construction) for t in traced] == [(8, (3, 0)), (12, (3, 4))]
    assert traced[1] is g


def test_build_venn_builds_each_base_once_per_process(monkeypatch, fresh_bases):
    built = []
    real = doubling.build_venn_dual

    def counting(k, **kwargs):
        built.append(k)
        return real(k, **kwargs)

    monkeypatch.setattr(doubling, "build_venn_dual", counting)
    ns = range(8, 18)
    warm = [build_venn(n, cap=17) for n in ns]
    assert built == [3, 4]
    assert build_venn(16) is build_venn(16)
    for n, g in zip(ns, warm):
        doubling._base.cache_clear()
        cold = build_venn(n, cap=17)
        assert cold.rotation == g.rotation
        assert cold.outer_edge == g.outer_edge
        assert cold.construction == g.construction
        assert cold.ring_bases == g.ring_bases
        assert trace_faces(cold) == trace_faces(g)
    assert len(built) == 12  # one base per cold build


def test_build_venn_guards():
    with pytest.raises(BuildError):
        build_venn(7)
    with pytest.raises(BuildError):
        build_venn(17)
    build_venn(8)  # lower edge of the valid range


def test_build_venn_refuses_a_cap_past_max_cap_before_it_builds(monkeypatch):
    def allocates(*args):
        pytest.fail("build_venn started a build past MAX_CAP")

    monkeypatch.setattr(doubling, "_base", allocates)
    monkeypatch.setattr(doubling, "_doubled", allocates)
    with pytest.raises(BuildError, match="cap=30 exceeds the largest cap 20"):
        build_venn(30, cap=30)


# Run in a fresh process: a face trace that loops must fail the test, not hang the suite.
REPEATED_NEIGHBOR = """
from minvenn.builder import build_venn_dual
from minvenn.doubling import double
from minvenn.plane_graph import InconsistentRotation, PlaneDualGraph, crossing_count, trace_faces

g = build_venn_dual(3)
assert g.rotation[0] == (1, 4, 128)
for call in (trace_faces, crossing_count, double):
    rotation = list(g.rotation)
    rotation[0] = [1, 4, 1, 128]
    bad = PlaneDualGraph(g.n, rotation, g.outer_edge, g.construction)
    try:
        call(bad)
    except InconsistentRotation as exc:
        print(call.__name__, exc)
"""


def test_neighbor_listed_twice_raises():
    src = str(Path(minvenn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", REPEATED_NEIGHBOR],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == [
        "trace_faces",
        "crossing_count",
        "double",
    ]
