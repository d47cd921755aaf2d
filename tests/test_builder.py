import hashlib
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lemmas import later_run_partition
from minvenn import builder
from minvenn.bases import basis_C, partition_cycles
from minvenn.builder import (
    BuildError,
    FaceCatalogMismatch,
    build_venn_dual,
    canonical_cycle,
    check_face_catalog,
    classify_face,
    driving_path,
    partition_preview_graph,
)
from minvenn.export import _layout_geometry, dump_json, to_json
from minvenn.plane_graph import Face, PlaneDualGraph, crossing_count, trace_faces
from minvenn.runs import run_partition


def test_k3_crossing_count(dual8):
    g = dual8
    assert crossing_count(g) == 40


def test_k3_vertex_and_edge_counts(dual8):
    g = dual8
    assert g.vertex_count == 256
    assert g.edge_count == 294
    assert g.vertex_count - g.edge_count + crossing_count(g) == 2


def test_k3_face_histogram(dual8):
    g = dual8
    assert dict(Counter(len(f) for f in trace_faces(g))) == {16: 30, 14: 2, 10: 8}


def test_trace_keeps_nothing_per_edge(dual16):
    # The faces keep 1.7 MiB; a map from each of the 141,304 directed edges
    # to its face would add 16 MiB.  While it runs, the trace holds one slot
    # mask per vertex, in a list indexed by vertex: 2.5 MiB at its peak; a
    # dict of the masks and a sorted copy of the keys would take 5.0 MiB.
    # The rotation itself is not counted: as a dict keyed by mask it read
    # 1.66 MiB kept and 2.51 MiB at the peak, and as a list of 2^n rows it
    # reads the same 1.66 and 2.51 MiB, so the trace's own state is unchanged.
    g = dual16
    fresh = PlaneDualGraph(g.n, g.rotation, g.outer_edge)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        faces = trace_faces(fresh)
        outer = fresh.outer_face_index()
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(faces) == 5118 and len(faces[outer]) == 32
    assert retained < 6 << 20
    assert peak < 3.5 * (1 << 20)


def test_faces_share_one_flips_tuple_per_word(dual8, dual16):
    for g, words in ((dual8, 35), (dual16, 466)):
        faces = trace_faces(g)
        assert len({id(f.flips) for f in faces}) == len({f.flips for f in faces}) == words
    assert not hasattr(faces[0], "__dict__")


def _variant(monkeypatch, k, tie_break="earlier", apply_removals=True):
    """A variant of build_venn_dual(k) the paper allows, built from outside the library.

    tie_break="later" gives each overlap element of the run partition to the
    later run.  apply_removals=False nests the build's rings again with every
    ring edge kept: the intermediate graph, with lam more faces.
    """
    assembled = []
    concentric = builder._concentric_graph
    with monkeypatch.context() as patch:
        if tie_break == "later":
            patch.setattr(builder, "run_partition", later_run_partition)
        patch.setattr(
            builder, "_concentric_graph", lambda *args: assembled.append(args) or concentric(*args)
        )
        g = build_venn_dual(k)
    if apply_removals:
        return g
    (args,) = assembled
    return concentric(*args[:-1], set())


def _ring_edges(g):
    layout = _layout_geometry(g)[0]
    return {(u, v, d) for u, v, d in g.edges() if layout[u][0] == layout[v][0]}


def test_k3_intermediate_graph_face_count(monkeypatch):
    g = _variant(monkeypatch, 3, apply_removals=False)
    assert sum(check_face_catalog(g).values()) == crossing_count(g) == 48
    assert len(_ring_edges(g)) == 2 * 8 * (1 << 4)  # all 2^d rings keep their 2n edges


def test_removals_each_drop_one_face(dual8, dual16, monkeypatch):
    # lam of the driving path at rho = n/2 - 1: 8 at n = 8, 1280 at n = 16
    for k, g, lam in ((3, dual8, 8), (4, dual16, 1280)):
        inter = _variant(monkeypatch, k, apply_removals=False)
        check_face_catalog(inter)
        removed = set(inter.edges()) - set(g.edges())
        assert set(g.edges()) <= set(inter.edges())
        assert removed <= _ring_edges(inter)
        assert len(removed) == lam == run_partition(driving_path(k).flips, (1 << k) // 2 - 1).lam
        assert crossing_count(inter) - crossing_count(g) == lam


def test_ring_bases_follow_the_driving_path(dual8):
    bases, masks = dual8.ring_bases, basis_C(3).elements
    assert bases[0] == 0
    for t, s in enumerate(driving_path(3).flips):
        assert bases[t + 1] == bases[t] ^ masks[s - 1]
    assert len(set(bases)) == 1 << 4


def test_outer_face_is_outermost_ring(dual8):
    g = dual8
    outer = trace_faces(g)[g.outer_face_index()]
    assert len(outer) == 16
    assert 0 in outer.vertices and 255 in outer.vertices
    layout = _layout_geometry(g)[0]
    assert {layout[v][0] for v in outer.vertices} == {1}


def test_rotation_orders_are_small_and_consistent(dual8):
    g = dual8
    for v, nbrs in enumerate(g.rotation):
        assert 2 <= len(nbrs) <= 4
        for u in nbrs:
            assert v in g.rotation[u]


def test_face_catalog_k3(dual8):
    g = dual8
    counts = check_face_catalog(g)
    assert counts == {
        "ring": 2,
        "merged-run": 6,
        "run-long": 28,
        "pair-short": 2,
        "pair-long": 2,
    }


def test_catalog_counts_match_the_per_face_classification(dual16, doubling_chain, monkeypatch):
    classify = builder.classify_face
    judged = []
    monkeypatch.setattr(
        builder, "classify_face", lambda f, base_n: judged.append(f.flips) or classify(f, base_n)
    )
    for g in (*doubling_chain.values(), dual16):
        faces = trace_faces(g)
        base_n = 1 << g.construction[0]
        judged.clear()
        assert check_face_catalog(g) == Counter(classify(f, base_n) for f in faces)
        assert len(judged) == len(set(judged)) == len({f.flips for f in faces})


def test_catalog_mismatch_names_the_first_face_of_a_word(dual8, monkeypatch):
    faces = trace_faces(dual8)
    word = faces[6].flips
    assert [i for i, f in enumerate(faces) if f.flips == word] == [6, 30]
    catalog = dict(builder.face_catalog(8))
    del catalog[canonical_cycle(word)]
    monkeypatch.setattr(builder, "face_catalog", lambda n: catalog)
    message = f"face 6 (length 16) with flips {word} matches no template"
    with pytest.raises(FaceCatalogMismatch, match=re.escape(message)):
        check_face_catalog(dual8)


def test_every_short_face_matches_template(dual16):
    g = dual16
    six = [f for f in trace_faces(g) if len(f) == 6]
    assert six
    for f in six:
        a = min(f.flips)
        assert canonical_cycle(f.flips) == canonical_cycle((a, a + 1, a, a + 2, a + 1, a + 2))


def test_classify_face_rejects_garbage():
    assert classify_face(Face((0, 1, 3), (1, 2, 1)), 8) is None


def test_both_tie_breaks_reach_forty(monkeypatch):
    for tie_break in ("earlier", "later"):
        g = _variant(monkeypatch, 3, tie_break=tie_break)
        assert crossing_count(g) == 40


def test_later_tie_break_also_reaches_5118(monkeypatch):
    g = _variant(monkeypatch, 4, tie_break="later")
    assert crossing_count(g) == 5118


def test_build_guards():
    with pytest.raises(BuildError):
        build_venn_dual(2)
    with pytest.raises(BuildError):
        build_venn_dual(5)  # n = 32 is past the materialization cap


# SHA-256 of the JSON document of every base build variant (see _variant):
# the concentric build is deterministic, so a digest changes only with the
# build or the format.  Format 5 re-pinned all eight; each variant's document,
# rewritten into the format 4 layout by adding back its vertices, still gave
# the format 4 digest.
BASE_DIGESTS = {
    (3, "earlier", True): "c1483b7910251cb507df2b00b1ef447f17f6a6fa02e8cd200a53f934412ad9ad",
    (3, "earlier", False): "81281f68d4f149ee1c5f4ef258b5cfb1c930d4c160c71aae31c96cd40dfa233b",
    (3, "later", True): "855e8565ae279657c1a3b09a1a551055a897c2df882ef9b772e21369c9513ede",
    (3, "later", False): "a7a2d36c6993262de247ef2ca739fb440cca45304e74411dfde786b34e8d9b0f",
    (4, "earlier", True): "bb0fdb21c809b191840a2bc20c830ffac4512fafe2efe98ce02646e70c6b414f",
    (4, "earlier", False): "47c3535daeeac41661e83aee40f3acac4eba17960545a9c647ab841ed3b730c1",
    (4, "later", True): "d4f8e08a5d6bb8554b0c4b3520cc8e5fa33bb8892ed7b97d8c862733ba9f0120",
    (4, "later", False): "3737cbd341bc6b1d01afc546abb2cafddc5ae8809f32569fa1e16c44a7bb9f3a",
}


@pytest.mark.parametrize("k,tie_break,apply_removals", sorted(BASE_DIGESTS))
def test_base_build_is_byte_identical(k, tie_break, apply_removals, monkeypatch):
    g = _variant(monkeypatch, k, tie_break, apply_removals)
    digest = hashlib.sha256(dump_json(to_json(g)).encode()).hexdigest()
    assert digest == BASE_DIGESTS[k, tie_break, apply_removals]


def test_layout_covers_all_vertices(dual8):
    g = dual8
    layout = _layout_geometry(g)[0]
    assert set(layout) == set(range(len(g.rotation))) == set(g.vertices())
    rings = {ring for ring, _pos in layout.values()}
    assert rings == set(range(1, 17))


def test_partition_preview_graph():
    g = partition_preview_graph(partition_cycles(2))
    assert g.vertex_count == 16
    assert {ring for ring, _ in _layout_geometry(g)[0].values()} == {1, 2}
    assert all(len(nbrs) == 2 for nbrs in g.rotation)


def test_k4_crossing_count(dual16):
    g = dual16
    assert crossing_count(g) == 5118
    assert g.vertex_count == 1 << 16
    assert g.vertex_count - g.edge_count + 5118 == 2


def canonical_cycle_oracle(word):
    """Every rotation of the word and its reversal compared: the definition itself."""
    w = tuple(word)
    length = len(w)
    best = None
    for cand_base in (w, w[::-1]):
        doubled = cand_base + cand_base
        for i in range(length):
            cand = doubled[i : i + length]
            if best is None or cand < best:
                best = cand
    return best


@given(st.lists(st.integers(min_value=1, max_value=5), max_size=14))
def test_canonical_cycle_matches_every_rotation(word):
    assert canonical_cycle(word) == canonical_cycle_oracle(word)


def test_canonical_cycle_matches_every_rotation_on_the_k4_faces(dual16):
    for f in trace_faces(dual16):
        assert canonical_cycle(f.flips) == canonical_cycle_oracle(f.flips)
