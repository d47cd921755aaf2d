import copy
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minvenn
from minvenn.bases import partition_cycles, ring_prefixes
from minvenn.builder import partition_preview_graph
from minvenn.cli import main
from minvenn.doubling import build_venn
from minvenn.export import (
    DocumentError,
    RenderError,
    dump_json,
    from_json,
    load_json,
    render_dual_svg,
    render_primal_svg,
    to_dot,
    to_json,
)
from minvenn.plane_graph import InconsistentRotation, PlaneDualGraph, rotation_problems
from minvenn.verify import CheckResult, VerificationReport, verify_graph


def _single_ring_graph(n):
    """The ring through ring_prefixes(n); every vertex off it has an empty row."""
    ring = ring_prefixes(n)
    two_n = 2 * n
    rotation = [()] * (1 << n)
    for i, v in enumerate(ring):
        rotation[v] = (ring[(i + 1) % two_n], ring[(i - 1) % two_n])
    return PlaneDualGraph(n=n, rotation=rotation, outer_edge=(ring[0], ring[1]))


def test_round_trip_base_build(dual8):
    g = dual8
    doc = to_json(g)
    assert doc["crossings"] == 40
    assert doc["construction"] == {"k": 3, "m": 0}
    g2 = from_json(doc)
    assert g2 == g
    # a key the reader does not know, such as an older writer's step list, is ignored
    assert from_json({**doc, "steps": [{"gap": 0}]}) == g
    # the face cache takes no part in equality: g is traced, the copy is not
    assert PlaneDualGraph(g.n, g.rotation, g.outer_edge, g.construction, g.ring_bases) == g
    assert to_json(g2) == to_json(g)
    # serialized text is stable too
    assert dump_json(to_json(g)) == dump_json(to_json(g2))


def test_round_trip_n16_document_is_small(dual16):
    g = dual16
    text = dump_json(to_json(g))
    # 2^d ring bases, not a [ring, position] per vertex, 130 distinct rows
    # and no list of the vertices, which are all of Q_16
    assert len(text) <= 250_000
    assert from_json(load_json(text)) == g


def test_rebuild_produces_identical_document():
    from minvenn.builder import build_venn_dual

    assert dump_json(to_json(build_venn_dual(3))) == dump_json(to_json(build_venn_dual(3)))


def test_round_trip_doubled(doubling_chain):
    doc = to_json(doubling_chain[9])
    assert doc["crossings"] == 80
    assert doc["ring_bases"] is None
    for n in range(9, 16):
        g = doubling_chain[n]
        assert from_json(to_json(g)) == g


def test_round_trip_non_spanning_ring():
    # 8 of the 16 vertices of Q_4: the other 8 rows are empty, and a
    # document writes them as one empty row.  The loaded graph is the same,
    # and the verifier's spanning check still names a missing vertex.
    g = _single_ring_graph(4)
    doc = to_json(g)
    assert doc["rows"][doc["row_of"][2]] == []
    loaded = from_json(load_json(dump_json(doc)))
    assert loaded == g
    assert CheckResult("spanning", False, "vertex 0x2 missing") in verify_graph(loaded).checks


def test_sparse_document_with_large_n_stays_small():
    # Two edges of Q_32 in a document that gives only four vertices a row.
    # A graph holds a row for each of the 2^32 vertices, so the reader
    # refuses the document, and may not use memory in proportion to 2^32
    # to do so.
    doc = {
        "format_version": 5,
        "n": 32,
        "construction": None,
        # 0 and 1 joined in direction 1, 0x7fffffff and 0xffffffff in direction 32
        "rows": [[1], [32]],
        "row_of": [0, 0, 1, 1],
        "outer_edge": [0, 1],
        "crossings": 2,
        "ring_bases": None,
    }
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError, match=r"^row_of must give each of the 2\^32 vertices a row"):
            from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_from_json_rejects_tampered_rotation(dual8):
    g = dual8
    doc = json.loads(dump_json(to_json(g)))
    doc["rows"][doc["row_of"][0]].pop()
    with pytest.raises(ValueError):
        from_json(doc)


def test_from_json_rejects_tampered_faces(dual8):
    # crossings is the face count, checked against the re-traced faces
    g = dual8
    doc = to_json(g)
    doc["crossings"] += 1
    with pytest.raises(DocumentError):
        from_json(doc)


def test_from_json_refuses_a_star_in_linear_time(doc8_text):
    # Each of 40,000 vertices is a star: all share one row of 40,000
    # directions.  Spelled out, the table would hold 1.6 billion neighbors;
    # the bound of n directions per row refuses the document before any is made.
    doc = json.loads(doc8_text)
    doc.update(
        n=32,
        rows=[[1 + i % 32 for i in range(40_000)]],
        row_of=[0] * 40_000,
        construction=None,
        ring_bases=None,
    )
    start = time.perf_counter()
    with pytest.raises(DocumentError, match=r"row 0 must list at most 32 directions"):
        from_json(doc)
    assert time.perf_counter() - start < 1


def _one_vertex_edit(doc, v, edit):
    """doc with vertex v's row, in a row of its own, missing its first direction or repeating it."""
    row = doc["rows"][doc["row_of"][v]]
    doc["rows"].append(row[1:] if edit == "one-sided-edge" else row + row[:1])
    doc["row_of"][v] = len(doc["rows"]) - 1
    return doc


@pytest.mark.parametrize(
    "edit, witness",
    [
        ("one-sided-edge", "edge (0x1, 0x3) missing its reverse entry"),
        ("repeated-direction", "vertex 0x1 lists a neighbor twice"),
    ],
    ids=["one-sided-edge", "repeated-direction"],
)
def test_rotation_defect_keeps_its_witness(tmp_path, dual8, doc8_text, edit, witness):
    # Rows of directions can still write a one-sided edge or a repeated
    # neighbor; the trace refuses both and rotation_problems names them.
    doc = _one_vertex_edit(json.loads(doc8_text), 1, edit)
    nbrs = [1 ^ 1 << (d - 1) for d in doc["rows"][-1]]
    assert rotation_problems([dual8.rotation[0], tuple(nbrs), *dual8.rotation[2:]], 8)[0] == witness
    with pytest.raises(DocumentError) as caught:
        from_json(doc)
    assert str(caught.value) == f"document rotation is inconsistent: {witness}"
    target = tmp_path / "defect.json"
    target.write_text(json.dumps(doc))
    assert main(["verify", str(target)]) == 2


def test_loaded_neighbors_are_key_objects(dual16):
    # Each neighbor is taken from one list of keys, so a vertex is one int
    # object in every row that lists it.
    g = from_json(load_json(dump_json(to_json(dual16))))
    canon = {}
    assert all(canon.setdefault(w, w) is w for row in g.rotation for w in row)
    assert len(canon) == 1 << 16


def test_from_json_rejects_malformed_document(malformed_doc):
    with pytest.raises(DocumentError):
        from_json(malformed_doc)


def _paths(value, path):
    """The path to value and to everything inside it, as tuples of keys and indices."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, path + (key,))


RETYPED = (None, True, 1.5, "7", [], {}, [[0]])
OUT_OF_RANGE = (-1, 0, 33, 1 << 8, 1 << 20, 1 << 32, 1 << 64)


@pytest.fixture(scope="session")
def fuzz_dir(tmp_path_factory):
    # Session-scoped: @given runs every example in one call of the test.
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_from_json_fuzz_raises_only_value_error(doc8_text, fuzz_dir, data):
    # One to three edits, each at a top-level key or somewhere inside one:
    # delete it, retype it, truncate a list, or push an int out of range.
    doc = json.loads(doc8_text)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if not doc:
            break
        key = data.draw(st.sampled_from(sorted(doc)), label="key")
        *head, last = data.draw(st.sampled_from(list(_paths(doc[key], (key,)))), label="path")
        parent = doc
        for step in head:
            parent = parent[step]
        value = parent[last]
        op = data.draw(st.sampled_from(("delete", "retype", "truncate", "out-of-range")))
        if op == "delete":
            del parent[last]
        elif op == "retype":
            # A copy: a later edit may truncate it, and RETYPED must not change.
            parent[last] = copy.deepcopy(data.draw(st.sampled_from(RETYPED)))
        elif op == "truncate" and isinstance(value, list):
            del value[data.draw(st.integers(0, len(value))) :]
        elif op == "out-of-range" and type(value) is int:
            parent[last] = data.draw(st.sampled_from(OUT_OF_RANGE))
    try:
        g = from_json(doc)
    except ValueError:
        pass
    else:
        assert isinstance(verify_graph(g), VerificationReport)
    # The CLI ends every document in a verdict (0 or 1) or a message (2).
    path = fuzz_dir / "fuzzed.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) in (0, 1, 2)


def test_load_json_rejects_repeated_keys(doc8_text):
    assert load_json(doc8_text) == json.loads(doc8_text)
    with pytest.raises(DocumentError, match="key 'b' appears twice"):
        load_json('{"a": {"b": 1, "c": 2, "b": 3}}')


@pytest.fixture(scope="session")
def built_8_to_12():
    """Built graphs n = 8..12, each with its report; n >= 9 are doubled, without ring_bases."""
    return {n: (g, verify_graph(g)) for n in range(8, 13) for g in [build_venn(n)]}


def _without(g, v, edit):
    """g with vertex v's row emptied; unless unrepaired, v leaves every other row too."""
    rotation = list(g.rotation)
    if edit != "empty-unrepaired":
        rotation = [tuple(w for w in row if w != v) for row in rotation]
    rotation[v] = ()
    return dataclasses.replace(g, rotation=rotation)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_to_json_of_edited_rows(built_8_to_12, data):
    g, report = built_8_to_12[data.draw(st.integers(8, 12), label="n")]
    edit = data.draw(st.sampled_from(("none", "empty", "empty-unrepaired")), label="edit")
    if edit != "none":
        g = _without(g, data.draw(st.integers(0, (1 << g.n) - 1), label="vertex"), edit)
        report = verify_graph(g)
    if not data.draw(st.booleans(), label="with report"):
        report = None
    try:
        doc = to_json(g, report=report)
    except InconsistentRotation:
        # The trace refuses the rotation before any document is made.
        assert rotation_problems(g.rotation, g.n)
    else:
        # A consistent rotation that lost a vertex writes it as an empty row.
        assert not rotation_problems(g.rotation, g.n)
        assert doc.get("report") == (None if report is None else report.to_dict())
        assert load_json(dump_json(doc)) == doc
        assert [doc["rows"][r] for r in doc["row_of"]].count([]) == (edit != "none")


def test_gallery_documents_load(tmp_path, dual8, doubling_chain):
    script = Path(__file__).resolve().parents[1] / "scripts" / "render_gallery.py"
    src = str(Path(minvenn.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    for name, g in (("venn8.json", dual8), ("venn9.json", doubling_chain[9])):
        assert from_json(json.loads((tmp_path / name).read_text())) == g


def test_to_dot_single_ring():
    g = _single_ring_graph(4)
    dot = to_dot(g)
    lines = dot.splitlines()
    node_lines = [l for l in lines if "--" not in l and "label" in l]
    edge_lines = [l for l in lines if "--" in l]
    assert len(node_lines) == 8
    assert len(edge_lines) == 8
    for l in edge_lines:
        label = int(l.split('label="')[1].split('"')[0])
        assert 1 <= label <= 4


def test_to_dot_base_build(dual8):
    g = dual8
    dot = to_dot(g)
    assert len([l for l in dot.splitlines() if "--" not in l and "label" in l]) == 256


def test_render_dual_svg(dual8):
    g = dual8
    svg = render_dual_svg(g)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.count("<circle") == 256
    assert svg.count("<line") == 294


def test_render_dual_preview_two_rings():
    svg = render_dual_svg(partition_preview_graph(partition_cycles(2)))
    ET.fromstring(svg)
    assert svg.count("<circle") == 16
    assert svg.count("<line") == 16


def test_render_dual_requires_layout(doubling_chain):
    with pytest.raises(RenderError):
        render_dual_svg(doubling_chain[9])


def test_render_refuses_ring_bases_that_miss_the_rotation(doc8_text):
    doc = json.loads(doc8_text)
    doc["ring_bases"] = [0]
    g = from_json(doc)
    for render in (render_dual_svg, render_primal_svg):
        with pytest.raises(RenderError, match="ring_bases do not cover the rotation"):
            render(g)


def test_render_primal_svg(dual8):
    g = dual8
    svg = render_primal_svg(g)
    ET.fromstring(svg)
    assert svg.count("<path") == 8  # one closed polyline per curve
    assert svg.count('fill="white" stroke="black"') == 40  # one bubble per crossing


def test_render_primal_refuses_an_outer_edge_missing_from_the_rotation(dual8):
    g = dataclasses.replace(dual8, outer_edge=(0, 255))
    missing = r"outer_edge \(0x0, 0xff\) is not in the rotation"
    with pytest.raises(InconsistentRotation, match=missing):
        render_primal_svg(g)


def test_render_primal_refuses_unverified():
    with pytest.raises(RenderError):
        render_primal_svg(partition_preview_graph(partition_cycles(2)))
