import hashlib
import json

import pytest

from minvenn.bases import ring_prefixes
from minvenn.builder import build_venn_dual
from minvenn.doubling import double
from minvenn.export import dump_json, from_json, to_json
from minvenn.plane_graph import trace_faces


@pytest.fixture(scope="session")
def dual8():
    return build_venn_dual(3)


@pytest.fixture(scope="session")
def dual16():
    return build_venn_dual(4)


@pytest.fixture(scope="session")
def doubling_chain(dual8):
    graphs = {8: dual8}
    g = dual8
    for n in range(9, 16):
        g = double(g)
        graphs[n] = g
    return graphs


# SHA-256 of the n = 8 document as the format 1, 2, 3 and 4 writers laid it out.
FORMAT_1_DOC8_SHA256 = "6f76d22a33fe451a943ff12c585512e2a9cfd3e57ad045edc1ae6097a63cc700"
FORMAT_2_DOC8_SHA256 = "5eac4ec3f3d1c6f527dc35eeaf6f5ed9108a1c34df86b601db49e4a3d0944e56"
FORMAT_3_DOC8_SHA256 = "fc6d87ee41ba82da54dc46dc57631d204835850e36bdc6e6936ae1e5d4b97a38"
FORMAT_4_DOC8_SHA256 = "f42c45b567d1607f9d3025fde66462a879e6497d8c6cb2a6869b4844f0d0b50b"


def rotation_keys(rotation):
    """The rows and row_of of a format 5 document, row_of in vertex order, for hypercube edges."""
    rows = {}
    row_of = [
        rows.setdefault(tuple((u ^ v).bit_length() for u in nbrs), len(rows))
        for v, nbrs in enumerate(rotation)
    ]
    return {"rows": list(map(list, rows)), "row_of": row_of}


def _format_3_rotation(doc):
    """Replace rows and row_of by the {str(vertex): neighbors} rotation of formats 1-3."""
    g = from_json(doc)
    del doc["rows"], doc["row_of"]
    doc["rotation"] = {str(v): list(nbrs) for v, nbrs in enumerate(g.rotation)}
    return g


def _layout_hint(doc):
    """Replace ring_bases by the {vertex: [ring, position]} table formats 1 and 2 stored."""
    prefixes = ring_prefixes(doc["n"])
    bases = doc.pop("ring_bases")
    doc["layout_hint"] = {
        str(b ^ m): [ring, p] for ring, b in enumerate(bases, 1) for p, m in enumerate(prefixes)
    }


def _format_version_1(doc):
    """Rewrite the n = 8 document into the format 1 layout, byte for byte."""
    g = _format_3_rotation(doc)
    del doc["format_version"], doc["outer_edge"]
    _layout_hint(doc)
    doc.update(
        vertices=g.vertices(),
        edges=[{"u": u, "v": v, "direction": d} for u, v, d in g.edges()],
        faces=[{"vertices": list(f.vertices), "flips": list(f.flips)} for f in trace_faces(g)],
        outer_face=g.outer_face_index(),
    )
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_1_DOC8_SHA256


def _format_version_2(doc):
    """Rewrite the n = 8 document into the format 2 layout, byte for byte."""
    _format_3_rotation(doc)
    doc["format_version"] = 2
    _layout_hint(doc)
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    assert len(text) == 7320
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_2_DOC8_SHA256


def _format_version_3(doc):
    """Rewrite the n = 8 document into the format 3 layout, byte for byte."""
    _format_3_rotation(doc)
    doc["format_version"] = 3
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    assert len(text) == 4198
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_3_DOC8_SHA256


def _format_version_4(doc):
    """Rewrite the n = 8 document into the format 4 layout, which also listed the vertices."""
    doc.update(format_version=4, vertices=list(range(1 << doc["n"])))
    assert hashlib.sha256(dump_json(doc).encode()).hexdigest() == FORMAT_4_DOC8_SHA256


def _row_with_1(doc):
    """The first row that lists direction 1."""
    return next(row for row in doc["rows"] if 1 in row)


# Malformed variants of the n = 8 document, each of which from_json must
# reject with DocumentError.  n is only ever pushed just past its bound:
# a huge n would make any unbounded code path allocate 2^n.
MALFORMED_DOCS = {
    "rotation-list": lambda doc: doc.update(rows=dict(enumerate(doc["rows"]))),
    # True stands for direction 1, and would pass every later check
    "rotation-bool": lambda doc: (row := _row_with_1(doc)).__setitem__(row.index(1), True),
    # vertex 1's row listed a second time, so row_of names 2^n + 1 vertices
    "rotation-duplicate-key": lambda doc: doc["row_of"].insert(1, doc["row_of"][1]),
    "direction-0": lambda doc: doc["rows"][0].__setitem__(0, 0),
    "direction-n-plus-1": lambda doc: doc["rows"][0].__setitem__(0, 9),
    "row-of-outside-rows": lambda doc: doc["row_of"].__setitem__(0, len(doc["rows"])),
    "row-of-wrong-length": lambda doc: doc["row_of"].pop(),
    "outer-edge-one-vertex": lambda doc: doc.update(outer_edge=doc["outer_edge"][:1]),
    # 0 and 255 are not adjacent in Q_8
    "outer-edge-not-an-edge": lambda doc: doc.update(outer_edge=[0, 255]),
    "format-version-1": _format_version_1,
    "format-version-2": _format_version_2,
    "format-version-3": _format_version_3,
    "format-version-4": _format_version_4,
    "ring-bases-not-list": lambda doc: doc.update(ring_bases=doc["ring_bases"][0]),
    # 2^20 is no vertex of Q_8
    "ring-bases-not-vertices": lambda doc: doc.update(ring_bases=[1 << 20]),
    "construction-without-m": lambda doc: doc.update(construction={"k": 3}),
    "n-past-mask-width": lambda doc: doc.update(n=40),
    "construction-k-2": lambda doc: doc.update(construction={"k": 2, "m": 0}),
    "construction-m-9": lambda doc: doc.update(construction={"k": 3, "m": 9}),
}


@pytest.fixture(scope="session")
def doc8_text(dual8):
    return dump_json(to_json(dual8))


@pytest.fixture(params=sorted(MALFORMED_DOCS))
def malformed_doc(request, doc8_text):
    doc = json.loads(doc8_text)
    MALFORMED_DOCS[request.param](doc)
    return doc
