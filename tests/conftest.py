import json

import pytest

from minvenn.builder import build_venn_dual
from minvenn.doubling import double


@pytest.fixture(scope="session")
def dual8():
    return build_venn_dual(3)


@pytest.fixture(scope="session")
def dual16():
    return build_venn_dual(4)


@pytest.fixture(scope="session")
def doubling_chain(dual8):
    graphs = {8: dual8[0]}
    g = dual8[0]
    for n in range(9, 16):
        g = double(g)
        graphs[n] = g
    return graphs


def _outer_face_one_vertex(doc):
    face = doc["faces"][doc["outer_face"]]
    face["vertices"] = face["vertices"][:1]


# Malformed variants of the n = 8 document, each of which from_json must
# reject with DocumentError.  n is only ever pushed just past its bound:
# a huge n would make any unbounded code path allocate 2^n.
MALFORMED_DOCS = {
    "rotation-list": lambda doc: doc.update(rotation=list(doc["rotation"].values())),
    "outer-face-one-vertex": _outer_face_one_vertex,
    "faces-not-list": lambda doc: doc.update(faces=5),
    "construction-without-m": lambda doc: doc.update(construction={"k": 3}),
    "n-past-mask-width": lambda doc: doc.update(n=40),
    "construction-k-2": lambda doc: doc.update(construction={"k": 2, "m": 0}),
    "construction-m-9": lambda doc: doc.update(construction={"k": 3, "m": 9}),
}


@pytest.fixture(scope="session")
def doc8_text(dual8):
    from minvenn.export import dump_json, to_json

    return dump_json(to_json(dual8[0]))


@pytest.fixture(params=sorted(MALFORMED_DOCS))
def malformed_doc(request, doc8_text):
    doc = json.loads(doc8_text)
    MALFORMED_DOCS[request.param](doc)
    return doc
