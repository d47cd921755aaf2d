"""Serialization (JSON, DOT) and schematic SVG rendering.

JSON is the canonical interchange format and round-trips losslessly; DOT and
the two SVG views are one-way.  A JSON document (format 5) stores only what
cannot be derived: edges and faces are re-traced from the rotation on load,
and the concentric layout is kept as the base vertex of each ring.  A
graph's vertices are range(2^n), the indices of its rotation's rows, so
they are not written.  The rotation is written by
direction: rows lists each distinct row of neighbor directions once, and
row_of[v] is the row index of vertex v.  A build has few distinct rows (130
at n = 16), so the document takes 0.20 MB at n = 16, 0.89 MB at n = 18 and
3.6 MB at n = 20.

The dual view draws the concentric rings of a power-of-two build, placing
each vertex by its ring's base vertex (_layout_geometry); the primal
view places one bubble per face and threads each curve through the midpoints
of its edges, topologically faithful but geometrically approximate.
"""

from __future__ import annotations

import json
from itertools import chain
from math import atan2, cos, hypot, pi, sin

from .bases import ring_prefixes
from .hypercube import MAX_DIMENSION, MAX_LEVEL, elements_of
from .plane_graph import PlaneDualGraph, rotation_problems, trace_faces
from .verify import face_cycle, face_edges_by_direction, verify_graph


FORMAT_VERSION = 5


class RenderError(ValueError):
    """The graph cannot be drawn in the requested style."""


class DocumentError(ValueError):
    """A JSON document is malformed."""


def to_json(g: PlaneDualGraph, report=None) -> dict:
    """Format 5 document of a graph, optionally with its verification report."""
    doc = {
        "format_version": FORMAT_VERSION,
        "n": g.n,
        "construction": (
            {"k": g.construction[0], "m": g.construction[1]} if g.construction else None
        ),
        "outer_edge": list(g.outer_edge),
        "crossings": len(trace_faces(g)),
        "ring_bases": None if g.ring_bases is None else list(g.ring_bases),
    }
    if report is not None:
        doc["report"] = report.to_dict()
    # The trace has made every entry a hypercube edge, so a row's bits u ^ v
    # name its directions.  rows maps each distinct row to its index.
    rows, row_of = {}, []
    for v, nbrs in enumerate(g.rotation):
        row_of.append(rows.setdefault(tuple(map(v.__xor__, nbrs)), len(rows)))
    doc["rows"] = [list(map(int.bit_length, row)) for row in rows]
    doc["row_of"] = row_of
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_json(text: str) -> dict:
    """Parse JSON text, rejecting an object that repeats a key instead of keeping the last."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise DocumentError("the JSON nests too deeply to parse") from None


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise DocumentError(problem)


def _int_lists(values) -> bool:
    """Whether every value is a list of ints (a bool is no int here)."""
    return set(map(type, values)) <= {list} and set(map(type, chain.from_iterable(values))) <= {int}


def _rotation(doc: dict, n: int) -> list:
    """The rotation's list of rows, row v for vertex v, from rows and row_of, both checked first.

    row_of[v] is the row of vertex v, for each v in range(2^n).  A row may
    list at most n directions, so the rotation is at most n times the size
    of row_of, and each neighbor v ^ 2^(d-1) is one shared int object per
    vertex, taken from one list of keys.
    """
    rows = doc.get("rows")
    _require(type(rows) is list, "rows must be a list of direction lists")
    for i, row in enumerate(rows):
        _require(
            _int_lists([row]) and len(row) <= n and all(1 <= d <= n for d in row),
            f"row {i} must list at most {n} directions, each an integer in [1, {n}]",
        )
    row_of = doc.get("row_of")
    _require(
        _int_lists([row_of])
        and len(row_of) == 1 << n
        and 0 <= min(row_of) <= max(row_of) < len(rows),
        f"row_of must give each of the 2^{n} vertices a row index in [0, {len(rows)})",
    )
    bits = [[1 << (d - 1) for d in row] for row in rows]
    keys = list(range(1 << n))
    key = keys.__getitem__
    return [tuple(map(key, map(v.__xor__, bits[r]))) for v, r in zip(keys, row_of)]


def from_json(doc: dict) -> PlaneDualGraph:
    """Rebuild a graph from a format 5 document, validating it on the way.

    Raises DocumentError on any malformed document, including one of another
    format version.  n and the construction level k are bounded before
    anything of size 2^n or 2^k is built.  The trace that counts the faces
    also decides the rotation; rotation_problems only names its defect.
    """
    _require(isinstance(doc, dict), "document is not a JSON object")
    version = doc.get("format_version")
    _require(
        type(version) is int and version == FORMAT_VERSION,
        f"format_version {version!r} is not {FORMAT_VERSION}; rebuild with `minvenn build`",
    )
    n = doc.get("n")
    _require(
        type(n) is int and 1 <= n <= MAX_DIMENSION,
        f"n must be an integer in [1, {MAX_DIMENSION}]",
    )
    rotation = _rotation(doc, n)
    edge = doc.get("outer_edge")
    _require(_int_lists([edge]) and len(edge) == 2, "outer_edge must be a [u, v] pair of integers")
    u, v = edge
    _require(
        0 <= u < 1 << n and v in rotation[u], f"outer_edge ({u:#x}, {v:#x}) is not in the rotation"
    )
    construction = None
    spec = doc.get("construction")
    if spec is not None:
        _require(isinstance(spec, dict), "construction must be an object")
        k, m = spec.get("k"), spec.get("m")
        _require(
            type(k) is int and 3 <= k <= MAX_LEVEL and type(m) is int and 0 <= m < (1 << k),
            f"construction needs integers 3 <= k <= {MAX_LEVEL} and 0 <= m < 2^k",
        )
        construction = (k, m)
    bases = doc.get("ring_bases")
    _require(
        bases is None or _int_lists([bases]) and all(0 <= b < 1 << n for b in bases),
        "ring_bases must be null or a list of vertices of the rotation",
    )
    g = PlaneDualGraph(
        n=n,
        rotation=rotation,
        outer_edge=(u, v),
        construction=construction,
        ring_bases=None if bases is None else tuple(bases),
    )
    try:
        faces = len(trace_faces(g))
    except ValueError:
        problem = rotation_problems(rotation, n)[0]
        raise DocumentError(f"document rotation is inconsistent: {problem}") from None
    crossings = doc.get("crossings")
    _require(
        type(crossings) is int and crossings == faces,
        f"crossings must equal the {faces} faces the rotation traces",
    )
    return g


def to_dot(g: PlaneDualGraph) -> str:
    """Undirected DOT graph with vertices labelled as subsets, edges by direction."""
    lines = ["graph venn_dual {"]
    for v in g.vertices():
        label = "{" + ",".join(map(str, elements_of(v))) + "}"
        lines.append(f'  {v} [label="{label}"];')
    for u, v, d in g.edges():
        lines.append(f'  {u} -- {v} [label="{d}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _layout_geometry(g: PlaneDualGraph):
    """Each vertex's (ring, position), rings numbered from 1 outermost first, and a placement."""
    if not g.ring_bases:
        raise RenderError("no concentric layout")
    prefixes = ring_prefixes(g.n)
    layout = {b ^ m: (r, p) for r, b in enumerate(g.ring_bases, 1) for p, m in enumerate(prefixes)}
    # Each mask is below 2^n, so a base in range keeps its ring in range.
    size = 1 << g.n
    if len(layout) != size or not all(0 <= b < size for b in g.ring_bases):
        raise RenderError("ring_bases do not cover the rotation")
    num_rings = len(g.ring_bases)
    gap = max(3.0, 360.0 / num_rings)
    r_inner = 26.0
    r_outer = r_inner + gap * num_rings
    center = r_outer + 30.0
    two_n = 2 * g.n

    def position(v: int) -> tuple[float, float]:
        ring, p = layout[v]
        r = r_inner + gap * (num_rings - ring + 1)
        theta = 2.0 * pi * p / two_n - pi / 2.0
        return center + r * cos(theta), center + r * sin(theta)

    return layout, position, center, r_outer, num_rings


def _svg_open(size: float) -> list[str]:
    """The XML declaration, the svg element and a white background, size units square."""
    s = _fmt(size)
    return [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">\n',
        f'<rect width="{s}" height="{s}" fill="white"/>\n',
    ]


def render_dual_svg(g: PlaneDualGraph) -> str:
    """Concentric drawing of the dual graph: rings, cross edges, vertices."""
    layout, position, center, r_outer, _num_rings = _layout_geometry(g)
    parts = _svg_open(2.0 * center)
    for u, v, _d in g.edges():
        same_ring = layout[u][0] == layout[v][0]
        x1, y1 = position(u)
        x2, y2 = position(v)
        color, width = ("#202020", 1.2) if same_ring else ("#888888", 0.9)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>\n'
        )
    for v in g.vertices():
        x, y = position(v)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.6" fill="#000000"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _curve_color(j: int, n: int) -> str:
    hue = round(360.0 * (j - 1) / n)
    return f"hsl({hue},70%,42%)"


def render_primal_svg(g: PlaneDualGraph, report=None) -> str:
    """Schematic primal diagram: one bubble per crossing, one polyline per curve.

    report is g's verification report if the caller already has one;
    without it the graph is verified here.
    """
    layout, position, center, r_outer, num_rings = _layout_geometry(g)
    if report is None:
        report = verify_graph(g)
    if not report.passed:
        raise RenderError("graph failed verification; refusing to draw curves")

    faces = trace_faces(g)
    outer_index = g.outer_face_index()
    two_n = 2 * g.n

    def face_point(idx: int) -> tuple[float, float]:
        face = faces[idx]
        if idx == outer_index:
            return center, center - r_outer - 16.0
        rings = {layout[v][0] for v in face.vertices}
        if rings == {num_rings} and len(face) == two_n:
            return center, center  # the innermost ring face
        sx = sy = rr = 0.0
        for v in face.vertices:
            x, y = position(v)
            dx, dy = x - center, y - center
            sx += dx
            sy += dy
            rr += hypot(dx, dy)
        rr /= len(face)
        theta = atan2(sy, sx) if hypot(sx, sy) > 1e-9 else 0.0
        return center + rr * cos(theta), center + rr * sin(theta)

    points = {idx: face_point(idx) for idx in range(len(faces))}
    parts = _svg_open(2.0 * center)
    buckets = face_edges_by_direction(g)
    for j in range(1, g.n + 1):
        bucket, jbit = buckets[j], 1 << (j - 1)
        slots, _problem = face_cycle(bucket, j)  # None: the curves check passed
        coords = []
        for s in slots:
            coords.append(points[bucket[2 * s]])
            low = bucket[2 * s + 1]
            ux, uy = position(low)
            vx, vy = position(low | jbit)
            coords.append(((ux + vx) / 2.0, (uy + vy) / 2.0))
        path = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords) + " Z"
        parts.append(
            f'<path d="{path}" fill="none" stroke="{_curve_color(j, g.n)}" '
            f'stroke-width="1.4" opacity="0.85"/>\n'
        )
    for idx in range(len(faces)):
        x, y = points[idx]
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" fill="white" '
            f'stroke="black" stroke-width="0.9"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
