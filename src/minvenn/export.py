"""Serialization (JSON, DOT) and schematic SVG rendering.

JSON is the canonical interchange format and round-trips losslessly; DOT and
the two SVG views are one-way.  The dual view draws the concentric rings of
a power-of-two build; the primal view places one bubble per face and threads
each curve through the midpoints of its edges, topologically faithful but
geometrically approximate.
"""

from __future__ import annotations

import json
from math import atan2, cos, hypot, pi, sin

from .hypercube import MAX_DIMENSION, MAX_LEVEL, elements_of
from .plane_graph import PlaneDualGraph, rotation_problems, trace_faces
from .verify import face_cycle, verify_graph


class RenderError(ValueError):
    """The graph cannot be drawn in the requested style."""


class DocumentError(ValueError):
    """A JSON document is malformed or disagrees with its own rotation system."""


def to_json(g: PlaneDualGraph, trace=None, report=None) -> dict:
    """JSON-ready document for the graph, optionally with build trace and report."""
    faces = trace_faces(g)
    doc = {
        "n": g.n,
        "construction": (
            {"k": g.construction[0], "m": g.construction[1]} if g.construction else None
        ),
        "vertices": g.vertices(),
        "edges": [{"u": u, "v": v, "direction": d} for u, v, d in g.edges()],
        "rotation": {str(v): list(g.rotation[v]) for v in sorted(g.rotation)},
        "faces": [{"vertices": list(f.vertices), "flips": list(f.flips)} for f in faces],
        "outer_face": g.outer_face_index(),
        "crossings": len(faces),
        "layout_hint": (
            {str(v): list(g.layout[v]) for v in sorted(g.layout)} if g.layout else None
        ),
    }
    if trace is not None:
        doc["build_trace"] = {
            "k": trace.k,
            "n": trace.n,
            "d": trace.d,
            "rho": trace.rho,
            "tie_break": trace.tie_break,
            "coefficients": [list(c) for c in trace.coefficients],
            "sigma": list(trace.sigma),
            "ring_bases": list(trace.ring_bases),
            "steps": [
                {
                    "gap": s.gap,
                    "s": s.s,
                    "kind": s.kind,
                    "added": [list(e) for e in s.added],
                    "removed": list(s.removed) if s.removed else None,
                }
                for s in trace.steps
            ],
        }
    if report is not None:
        doc["report"] = report.to_dict()
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise DocumentError(problem)


def _int_lists(values, length: int | None = None) -> bool:
    """Whether every value is a list of ints, of the given length if one is set."""
    return all(
        type(v) is list and (length is None or len(v) == length) for v in values
    ) and all(type(x) is int for v in values for x in v)


def _int_keys(table: dict, field: str) -> list[int]:
    try:
        return list(map(int, table))
    except (TypeError, ValueError):
        raise DocumentError(f"{field} has a key that is not a vertex number") from None


def from_json(doc: dict) -> PlaneDualGraph:
    """Rebuild a graph from a to_json document, validating it on the way.

    Raises DocumentError on any malformed document.  n and the construction
    level k are bounded before anything of size 2^n or 2^k is built.
    """
    _require(isinstance(doc, dict), "document is not a JSON object")
    n = doc.get("n")
    _require(
        type(n) is int and 1 <= n <= MAX_DIMENSION,
        f"n must be an integer in [1, {MAX_DIMENSION}]",
    )
    table = doc.get("rotation")
    _require(
        isinstance(table, dict) and _int_lists(table.values()),
        "rotation must map each vertex to a list of integers",
    )
    rotation = dict(zip(_int_keys(table, "rotation"), map(list, table.values())))
    problems = rotation_problems(rotation, n)
    if problems:
        raise DocumentError(f"document rotation is inconsistent: {problems[0]}")
    stored_faces = doc.get("faces")
    _require(
        isinstance(stored_faces, list) and all(isinstance(f, dict) for f in stored_faces),
        "faces must be a list of objects",
    )
    outer_index = doc.get("outer_face")
    _require(
        type(outer_index) is int and 0 <= outer_index < len(stored_faces),
        "outer face index out of range",
    )
    walk = stored_faces[outer_index].get("vertices")
    _require(_int_lists([walk]) and len(walk) >= 2, "outer face needs at least 2 vertices")
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
    layout = None
    hint = doc.get("layout_hint")
    if hint is not None:
        _require(
            isinstance(hint, dict) and _int_lists(hint.values(), 2),
            "layout_hint must map each vertex to a [ring, position] pair",
        )
        layout = dict(zip(_int_keys(hint, "layout_hint"), map(tuple, hint.values())))
    g = PlaneDualGraph(
        n=n,
        rotation=rotation,
        outer_edge=(walk[0], walk[1]),
        construction=construction,
        layout=layout,
    )
    retraced = [
        {"vertices": list(f.vertices), "flips": list(f.flips)} for f in trace_faces(g)
    ]
    if retraced != stored_faces:
        raise DocumentError("stored faces disagree with the rotation system")
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
    if not g.layout:
        raise RenderError("no concentric layout")
    num_rings = max(ring for ring, _pos in g.layout.values())
    gap = max(3.0, 360.0 / num_rings)
    r_inner = 26.0
    r_outer = r_inner + gap * num_rings
    center = r_outer + 30.0
    two_n = 2 * g.n

    def position(v: int) -> tuple[float, float]:
        ring, p = g.layout[v]
        r = r_inner + gap * (num_rings - ring + 1)
        theta = 2.0 * pi * p / two_n - pi / 2.0
        return center + r * cos(theta), center + r * sin(theta)

    return position, center, r_outer, num_rings


_SVG_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n'


def render_dual_svg(g: PlaneDualGraph) -> str:
    """Concentric drawing of the dual graph: rings, cross edges, vertices."""
    position, center, r_outer, _num_rings = _layout_geometry(g)
    size = 2.0 * center
    parts = [
        _SVG_HEAD,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size)}" '
        f'height="{_fmt(size)}" viewBox="0 0 {_fmt(size)} {_fmt(size)}">\n',
        f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="white"/>\n',
    ]
    for u, v, _d in g.edges():
        same_ring = g.layout[u][0] == g.layout[v][0]
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


def render_primal_svg(g: PlaneDualGraph) -> str:
    """Schematic primal diagram: one bubble per crossing, one polyline per curve."""
    position, center, r_outer, num_rings = _layout_geometry(g)
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
        rings = {g.layout[v][0] for v in face.vertices}
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
    size = 2.0 * center
    parts = [
        _SVG_HEAD,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size)}" '
        f'height="{_fmt(size)}" viewBox="0 0 {_fmt(size)} {_fmt(size)}">\n',
        f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="white"/>\n',
    ]
    for j in range(1, g.n + 1):
        cycle, problem = face_cycle(g, j)
        if problem:
            raise RenderError(problem)
        coords = []
        for face_idx, edge in cycle:
            fx, fy = points[face_idx]
            coords.append((fx, fy))
            ux, uy = position(edge[0])
            vx, vy = position(edge[1])
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
