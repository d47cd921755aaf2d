"""Doubling a diagram through a colorful face, and the any-n entry point.

A face is colorful if it has length 2n and contains two antipodal vertices.
Splitting such a face with two new edges joins the graph to a mirrored copy
carrying the new element n+1, exactly doubling the face count.  Iterating
from the largest power-of-two build at or below the target dimension yields
a diagram for every n >= 8.
"""

from __future__ import annotations

from functools import lru_cache

from .builder import BuildError, build_venn_dual
from .hypercube import DEFAULT_CAP, MAX_CAP, MAX_DIMENSION, shown
from .plane_graph import PlaneDualGraph, trace_faces


class DoublingError(ValueError):
    """The graph cannot be doubled (typically: its outer face is not colorful)."""


def _colorful(verts: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int] | None:
    """verts and its smallest vertex whose complement is also on it.

    None if the face walk verts is not colorful.
    """
    if len(verts) != 2 * n:
        return None
    members = set(verts)
    if len(members) != len(verts):
        return None
    full = (1 << n) - 1
    v = min((v for v in members if v ^ full in members), default=None)
    return None if v is None else (verts, v)


def find_colorful_face(g: PlaneDualGraph) -> tuple[tuple[int, ...], int] | None:
    """The traced outer face's vertex walk and its colorful vertex.

    None if the outer face is not colorful.  Raises InconsistentRotation if
    g does not trace or its outer_edge is not in the rotation.
    """
    return _colorful(trace_faces(g)[g.outer_face_index()].vertices, g.n)


def _insert_after(row: tuple[int, ...], anchor: int, item: int) -> tuple[int, ...]:
    """The row with item inserted just after anchor."""
    i = row.index(anchor) + 1
    return row[:i] + (item,) + row[i:]


def _double(g: PlaneDualGraph, verts: tuple[int, ...], vertex: int):
    """The doubled graph, joined at vertex and its complement on the colorful face verts.

    The second copy carries element n+1 on every vertex and is mirrored (all
    rotations reversed).  It maps each vertex v through one image list,
    image[v] = v | 2^n, so each new vertex is one int object wherever it is
    listed.  The original copy shares every tuple row of g except the two
    that take a joining edge (tuple() of a tuple is that tuple); a hand-made
    list row is copied.

    Also returns the new outer face's walk from outer_edge: with w = verts,
    vertex = w_i, its complement w_j and x' the image of x, it is w_i, w_i',
    w_(i-1)', ..., w_j', w_j, ..., w_(i-1).  It meets each of the four
    joined rows once, since verts holds no vertex twice.
    """
    n = g.n
    if n + 1 > MAX_DIMENSION:
        raise DoublingError(f"doubling past dimension {MAX_DIMENSION} is unsupported")
    bit = 1 << n
    image = list(range(bit, 2 * bit))
    mirror = image.__getitem__
    rotation = [
        *map(tuple, g.rotation),
        *(tuple(map(mirror, reversed(nbrs))) for nbrs in g.rotation),
    ]

    complement = vertex ^ ((1 << n) - 1)
    length = len(verts)
    i = verts.index(vertex)
    j = verts.index(complement)
    # Each new edge sits in the face corner it splits: after the walk
    # predecessor in the original copy, after the walk successor's image in
    # the mirrored copy.
    for v, anchor, item in (
        (vertex, verts[(i - 1) % length], image[vertex]),
        (complement, verts[(j - 1) % length], image[complement]),
        (image[vertex], image[verts[(i + 1) % length]], vertex),
        (image[complement], image[verts[(j + 1) % length]], complement),
    ):
        rotation[v] = _insert_after(rotation[v], anchor, item)

    construction = None
    if g.construction is not None:
        construction = (g.construction[0], g.construction[1] + 1)
    doubled = PlaneDualGraph(
        n=n + 1,
        rotation=rotation,
        outer_edge=(vertex, image[vertex]),
        construction=construction,
    )
    back = (verts[j:] + verts[:j])[: (i - j) % length]  # w_j, ..., w_(i-1)
    return doubled, (vertex, *map(mirror, (vertex, *reversed(back))), *back)


def _doubled(g: PlaneDualGraph, m: int) -> PlaneDualGraph:
    """g doubled m times, each time through its outer face.

    Only g (a base build has cached its trace) and the result are traced:
    g's outer face comes from its trace, by find_colorful_face, and each
    later one from the _double step that made it.  The result must have
    2^m times g's faces.
    """
    want = len(trace_faces(g)) << m
    walk = None
    for _ in range(m):
        found = find_colorful_face(g) if walk is None else _colorful(walk, g.n)
        if found is None:
            raise DoublingError(f"the outer face of the n={g.n} graph is not colorful")
        g, walk = _double(g, *found)
    got = len(trace_faces(g))
    if got != want:
        raise DoublingError(f"doubling produced {got} faces, expected {want}")
    return g


def double(g: PlaneDualGraph) -> PlaneDualGraph:
    """An (n+1)-dimensional dual with exactly twice as many faces.

    g's outer face must be colorful (see _double).  The new graph's outer
    face is again colorful, so doubling can be iterated.
    """
    return _doubled(g, 1)


@lru_cache(maxsize=None)
def _base(k: int) -> PlaneDualGraph:
    """The 2^k build, kept for the life of the process.

    Its fields are frozen and its rows are tuples, so every build_venn call
    with this k can double from the same graph.
    """
    return build_venn_dual(k)


def build_venn(n_total: int, cap: int = DEFAULT_CAP) -> PlaneDualGraph:
    """Dual graph of an n-Venn diagram for any n >= 8.

    Starts from the largest power-of-two instance at or below n, built once
    per process (see _base), and doubles it the remaining m = n - 2^k times
    (see _doubled).
    """
    if n_total < 8:
        raise BuildError(f"need n >= 8, got {shown(n_total)}")
    if cap > MAX_CAP:
        raise BuildError(f"cap={shown(cap)} exceeds the largest cap {MAX_CAP}")
    if n_total > cap:
        raise BuildError(f"n={shown(n_total)} exceeds the materialization cap {cap}")
    k = n_total.bit_length() - 1
    return _doubled(_base(k), n_total - (1 << k))
