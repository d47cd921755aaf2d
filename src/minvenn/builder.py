"""Concentric assembly of near-minimum Venn diagram duals for n = 2^k.

The 2^d translates of the isometric 2n-cycle are nested concentrically in
the order given by a Hamiltonian path over the basis coefficients.  Between
consecutive rings, three or four cross edges are inserted depending on
whether the coefficient flipped at that step lies in a rho-run; inside each
run, one ring edge per consecutive pair is removed, merging short faces.
The resulting rotation system has exactly

    2 * 2^n / n - nu - 2 * lam - 2

faces, where nu and lam are the run count and total run length of the
driving path at rho = n/2 - 1.  Every traced face is checked against a
closed catalog of flip-sequence templates; a mismatch aborts the build.
"""

from __future__ import annotations

from functools import lru_cache

from .bases import _c_pairs, _check_level, cross_edges, ring_prefixes
from .hypercube import DEFAULT_CAP, mask_of, shown
from .plane_graph import Face, PlaneDualGraph, crossing_count, trace_faces
from .runs import INCREASING, _check_longrun_level, product_path, run_partition


class BuildError(ValueError):
    """The requested build is invalid or failed its internal checks."""


class FaceCatalogMismatch(BuildError):
    """A traced face does not match any expected flip-sequence template."""


def driving_path(k: int):
    """Hamiltonian path over the 2^d coefficient tuples, rich in long runs."""
    _check_longrun_level(k - 1)  # before 2^(k-1) is formed
    return product_path(k - 1, (1 << (k - 1)) - k - 1)


def build_venn_dual(k: int) -> PlaneDualGraph:
    """Build the dual graph of an n-Venn diagram for n = 2^k, k >= 3."""
    if k < 3:
        raise BuildError(f"need k >= 3, got {shown(k)}")
    try:
        _check_level(k)  # before 2^k is formed
    except ValueError as exc:
        raise BuildError(str(exc)) from None
    n = 1 << k
    if n > DEFAULT_CAP:
        raise BuildError(f"n={n} exceeds the materialization cap {DEFAULT_CAP}")
    d = n - k - 1
    rho = n // 2 - 1

    sigma = driving_path(k).flips
    if any(not 1 <= s <= d for s in sigma):
        raise BuildError(f"driving path leaves Q_{d}")
    parts = run_partition(sigma, rho)

    prefixes = ring_prefixes(n)
    # For s <= rho the pair is {2s-1, 2s+1}, the odd chain's s-th element.
    pairs = _c_pairs(k)
    cmasks = [mask_of(p) for p in pairs]
    xs = [0]
    for s in sigma:
        xs.append(xs[-1] ^ cmasks[s - 1])
    nrings = 1 << d
    if len(xs) != nrings or len(set(xs)) != nrings:
        raise BuildError("coefficient path does not enumerate every ring once")

    cross_in: dict[int, int] = {}
    cross_out: dict[int, int] = {}
    cut: set[int] = set()
    for t, s in enumerate(sigma):
        x = xs[t]
        a, b = pairs[s - 1]
        if s <= rho:
            run = parts.runs[parts.run_index[t]]
            kind = "E_down" if run.orientation == INCREASING else "E_up"
        else:
            kind = "E"
        for u, v in cross_edges(x, a, b, kind, n):
            if u in cross_in or v in cross_out:
                raise BuildError(f"cross edge endpoint collision at gap {t}")
            cross_in[u] = v
            cross_out[v] = u

        if t >= 1:
            r_prev, r_cur = parts.run_index[t - 1], parts.run_index[t]
            if r_prev is not None and r_prev == r_cur:
                # Cut ring x's edge from position a_rm - 1 to a_rm.
                a_rm = a if parts.runs[r_cur].orientation == INCREASING else b
                cut.add(x ^ prefixes[a_rm - 1])

    g = _concentric_graph(xs, n, (k, 0), cross_in, cross_out, cut)
    check_face_catalog(g)
    expected = 2 + 4 * (nrings - 1) - parts.nu - 2 * parts.lam
    got = crossing_count(g)
    if got != expected:
        raise BuildError(f"traced {got} faces, run statistics demand {expected}")
    return g


def partition_preview_graph(rings: list[list[int]]) -> PlaneDualGraph:
    """The rings of partition_cycles nested concentrically (no cross edges), for drawing only.

    The result is disconnected for k >= 2, so it is not a Venn diagram dual;
    it exists to preview the ring layout.
    """
    bases = [ring[0] for ring in rings]
    return _concentric_graph(bases, len(rings[0]) // 2, None, {}, {}, set())


def _concentric_graph(
    ring_bases: list[int],
    n: int,
    construction: tuple[int, int] | None,
    cross_in: dict[int, int],
    cross_out: dict[int, int],
    cut: set[int],
) -> PlaneDualGraph:
    """Nest the 2n-cycles through ring_bases, outermost first, into one plane graph.

    cross_in and cross_out map a vertex to its inward and outward cross edge
    neighbor; the ring edge from each vertex in cut to its ring successor is
    left out.  The outer face is the outermost ring.
    """
    prefixes = ring_prefixes(n)
    two_n = 2 * n
    rotation: list[tuple[int, ...]] = [()] * (1 << n)
    for base in ring_bases:
        ring = [base ^ m for m in prefixes]
        for p, v in enumerate(ring):
            # Cyclic order: successor on the ring, inward cross edge,
            # predecessor on the ring, outward cross edge.
            order = []
            nxt = ring[(p + 1) % two_n]
            prv = ring[(p - 1) % two_n]
            if v not in cut:
                order.append(nxt)
            if v in cross_in:
                order.append(cross_in[v])
            if prv not in cut:
                order.append(prv)
            if v in cross_out:
                order.append(cross_out[v])
            rotation[v] = tuple(order)
    return PlaneDualGraph(
        n=n,
        rotation=rotation,
        outer_edge=(ring_bases[0], ring_bases[0] ^ prefixes[1]),
        construction=construction,
        ring_bases=tuple(ring_bases),
    )


# ---------------------------------------------------------------------------
# Face catalog
# ---------------------------------------------------------------------------
#
# Every face a build can produce has one of a handful of flip-sequence
# shapes, compared as cyclic words up to rotation and reflection:
#
#   ring        (1, ..., n, 1, ..., n), the outermost and innermost faces
#   merged-run  chains of short faces glued along a run; one short face is
#               (a, a+1, a, a+2, a+1, a+2), a chain of b of them has length 4b+2
#   pair-short  (a, ..., b-1, a, b, b-1, ..., a+1, b) between rings differing
#               in a generic pair {a, b}
#   pair-long   (b, ..., n, 1, ..., a-1, b, a, a-1, ..., 1, n, ..., b+1, a)
#   run-long    the two 2n-faces flanking a short face
#   doubled     (permutation of [N-1], N, permutation of [N-1], N) created
#               when a doubling step introduces direction N


def canonical_cycle(word) -> tuple[int, ...]:
    """Smallest rotation of the word or its reversal, as a tuple.

    A smallest rotation begins with the word's smallest letter, so only the
    rotations that start there are compared.
    """
    w = tuple(word)
    length = len(w)
    low = min(w, default=None)
    return min(
        (
            doubled[i : i + length]
            for cand_base in (w, w[::-1])
            for doubled in (cand_base + cand_base,)
            for i, letter in enumerate(cand_base)
            if letter == low
        ),
        default=None,
    )


def _ring_template(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1)) * 2


def _merged_template(a: int, blocks: int) -> tuple[int, ...]:
    word = [a, a + 1, a]
    for t in range(1, blocks):
        word += [a + 2 * t + 1, a + 2 * t]
    word += [a + 2 * blocks, a + 2 * blocks - 1, a + 2 * blocks]
    for t in range(blocks - 2, -1, -1):
        word += [a + 2 * t + 1, a + 2 * t + 2]
    return tuple(word)


def _pair_short_template(a: int, b: int) -> tuple[int, ...]:
    return tuple(range(a, b)) + (a, b) + tuple(range(b - 1, a, -1)) + (b,)


def _pair_long_template(a: int, b: int, n: int) -> tuple[int, ...]:
    return (
        tuple(range(b, n + 1))
        + tuple(range(1, a))
        + (b, a)
        + tuple(range(a - 1, 0, -1))
        + tuple(range(n, b, -1))
        + (a,)
    )


def _run_long_templates(a: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    t1 = (
        tuple(range(a + 2, n + 1))
        + tuple(range(1, a))
        + (a + 1, a + 2)
        + tuple(range(a + 1, 0, -1))
        + tuple(range(n, a + 2, -1))
        + (a,)
    )
    t2 = (
        tuple(range(a, n + 1))
        + tuple(range(1, a))
        + (a + 2,)
        + tuple(range(a, 0, -1))
        + tuple(range(n, a + 2, -1))
        + (a + 1,)
    )
    return t1, t2


@lru_cache(maxsize=None)
def face_catalog(n: int) -> dict[tuple[int, ...], str]:
    """Canonical words of every face shape a power-of-two build can produce."""
    catalog: dict[tuple[int, ...], str] = {}
    for a in range(1, n - 1):
        t1, t2 = _run_long_templates(a, n)
        catalog[canonical_cycle(t1)] = "run-long"
        catalog[canonical_cycle(t2)] = "run-long"
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            catalog[canonical_cycle(_pair_short_template(a, b))] = "pair-short"
            catalog[canonical_cycle(_pair_long_template(a, b, n))] = "pair-long"
    for blocks in range(1, (n - 1) // 2 + 1):
        for a in range(1, n - 2 * blocks + 1):
            catalog[canonical_cycle(_merged_template(a, blocks))] = "merged-run"
    catalog[canonical_cycle(_ring_template(n))] = "ring"
    return catalog


def classify_face(face: Face, base_n: int) -> str | None:
    """Template name of a face, or None if it matches nothing.

    Faces whose largest direction exceeds base_n must come from a doubling
    step; their shape is checked structurally instead of via the catalog.
    """
    word = face.flips
    top = max(word)
    if top > base_n:
        if len(word) != 2 * top or word.count(top) != 2:
            return None
        i = word.index(top)
        j = word.index(top, i + 1)
        half1 = word[i + 1 : j]
        half2 = word[j + 1 :] + word[:i]
        want = frozenset(range(1, top))
        if (
            len(half1) == top - 1
            and len(half2) == top - 1
            and set(half1) == want
            and set(half2) == want
        ):
            return "doubled"
        return None
    return face_catalog(base_n).get(canonical_cycle(word))


def check_face_catalog(g: PlaneDualGraph) -> dict[str, int]:
    """Classify every traced face; raise if any face matches no template.

    Each distinct flip word is classified once, at its first face.
    """
    base_n = (1 << g.construction[0]) if g.construction else g.n
    names: dict[tuple[int, ...], str] = {}
    counts: dict[str, int] = {}
    for idx, f in enumerate(trace_faces(g)):
        if (name := names.get(f.flips)) is None:
            if (name := classify_face(f, base_n)) is None:
                raise FaceCatalogMismatch(
                    f"face {idx} (length {len(f)}) with flips {f.flips} matches no template"
                )
            names[f.flips] = name
        counts[name] = counts.get(name, 0) + 1
    return counts
