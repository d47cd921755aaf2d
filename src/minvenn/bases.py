"""Bases of the cycle-partition subspace, the partition itself, and cross edges.

The basis basis_C of a GF(2) subspace over the ground set [2^k] maximizes
the number of 2-sets {a, a+2}; it spans the same subspace as the classic
basis B.  Spanning it yields translates of one isometric 2n-cycle that
partition the vertex set of Q_n for n = 2^k.  The edge sets
between two cycles whose translates differ by a basis element feed both the
long-run Gray code and the concentric diagram builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hypercube import DEFAULT_CAP, MAX_DIMENSION, MAX_LEVEL, mask_of, shown, span


@dataclass(frozen=True)
class Basis:
    """An ordered GF(2) basis of 2-element subsets of [2^k], each a bitmask."""

    k: int
    elements: tuple[int, ...]


def _check_level(k: int) -> None:
    if k < 1:
        raise ValueError(f"basis level must be >= 1, got {shown(k)}")
    if k > MAX_LEVEL:
        raise ValueError(f"ground set 2^{shown(k)} exceeds the {1 << MAX_LEVEL}-bit mask model")


def _o_pairs(k: int) -> list[tuple[int, int]]:
    return [(2 * i - 1, 2 * i + 1) for i in range(1, 1 << (k - 1))]


def _c_pairs(k: int) -> list[tuple[int, int]]:
    if k == 1:
        return []
    return _o_pairs(k) + [(2 * a, 2 * b) for a, b in _c_pairs(k - 1)]


def basis_C(k: int) -> Basis:
    """Alternative basis: the odd chain followed by the doubled level below it."""
    _check_level(k)
    return Basis(k, tuple(map(mask_of, _c_pairs(k))))


def partition_cycles(k: int) -> list[list[int]]:
    """The isometric 2n-cycles through every span member, as vertex lists.

    They partition V(Q_n) for n = 2^k.  The cycle through x flips
    (1, ..., n, 1, ..., n) from x; its list starts at x and omits the
    closing return to x.
    """
    _check_level(k)
    n = 1 << k
    if n > DEFAULT_CAP:
        raise ValueError(f"Q_{n} exceeds the materialization cap {DEFAULT_CAP}")
    prefixes = ring_prefixes(n)
    return [[x ^ m for m in prefixes] for x in span(basis_C(k).elements)]


@lru_cache(maxsize=None)
def ring_prefixes(n: int) -> tuple[int, ...]:
    """Masks m_p with ring vertex p equal to base ^ m_p, p = 0, ..., 2n-1.

    Positions 0..n walk the flips 1..n from the base vertex; positions past n
    continue from the complement of the base vertex.
    """
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"rings need 1 <= n <= {MAX_DIMENSION}, got {shown(n)}")
    full = (1 << n) - 1
    pref = tuple((1 << j) - 1 for j in range(n + 1))
    return pref + tuple(full ^ pref[t] for t in range(1, n))


def cross_edges(x: int, a: int, b: int, kind: str, n: int) -> tuple[tuple[int, int], ...]:
    """Edges between the cycles through x and through y = x (+) {a, b}.

    Kinds: "E" is the four-edge set for a generic pair {a, b}; "E_down" and
    "E_up" are the three-edge sets for pairs {a, a+2}, each edge an (outer,
    inner) pair with outer on the cycle through x; "F" is the 4-cycle whose
    symmetric difference merges the two 2n-cycles into one 4n-cycle.  Each
    kind is a table of ring positions (see ring_prefixes), position 2n
    being position 0.
    """
    if not 1 <= a < b <= n:
        raise ValueError(f"need 1 <= a < b <= n, got a={a}, b={b}, n={n}")
    pref = ring_prefixes(n)
    two_n = 2 * n
    y = x ^ (1 << (a - 1)) ^ (1 << (b - 1))
    if kind == "F":
        # Closed 4-cycle on positions a-1, a of ring x, then a-1, a of ring y,
        # with flips (a, b, a, b), listed as its four edges.
        quad = (x ^ pref[a - 1], x ^ pref[a], y ^ pref[a - 1], y ^ pref[a])
        return tuple(zip(quad, quad[1:] + quad[:1]))
    if kind == "E":
        table = ((a - 1, a), (b - 1, b), (n + a - 1, n + a), (n + b - 1, n + b))
    elif kind in ("E_down", "E_up"):
        if b != a + 2:
            raise ValueError(f"{kind} requires a pair of the form {{a, a+2}}")
        table = ((a - 1, a), (a + 1, a + 2), (n + a - 1, n + a + 2))
        if kind == "E_up":
            # E_up mirrors E_down with its short faces shifted up by one ring
            # position, so consecutive decreasing-run insertions share the
            # ring edge that the builder later removes.
            table = tuple((q, p) for p, q in table)
    else:
        raise ValueError(f"unknown cross edge kind {kind!r}")
    return tuple((x ^ pref[p % two_n], y ^ pref[q % two_n]) for p, q in table)
