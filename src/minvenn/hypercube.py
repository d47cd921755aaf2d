"""Bitmask model of the hypercube Q_n: subsets of [n], GF(2) algebra, walks.

A vertex of Q_n is a subset of [n] = {1, ..., n}, stored as an int bitmask
with element i on bit i-1.  Two vertices are adjacent when they differ in a
single element; that element is the direction of the edge.  A flip sequence
is a tuple of directions, and a path is its start vertex with its flips.
Everything here is a pure function over immutable values and safe to share
across threads.

This module is also the single home of every size limit in the package.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

# Full 2^n vertex materialization is desk-scale only up to here by default.
DEFAULT_CAP = 16
# The largest cap a caller may ask for; flip sequences stop here as well.
MAX_CAP = 20
# Masks live in a machine word; materialized graphs stay far below this.
MAX_DIMENSION = 32
# Ground sets [2^k] of the bases must fit the mask, so levels stop at k = 5.
MAX_LEVEL = MAX_DIMENSION.bit_length() - 1
# Eager span materialization refuses more than 2^28 combinations.
SPAN_GUARD = 28


class Path(NamedTuple):
    """A walk in Q_n: its start vertex and the directions it flips in turn."""

    start: int
    flips: tuple[int, ...]


def mask_of(elements: Iterable[int]) -> int:
    """Encode 1-based elements as a bitmask."""
    mask = 0
    for i in elements:
        mask |= 1 << (i - 1)
    return mask


def elements_of(bits: int) -> tuple[int, ...]:
    """Decode a bitmask into its sorted 1-based elements."""
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def edge_direction(u: int, v: int) -> int:
    """Direction of the hypercube edge {u, v}; raises if u, v are not adjacent."""
    diff = u ^ v
    if diff == 0 or diff & (diff - 1):
        raise ValueError(f"masks {u:#x} and {v:#x} do not span a hypercube edge")
    return diff.bit_length()


def walk(start: int, flips: Sequence[int]) -> list[int]:
    """Vertex sequence v_0 = start, v_j = v_{j-1} (+) {flip_j}."""
    out = [start]
    bits = start
    for f in flips:
        bits ^= 1 << (f - 1)
        out.append(bits)
    return out


def is_isometric_path(flips: Sequence[int]) -> bool:
    """Whether a path with these flips is distance-preserving: no direction repeats."""
    return len(set(flips)) == len(flips)


def is_isometric_cycle(flips: Sequence[int]) -> bool:
    """Whether a closed walk with these flips is distance-preserving in Q_n.

    Every direction must occur 0 or 2 times, with the two occurrences lying
    oppositely on the cycle; such a walk always closes up.
    """
    length = len(flips)
    positions: dict[int, list[int]] = {}
    for idx, f in enumerate(flips):
        positions.setdefault(f, []).append(idx)
    return all(
        len(idxs) == 2 and idxs[1] - idxs[0] == length // 2 for idxs in positions.values()
    )


def span(masks: Sequence[int]) -> list[int]:
    """Sorted list of all GF(2) combinations of the masks, materialized eagerly.

    An empty family spans [0].
    """
    if len(masks) > SPAN_GUARD:
        raise ValueError(
            f"span of {len(masks)} generators exceeds the 2^{SPAN_GUARD} guard"
        )
    out = {0}
    for m in masks:
        out |= {s ^ m for s in out}
    return sorted(out)


def _insert_pivot(pivots: dict[int, int], mask: int) -> bool:
    """Reduce mask against the pivot table; insert the remainder if nonzero."""
    cur = mask
    while cur:
        lead = cur.bit_length() - 1
        if lead in pivots:
            cur ^= pivots[lead]
        else:
            pivots[lead] = cur
            return True
    return False


def rank_gf2(vectors: Sequence[int]) -> int:
    """GF(2) rank of the masks viewed as characteristic vectors."""
    pivots: dict[int, int] = {}
    return sum(_insert_pivot(pivots, v) for v in vectors)


def in_span(vec: int, basis: Sequence[int]) -> bool:
    """GF(2) membership test via elimination, without materializing the span."""
    pivots: dict[int, int] = {}
    for b in basis:
        _insert_pivot(pivots, b)
    cur = vec
    while cur:
        lead = cur.bit_length() - 1
        if lead not in pivots:
            return False
        cur ^= pivots[lead]
    return True
