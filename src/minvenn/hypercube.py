"""Bitmask model of the hypercube Q_n: subsets of [n], paths and GF(2) spans.

A vertex of Q_n is a subset of [n] = {1, ..., n}, stored as an int bitmask
with element i on bit i-1.  Two vertices are adjacent when they differ in a
single element; that element is the direction of the edge.  A flip sequence
is a tuple of directions, and a path is its start vertex with its flips.
Everything here is a pure function over immutable values and safe to share
across threads.

This module is also the single home of every size limit in the package, and
of shown(), which prints a refused int in their messages.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

# Full 2^n vertex materialization is desk-scale only up to here by default.
DEFAULT_CAP = 16
# The largest cap a caller may ask for; flip sequences stop here as well.
MAX_CAP = 20
# Masks live in a machine word, so this also bounds every graph's n (checked
# where a PlaneDualGraph is made); materialized graphs stay far below this.
MAX_DIMENSION = 32
# Ground sets [2^k] of the bases must fit the mask, so levels stop at k = 5.
MAX_LEVEL = MAX_DIMENSION.bit_length() - 1
# Eager span materialization refuses more than 2^28 combinations.
SPAN_GUARD = 28


def shown(value: int) -> str:
    """A caller's int as a limit message prints it: in full up to 64 bits, past them by its size.

    str() refuses an int of more than 4300 digits, and a refusal must not fail.
    """
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
    return str(value)


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
