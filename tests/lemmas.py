"""Checkers for the paper's lemmas, used only by the tests.

The two bases B and C span one GF(2) subspace, the isometric paths and
cycles behind the cycle partition, Hamiltonicity of the long-run flip
sequences, and the second way to break the overlaps of a run partition.
No build, verify or export stage needs them.
"""

from __future__ import annotations

from typing import Sequence

from minvenn.bases import Basis, _check_level, _o_pairs
from minvenn.hypercube import MAX_CAP, Path, elements_of, mask_of
from minvenn.runs import INCREASING, Run, RunPartition, _maximal_runs


def basis_B(k: int) -> Basis:
    """Classic basis: level k adds {i, 2^(k-1)+i} for 1 <= i <= 2^(k-1)-1."""
    _check_level(k)
    pairs: list[tuple[int, int]] = []
    for level in range(2, k + 1):
        half = 1 << (level - 1)
        pairs.extend((i, half + i) for i in range(1, half))
    return Basis(k, tuple(map(mask_of, pairs)))


def basis_O(k: int) -> Basis:
    """The odd chain {1,3}, {3,5}, ..., {2^k-3, 2^k-1}."""
    _check_level(k)
    return Basis(k, tuple(map(mask_of, _o_pairs(k))))


def check_pairwise_distinct_endpoints(basis: Basis) -> bool:
    """All minima pairwise distinct and all maxima pairwise distinct."""
    lows = []
    highs = []
    for e in basis.elements:
        elems = elements_of(e)
        if len(elems) != 2:
            raise ValueError(f"basis element {elems} is not a 2-set")
        lows.append(elems[0])
        highs.append(elems[1])
    return len(set(lows)) == len(lows) and len(set(highs)) == len(highs)


def spans_equal(b1: Basis, b2: Basis) -> bool:
    """Whether both bases generate the same GF(2) subspace.

    Membership is decided by elimination, so the spans are never materialized.
    """
    if b1.k != b2.k:
        raise ValueError("bases live over different ground sets")
    if rank_gf2(b1.elements) != rank_gf2(b2.elements):
        return False
    return all(in_span(e, b2.elements) for e in b1.elements)


def ramras_path(x: int, n: int) -> Path:
    """The isometric path of length n-1 in Q_{n-1} through x with flips (1, ..., n-1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if x >> (n - 1):
        raise ValueError(f"start {x:#x} uses elements >= {n}")
    return Path(x, tuple(range(1, n)))


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


def is_hamiltonian_path(seq: tuple[int, ...], n: int) -> bool:
    """Whether walking seq from the empty set visits all 2^n vertices once."""
    if n > MAX_CAP:
        raise ValueError(f"Q_{n} walk exceeds cap {MAX_CAP}")
    if len(seq) != (1 << n) - 1:
        return False
    if any(not 1 <= f <= n for f in seq):
        return False
    visited = bytearray(1 << n)
    v = 0
    visited[0] = 1
    for f in seq:
        v ^= 1 << (f - 1)
        if visited[v]:
            return False
        visited[v] = 1
    return True


def later_run_partition(entries: tuple[int, ...], rho: int) -> RunPartition:
    """run_partition with each overlap element kept by the later of its two runs.

    The library keeps it in the earlier run; nu and lam must not depend on
    the choice, and the build reaches the same face count either way.
    """
    maximal = _maximal_runs(entries, rho)
    runs = []
    for t, (s, e, orient) in enumerate(maximal):
        if t + 1 < len(maximal) and maximal[t + 1][0] == e - 1:
            e -= 1
        runs.append(Run(s, e - s, orient if e - s > 1 else INCREASING))
    index: list[int | None] = [None] * len(entries)
    for rid, r in enumerate(runs):
        index[r.start_index : r.stop_index] = [rid] * r.element_count
    nu = len(runs)
    lam = sum(r.element_count - 1 for r in runs)
    return RunPartition(runs=tuple(runs), run_index=tuple(index), nu=nu, lam=lam)
