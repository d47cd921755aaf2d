"""Run statistics of flip sequences and Hamiltonian paths rich in long runs.

A rho-run of a flip sequence is a contiguous stretch that steps by +1 or -1
with all values at most rho.  The partition into maximal runs (after breaking
one-element overlaps between consecutive maximal runs) yields the run count
nu and total run length lam; those two numbers do not depend on how the
overlaps are broken.  The Hamiltonian path constructions below maximize
nu + 2*lam at rho = n - 1, which is exactly what the diagram builder needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bases import _c_pairs, _check_level, cross_edges, partition_cycles
from .hypercube import MAX_CAP, Path, edge_direction, mask_of, shown

INCREASING = "increasing"
DECREASING = "decreasing"

# Flip sequence of an explicit Hamiltonian path in Q_4 whose 3-runs are as
# long as possible: nu_3 = 6 and lam_3 = 8.
_Q4_LONGRUN = (1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 1, 2, 3, 2, 1)


@dataclass(frozen=True)
class Run:
    """One run of a fixed rho-run partition, as indices into the sequence."""

    start_index: int
    element_count: int
    orientation: str

    @property
    def stop_index(self) -> int:
        return self.start_index + self.element_count


@dataclass(frozen=True)
class RunPartition:
    """A fixed rho-run partition with its run count nu and total length lam."""

    runs: tuple[Run, ...]
    run_index: tuple[int | None, ...]
    nu: int
    lam: int


def _maximal_runs(entries: tuple[int, ...], rho: int) -> list[tuple[int, int, str]]:
    """Maximal rho-runs as (start, stop, orientation); stop is exclusive."""
    out: list[tuple[int, int, str]] = []
    length = len(entries)
    i = 0
    while i < length:
        if entries[i] > rho:
            i += 1
            continue
        step = 0
        if i + 1 < length and entries[i + 1] <= rho:
            diff = entries[i + 1] - entries[i]
            if diff in (1, -1):
                step = diff
        if step == 0:
            out.append((i, i + 1, INCREASING))
            i += 1
            continue
        j = i
        while j + 1 < length and entries[j + 1] <= rho and entries[j + 1] - entries[j] == step:
            j += 1
        out.append((i, j + 1, INCREASING if step == 1 else DECREASING))
        if j + 1 < length and entries[j + 1] <= rho and entries[j + 1] - entries[j] == -step:
            # The next maximal run overlaps this one in its last element.
            i = j
        else:
            i = j + 1
    return out


def run_partition(entries: tuple[int, ...], rho: int) -> RunPartition:
    """Fixed rho-run partition of the sequence.

    Two consecutive maximal runs can overlap in one element; the earlier run
    keeps it.  Runs that end up with a single element count as increasing.
    """
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {shown(rho)}")
    if any(e < 1 for e in entries):
        raise ValueError("flip directions must be >= 1")
    runs: list[Run] = []
    for s, e, orient in _maximal_runs(entries, rho):
        if runs and runs[-1].stop_index == s + 1:
            s += 1
        runs.append(Run(s, e - s, orient if e - s > 1 else INCREASING))
    index: list[int | None] = [None] * len(entries)
    for rid, r in enumerate(runs):
        for p in range(r.start_index, r.stop_index):
            index[p] = rid
    nu = len(runs)
    lam = sum(r.element_count - 1 for r in runs)
    return RunPartition(runs=tuple(runs), run_index=tuple(index), nu=nu, lam=lam)


def mu(entries: tuple[int, ...]) -> int:
    """Number of consecutive entry pairs differing by exactly one."""
    if not entries:
        raise ValueError("mu needs a nonempty sequence")
    return sum(1 for t in range(len(entries) - 1) if abs(entries[t + 1] - entries[t]) == 1)


def brgc(n: int) -> tuple[int, ...]:
    """Flip sequence of the binary reflected Gray code on n bits.

    Entry j is one plus the 2-adic valuation of j, so for n >= 4 the sequence
    alternates copies of (1, 2, 1, 3, 1, 2, 1) with single flips >= 4.
    """
    if not 1 <= n <= MAX_CAP:
        raise ValueError(f"need 1 <= n <= {MAX_CAP}, got {shown(n)}")
    return tuple((j & -j).bit_length() for j in range(1, 1 << n))


def _longrun_coefficient_order(k: int) -> list[tuple[int, int]]:
    """Basis order for the long-run construction: {1,3}, {3,5}, {2,6} first."""
    pairs = _c_pairs(k)
    head = [(1, 3), (3, 5), (2, 6)]
    for h in head:
        if h not in pairs:
            raise ValueError(f"basis for k={k} lacks required pair {h}")
    rest = sorted(p for p in pairs if p not in head)
    return head + rest


def _check_longrun_level(k: int) -> None:
    """The long-run levels are 2 <= k <= MAX_LEVEL; checked before 2^k is formed."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {shown(k)}")
    _check_level(k)


def _toggle(adj: dict[int, list[int]], u: int, v: int) -> None:
    lu = adj.setdefault(u, [])
    lv = adj.setdefault(v, [])
    if v in lu:
        lu.remove(v)
        lv.remove(u)
    else:
        lu.append(v)
        lv.append(u)


def longrun_path(k: int) -> Path:
    """Hamiltonian path of Q_n, n = 2^k, maximizing (n-1)-run coverage.

    For k = 2 this is an explicit path.  For k >= 3 the 2n-cycles through the
    span of the level-k basis are merged into one Hamiltonian cycle by taking
    the symmetric difference with a 4-cycle per step of a reflected Gray code
    over the basis coefficients; cutting one n-edge yields the path.
    """
    _check_longrun_level(k)
    if k == 2:
        return Path(0, _Q4_LONGRUN)
    n = 1 << k
    rings = partition_cycles(k)  # checks the cap before any work
    d = n - k - 1
    pairs = _longrun_coefficient_order(k)
    cmasks = [mask_of(p) for p in pairs]

    adj: dict[int, list[int]] = {}
    for ring in rings:
        for u, v in zip(ring, ring[1:] + ring[:1]):
            _toggle(adj, u, v)

    x = 0
    for s in brgc(d):
        a, b = pairs[s - 1]
        for u, v in cross_edges(x, a, b, "F", n):
            _toggle(adj, u, v)
        x ^= cmasks[s - 1]

    total = 1 << n
    verts = [0]
    prev = 0
    cur = min(adj[0], key=lambda v: v.bit_length())
    while cur != 0:
        verts.append(cur)
        nb = adj[cur]
        if len(nb) != 2:
            raise RuntimeError(f"vertex {cur:#x} has degree {len(nb)} after merging")
        first, second = nb
        prev, cur = cur, (second if first == prev else first)
    if len(verts) != total:
        raise RuntimeError("cycle factor did not merge into a single Hamiltonian cycle")

    flips = [edge_direction(verts[t], verts[(t + 1) % total]) for t in range(total)]
    cut = flips.index(n)
    path_flips = tuple(flips[cut + 1 :] + flips[:cut])
    start = verts[(cut + 1) % total]
    return Path(start, path_flips)


def product_path(k: int, m: int) -> Path:
    """Hamiltonian path of Q_{n+m}, n = 2^k, scaling the long-run path 2^m times.

    The flip sequence alternates forward and reversed copies of the base
    sequence, joined by single flips above n taken from a Gray code on the
    extra m directions.  Run statistics below n scale exactly by 2^m.
    """
    _check_longrun_level(k)
    n = 1 << k
    if m < 0 or m >= n:
        raise ValueError(f"need 0 <= m < 2^k, got m={shown(m)}")
    if n + m > MAX_CAP:
        raise ValueError(f"sequence for Q_{n + m} exceeds cap {MAX_CAP}")
    base = longrun_path(k)
    if m == 0:
        return base
    fwd = base.flips
    rev = fwd[::-1]
    out: list[int] = []
    connectors = brgc(m)
    for t, s in enumerate(connectors):
        out.extend(fwd if t % 2 == 0 else rev)
        out.append(s + n)
    out.extend(fwd if len(connectors) % 2 == 0 else rev)
    return Path(base.start, tuple(out))
