import hashlib

import pytest

from lemmas import (
    basis_B,
    basis_O,
    check_pairwise_distinct_endpoints,
    is_isometric_cycle,
    ramras_path,
    rank_gf2,
    spans_equal,
    walk,
)
from minvenn.bases import (
    Basis,
    _c_pairs,
    basis_C,
    cross_edges,
    partition_cycles,
    ring_prefixes,
)
from minvenn.hypercube import edge_direction, elements_of, mask_of, span


def pairs(basis):
    return [elements_of(e) for e in basis.elements]


def ring_flips(ring):
    length = len(ring)
    return tuple(edge_direction(ring[t], ring[(t + 1) % length]) for t in range(length))


def test_basis_B_small_levels():
    assert pairs(basis_B(1)) == []
    assert pairs(basis_B(2)) == [(1, 3)]
    assert pairs(basis_B(3)) == [(1, 3), (1, 5), (2, 6), (3, 7)]
    assert len(basis_B(4).elements) == 11


def test_basis_O_sizes():
    assert pairs(basis_O(1)) == []
    assert pairs(basis_O(3)) == [(1, 3), (3, 5), (5, 7)]
    for k in range(1, 6):
        assert len(basis_O(k).elements) == (1 << (k - 1)) - 1


def test_basis_C_small_levels():
    assert pairs(basis_C(2)) == [(1, 3)]
    assert pairs(basis_C(3)) == [(1, 3), (3, 5), (5, 7), (2, 6)]
    assert pairs(basis_C(4)) == [
        (1, 3), (3, 5), (5, 7), (7, 9), (9, 11), (11, 13), (13, 15),
        (2, 6), (6, 10), (10, 14), (4, 12),
    ]


@pytest.mark.parametrize("k", range(1, 6))
def test_basis_sizes(k):
    assert len(basis_C(k).elements) == (1 << k) - k - 1
    assert len(basis_B(k).elements) == (1 << k) - k - 1


def test_level_guard():
    with pytest.raises(ValueError):
        basis_C(0)
    with pytest.raises(ValueError):
        basis_C(6)


@pytest.mark.parametrize("k", range(1, 6))
def test_endpoints_distinct(k):
    assert check_pairwise_distinct_endpoints(basis_C(k))


def test_endpoints_shared_minimum_rejected():
    bad = Basis(2, (mask_of([1, 3]), mask_of([1, 4])))
    assert not check_pairwise_distinct_endpoints(bad)


@pytest.mark.parametrize("k", range(1, 6))
def test_spans_equal_for_both_bases(k):
    assert spans_equal(basis_B(k), basis_C(k))


@pytest.mark.parametrize("k", range(1, 6))
def test_rank_of_both_bases(k):
    want = (1 << k) - k - 1
    assert rank_gf2(basis_B(k).elements) == want
    assert rank_gf2(basis_C(k).elements) == want


def test_spans_equal_negative():
    b1 = Basis(2, (mask_of([1, 3]),))
    b2 = Basis(2, (mask_of([1, 4]),))
    assert not spans_equal(b1, b2)


def test_ramras_path_examples():
    p = ramras_path(0, 4)
    assert [elements_of(v) for v in walk(*p)] == [(), (1,), (1, 2), (1, 2, 3)]
    q = ramras_path(mask_of([1, 3]), 4)
    assert [elements_of(v) for v in walk(*q)] == [(1, 3), (3,), (2, 3), (2,)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ramras_path_ends_at_antipode(k):
    n = 1 << k
    for x in span(basis_C(k).elements):
        p = ramras_path(x, n)
        assert walk(*p)[-1] == p.start ^ ((1 << (n - 1)) - 1)


def test_ramras_cycle_shape():
    c = partition_cycles(2)[0]
    assert ring_flips(c) == (1, 2, 3, 4, 1, 2, 3, 4)
    assert len(c) == 8
    assert 0 in c and mask_of([1, 2, 3, 4]) in c


def test_ramras_cycles_isometric():
    for ring in partition_cycles(3):
        assert is_isometric_cycle(ring_flips(ring))


@pytest.mark.parametrize("k,cycles,total", [(1, 1, 4), (2, 2, 16), (3, 16, 256)])
def test_partition_cycles_counts(k, cycles, total):
    part = partition_cycles(k)
    assert len(part) == cycles
    seen = set()
    for c in part:
        for v in c:
            assert v not in seen
            seen.add(v)
    assert len(seen) == total


@pytest.mark.parametrize("k", [1, 2, 3])
def test_path_partition_covers_lower_cube(k):
    n = 1 << k
    seen = set()
    for x in span(basis_C(k).elements):
        for v in walk(*ramras_path(x, n)):
            assert v not in seen
            seen.add(v)
    assert seen == set(range(1 << (n - 1)))


def test_partition_cap():
    with pytest.raises(ValueError):
        partition_cycles(5)


def test_ring_prefixes_walk():
    pref = ring_prefixes(4)
    assert len(pref) == 8
    assert pref[0] == 0 and pref[4] == 0b1111
    # consecutive positions differ in exactly one element
    for t in range(8):
        diff = pref[t] ^ pref[(t + 1) % 8]
        assert diff and diff & (diff - 1) == 0


def test_cross_edge_set_F():
    f = cross_edges(0, 1, 3, "F", 4)
    verts = {v for e in f for v in e}
    assert verts == {mask_of(s) for s in ([], [1], [3], [1, 3])}
    dirs = sorted(edge_direction(u, v) for u, v in f)
    assert dirs == [1, 1, 3, 3]


def test_cross_edge_set_E_down_directions():
    e = cross_edges(0, 1, 3, "E_down", 4)
    dirs = [edge_direction(u, v) for u, v in e]
    assert dirs == [3, 1, 2]


def test_cross_edge_set_kind_constraints():
    with pytest.raises(ValueError):
        cross_edges(0, 2, 6, "E_down", 8)
    with pytest.raises(ValueError):
        cross_edges(0, 3, 1, "E", 8)
    with pytest.raises(ValueError):
        cross_edges(0, 2, 9, "E", 8)
    with pytest.raises(ValueError):
        cross_edges(0, 2, 6, "bogus", 8)


def test_cross_edges_digest():
    # Every kind on every ring of k = 2, 3, 4 and every pair of _c_pairs,
    # including pairs and kinds that no build reaches, hashed as one stream.
    h = hashlib.sha256()
    for k in (2, 3, 4):
        n = 1 << k
        for ring in partition_cycles(k):
            x = ring[0]
            for a, b in _c_pairs(k):
                kinds = ("E", "E_down", "E_up", "F") if b == a + 2 else ("E", "F")
                for kind in kinds:
                    h.update(repr((k, x, a, b, kind, cross_edges(x, a, b, kind, n))).encode())
    assert h.hexdigest() == "e612995d78ed64ae637f94b88ea565b1a757c2ef2bc15a8021687ad9e85d3fd3"


@pytest.mark.parametrize("kind,count", [("E", 4), ("E_down", 3), ("E_up", 3)])
def test_cross_edges_join_the_two_cycles(kind, count):
    n = 8
    prefixes = ring_prefixes(n)
    for x in span(basis_C(3).elements):
        for pair in basis_C(3).elements:
            a, b = elements_of(pair)
            if kind in ("E_down", "E_up") and b != a + 2:
                continue
            on_x = {x ^ m for m in prefixes}
            on_y = {x ^ pair ^ m for m in prefixes}
            edges = cross_edges(x, a, b, kind, n)
            assert len(edges) == count
            for u, v in edges:
                assert (u ^ v).bit_count() == 1
                assert u in on_x and v in on_y


def _cycle_edges(base, n):
    pref = ring_prefixes(n)
    ring = [base ^ m for m in pref]
    two_n = 2 * n
    return {tuple(sorted((ring[t], ring[(t + 1) % two_n]))) for t in range(two_n)}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_quad_merges_two_cycles_into_one(k):
    # symmetric difference with the F quad must leave a single 4n-cycle
    n = 1 << k
    for x in span(basis_C(k).elements):
        for pair in basis_C(k).elements:
            a, b = elements_of(pair)
            y = x ^ pair
            edges = _cycle_edges(x, n) ^ _cycle_edges(y, n)
            for u, v in cross_edges(x, a, b, "F", n):
                key = tuple(sorted((u, v)))
                edges ^= {key}
            adj = {}
            for u, v in edges:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            assert all(len(nb) == 2 for nb in adj.values())
            start = min(adj)
            prev, cur, steps = start, adj[start][0], 1
            while cur != start:
                a1, a2 = adj[cur]
                prev, cur = cur, (a2 if a1 == prev else a1)
                steps += 1
            assert steps == 4 * n == len(adj)


def test_consecutive_quads_edge_disjoint():
    # along any coefficient path, quads of consecutive steps never share edges
    from minvenn.runs import brgc

    n = 8
    masks = basis_C(3).elements
    x = 0
    quads = []
    for s in brgc(4):
        a, b = elements_of(masks[s - 1])
        quads.append({tuple(sorted(e)) for e in cross_edges(x, a, b, "F", n)})
        x ^= masks[s - 1]
    for q1, q2 in zip(quads, quads[1:]):
        assert not (q1 & q2)
