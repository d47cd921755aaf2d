import pytest
from hypothesis import given
from hypothesis import strategies as st

from lemmas import basis_B, in_span, is_isometric_cycle, is_isometric_path, rank_gf2, walk
from minvenn.bases import basis_C, partition_cycles, ring_prefixes
from minvenn.hypercube import edge_direction, mask_of, span


def test_antipode():
    # the partition cycle reaches the complement of each vertex halfway round
    for n in (1, 2, 4, 8):
        full = (1 << n) - 1
        pref = ring_prefixes(n)
        for p in range(n):
            assert pref[p + n] == pref[p] ^ full


def test_span_empty_basis():
    assert span([]) == [0]


def test_span_single():
    assert span([mask_of([1, 3])]) == [0, mask_of([1, 3])]


def test_span_size_of_level_basis():
    # dimension 2^k - k - 1 for k = 3 means 16 member combinations
    assert len(span(basis_C(3).elements)) == 16


def test_span_guard():
    with pytest.raises(ValueError):
        span([1 << i for i in range(29)])


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=5))
def test_span_closed_under_xor(masks):
    members = span(masks)
    assert members == sorted(set(members))
    assert 0 in members
    as_bits = set(members)
    for a in as_bits:
        for b in as_bits:
            assert (a ^ b) in as_bits


def test_walk_examples():
    assert walk(0, (1, 2, 3)) == [0, mask_of([1]), mask_of([1, 2]), mask_of([1, 2, 3])]
    assert walk(mask_of([1, 3]), (1,)) == [mask_of([1, 3]), mask_of([3])]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_walk_around_partition_cycles_closes(k):
    n = 1 << k
    flips = tuple(range(1, n + 1)) * 2
    for x in span(basis_C(k).elements):
        path = walk(x, flips)
        assert path[0] == path[-1] == x
        assert path[n] == x ^ ((1 << n) - 1)


def test_is_isometric_paths():
    assert is_isometric_path((1, 2, 3))
    assert not is_isometric_path((1, 2, 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_is_isometric_cycles(k):
    for ring in partition_cycles(k):
        length = len(ring)
        flips = [edge_direction(ring[t], ring[(t + 1) % length]) for t in range(length)]
        assert is_isometric_cycle(flips)


def test_is_isometric_cycle_pairing():
    assert is_isometric_cycle((1, 2, 1, 2))  # the two edges of each direction lie oppositely
    assert not is_isometric_cycle((1, 2, 1, 2, 3, 3))


def test_cycle_closure_validation():
    # a flip sequence that does not close up is no isometric cycle
    assert not is_isometric_cycle((1, 2, 3))


def test_rank_examples():
    assert rank_gf2(basis_B(3).elements) == 4
    x = mask_of([2, 5])
    assert rank_gf2([x, x]) == 1
    assert rank_gf2(basis_C(4).elements) == 11


def test_rank_matches_span_enumeration():
    # independent oracle: the span of an r-rank family has 2^r members
    elems = basis_C(3).elements
    assert len(span(elems)) == 1 << rank_gf2(elems)


def test_in_span():
    basis = [mask_of([1, 3]), mask_of([3, 4])]
    assert in_span(mask_of([1, 4]), basis)
    assert not in_span(mask_of([1, 2]), basis)
    assert in_span(0, [])
