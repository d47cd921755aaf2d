import pytest
from hypothesis import given
from hypothesis import strategies as st

from lemmas import is_hamiltonian_path, later_run_partition
from minvenn import runs
from minvenn.hypercube import edge_direction, mask_of
from minvenn.runs import DECREASING, INCREASING, brgc, longrun_path, mu, product_path, run_partition


def test_run_partition_worked_example():
    parts = run_partition((1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 1, 2, 3, 2, 1), 3)
    assert (parts.nu, parts.lam) == (6, 8)
    assert [r.orientation for r in parts.runs] == [
        INCREASING, DECREASING, INCREASING, DECREASING, INCREASING, DECREASING,
    ]


def test_run_partition_overlap_heavy_sequence_follows_identity():
    seq = (3, 1, 2, 3, 2, 1, 2, 4, 3, 2, 4)
    parts = run_partition(seq, 3)
    assert (parts.nu, parts.lam) == (5, 4)
    over = sum(1 for e in seq if e > 3)
    assert over == len(seq) - parts.nu - parts.lam


def test_run_partition_empty():
    parts = run_partition((), 3)
    assert (parts.nu, parts.lam) == (0, 0)
    assert parts.runs == ()


def test_run_partition_singletons_count_as_increasing():
    parts = run_partition((1, 3, 1), 3)
    assert parts.nu == 3 and parts.lam == 0
    assert all(r.orientation == INCREASING for r in parts.runs)
    # entries above rho belong to no run
    parts = run_partition((2, 4, 2), 3)
    assert parts.nu == 2 and parts.lam == 0
    # a one-element remnant of a decreasing overlap is increasing by convention
    parts = run_partition((3, 2, 3), 3)
    assert [r.element_count for r in parts.runs] == [2, 1]
    assert parts.runs[1].orientation == INCREASING


def test_run_partition_tie_break_modes():
    seq = (1, 2, 3, 2, 1)
    early = run_partition(seq, 3)
    late = later_run_partition(seq, 3)
    assert [(r.start_index, r.element_count) for r in early.runs] == [(0, 3), (3, 2)]
    assert [(r.start_index, r.element_count) for r in late.runs] == [(0, 2), (2, 3)]
    assert (early.nu, early.lam) == (late.nu, late.lam) == (2, 3)


def test_run_partition_run_index_alignment():
    seq = (1, 2, 4, 4, 3, 2)
    parts = run_partition(seq, 3)
    assert parts.run_index == (0, 0, None, None, 1, 1)


def test_run_partition_validation():
    with pytest.raises(ValueError):
        run_partition((1,), 0)
    with pytest.raises(ValueError):
        run_partition((1, 0, 1), 3)


seqs = st.lists(st.integers(min_value=1, max_value=6), max_size=60)


@given(entries=seqs, rho=st.integers(min_value=1, max_value=6))
def test_run_partition_identity_and_invariance(entries, rho):
    seq = tuple(entries)
    early = run_partition(seq, rho)
    late = later_run_partition(seq, rho)
    over = sum(1 for e in entries if e > rho)
    assert over == len(entries) - early.nu - early.lam
    assert (early.nu, early.lam) == (late.nu, late.lam)


@given(entries=seqs, rho=st.integers(min_value=1, max_value=6))
def test_run_partition_runs_disjoint_and_cover(entries, rho):
    seq = tuple(entries)
    parts = run_partition(seq, rho)
    covered = []
    for r in parts.runs:
        assert r.element_count >= 1
        covered.extend(range(r.start_index, r.stop_index))
    assert len(covered) == len(set(covered)) == parts.nu + parts.lam
    assert all(entries[i] <= rho for i in covered)
    outside = set(range(len(entries))) - set(covered)
    assert all(entries[i] > rho for i in outside)


def test_mu_examples():
    assert mu((1, 2, 1)) == 2
    assert mu(longrun_path(2).flips) == 14
    with pytest.raises(ValueError):
        mu(())


def _reflected_code(n):
    # independent oracle: flip positions of the reflected code, built recursively
    if n == 0:
        return []
    inner = _reflected_code(n - 1)
    return inner + [n] + inner


@pytest.mark.parametrize("n", range(1, 9))
def test_brgc_matches_reflection_oracle(n):
    assert list(brgc(n)) == _reflected_code(n)


def test_brgc_small():
    assert brgc(2) == (1, 2, 1)
    assert brgc(4) == (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1)
    with pytest.raises(ValueError):
        brgc(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_brgc_is_hamiltonian(n):
    assert is_hamiltonian_path(brgc(n), n)


@pytest.mark.parametrize("d", range(4, 12))
def test_brgc_alternates_low_blocks_with_high_flips(d):
    entries = brgc(d)
    block = (1, 2, 1, 3, 1, 2, 1)
    for i, e in enumerate(entries, start=1):
        if i % 8 == 0:
            assert e >= 4
        else:
            assert e == block[(i % 8) - 1]


def test_is_hamiltonian_path_negatives():
    assert not is_hamiltonian_path((1, 1, 1), 2)
    assert not is_hamiltonian_path((1, 2), 2)
    assert not is_hamiltonian_path((1, 2, 3), 2)


def test_longrun_k2():
    p = longrun_path(2)
    assert p.flips == (1, 2, 3, 2, 1, 2, 3, 4, 3, 2, 1, 2, 3, 2, 1)
    assert is_hamiltonian_path(p.flips, 4)
    parts = run_partition(p.flips, 3)
    assert (parts.nu, parts.lam) == (6, 8)


def test_longrun_k3():
    p = longrun_path(3)
    assert is_hamiltonian_path(p.flips, 8)
    parts = run_partition(p.flips, 7)
    assert (parts.nu, parts.lam) == (64, 160)


def test_longrun_glued_block():
    # one block of eight merged rings: 30 runs of total length 16n - 46
    from minvenn.bases import cross_edges, ring_prefixes
    from minvenn.runs import _longrun_coefficient_order, _toggle

    n = 8
    pairs = _longrun_coefficient_order(3)
    cmasks = [mask_of(p) for p in pairs]
    block = (1, 2, 1, 3, 1, 2, 1)
    xs = [0]
    for s in block:
        xs.append(xs[-1] ^ cmasks[s - 1])
    adj = {}
    prefixes = ring_prefixes(n)
    for base in xs:
        ring = [base ^ m for m in prefixes]
        for t in range(2 * n):
            _toggle(adj, ring[t], ring[(t + 1) % (2 * n)])
    for i, s in enumerate(block):
        for u, v in cross_edges(xs[i], *pairs[s - 1], "F", n):
            _toggle(adj, u, v)
    verts = [0]
    prev, cur = 0, min(adj[0], key=lambda v: v.bit_length())
    while cur != 0:
        verts.append(cur)
        first, second = adj[cur]
        prev, cur = cur, (second if first == prev else first)
    assert len(verts) == 8 * 2 * n
    flips = [edge_direction(verts[t], verts[(t + 1) % len(verts)]) for t in range(len(verts))]
    cut = flips.index(n)
    parts = run_partition(tuple(flips[cut + 1 :] + flips[:cut]), n - 1)
    assert (parts.nu, parts.lam) == (30, 16 * n - 46)


def test_longrun_guards():
    with pytest.raises(ValueError):
        longrun_path(1)
    with pytest.raises(ValueError):
        longrun_path(5)


@pytest.mark.parametrize("k", [6, 20, 40])
def test_longrun_refuses_a_large_k_before_it_builds(monkeypatch, k):
    # The basis pairs of level k number about 2^k, each mask 2^k bits wide.
    monkeypatch.setattr(runs, "_longrun_coefficient_order", lambda k: pytest.fail("built pairs"))
    with pytest.raises(ValueError, match=f"ground set 2\\^{k} exceeds"):
        longrun_path(k)


def test_product_path_m0_is_base():
    assert product_path(2, 0) == longrun_path(2)


def test_product_path_scaling_small():
    p = product_path(2, 1)
    parts = run_partition(p.flips, 3)
    assert (parts.nu, parts.lam) == (12, 16)
    assert is_hamiltonian_path(p.flips, 5)


def test_product_path_k3_m3():
    p = product_path(3, 3)
    parts = run_partition(p.flips, 7)
    assert (parts.nu, parts.lam) == (512, 1280)
    assert is_hamiltonian_path(p.flips, 11)


def test_product_path_guards():
    with pytest.raises(ValueError):
        product_path(2, 4)
    with pytest.raises(ValueError):
        product_path(2, -1)
    with pytest.raises(ValueError):
        product_path(4, 7)  # sequence for Q_23 is past the cap


@pytest.mark.parametrize("k", [2, 3])
def test_run_count_sanity_bound(k):
    n = 1 << k
    parts = run_partition(longrun_path(k).flips, n - 1)
    assert parts.nu >= (1 << n) // n


@pytest.mark.parametrize("k,m", [(2, 0), (2, 2), (3, 1)])
def test_mu_dominates_total_run_length(k, m):
    p = product_path(k, m)
    n = 1 << k
    parts = run_partition(p.flips, n - 1)
    assert mu(p.flips) >= parts.lam
