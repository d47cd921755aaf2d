"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass;
each criterion is also a hard assertion at its exact expected value.
"""

import json
import random
import resource
import time

from lemmas import (
    basis_B,
    check_pairwise_distinct_endpoints,
    later_run_partition,
    ramras_path,
    spans_equal,
    walk,
)
from minvenn.bases import basis_C, partition_cycles
from minvenn.builder import check_face_catalog
from minvenn.cli import main
from minvenn.hypercube import span
from minvenn.plane_graph import crossing_count
from minvenn.runs import longrun_path, mu, product_path, run_partition
from minvenn.verify import expected_crossings, lower_bound, verify_graph


def report(number: int, ok: bool, text: str) -> None:
    print(f"acceptance {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_build_n8(capsys):
    t0 = time.perf_counter()
    code = main(["build", "--n", "8"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    doc = json.loads(out)
    checks = {c["name"]: c["passed"] for c in doc["report"]["checks"]}
    ok = (
        code == 0
        and doc["crossings"] == 40
        and doc["report"]["lower_bound"] == 37
        and checks["spanning"]
        and checks["faces-direction-pairs"]
        and checks["curves-simple"]
        and checks["euler"]
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"build --n 8: 40 crossings, all conditions, {elapsed:.2f}s")


def test_criterion_02_build_n16(capsys):
    t0 = time.perf_counter()
    code = main(["build", "--n", "16"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    doc = json.loads(out)
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 2**30
    ok = (
        code == 0
        and doc["crossings"] == 5118
        and doc["report"]["passed"]
        and elapsed < 60.0
        and peak_gib < 2.0
    )
    with capsys.disabled():
        report(2, ok, f"build --n 16: 5118 crossings, {elapsed:.1f}s, peak {peak_gib:.2f} GiB")


def test_criterion_03_doubling_chain(capsys):
    from minvenn.builder import build_venn_dual
    from minvenn.doubling import double

    want = {9: 80, 10: 160, 11: 320, 12: 640, 13: 1280, 14: 2560, 15: 5120}
    t0 = time.perf_counter()
    g = build_venn_dual(3)
    ok = True
    for n in range(9, 16):
        g = double(g)
        rep = verify_graph(g)
        ok = ok and rep.passed and rep.crossings == want[n]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        report(3, ok, f"doubling chain 9..15 re-verified at 80..5120, {elapsed:.1f}s")


def test_criterion_04_longrun_closed_forms(capsys):
    want = {2: (6, 8), 3: (64, 160), 4: (8700, 52740)}
    ok = True
    for k, (nu, lam) in want.items():
        n = 1 << k
        parts = run_partition(longrun_path(k).flips, n - 1)
        ok = ok and (parts.nu, parts.lam) == (nu, lam)
    with capsys.disabled():
        report(4, ok, "long-run paths measure (6,8), (64,160), (8700,52740)")


def test_criterion_05_product_scaling(capsys):
    ok = True
    for m in (1, 2, 3):
        parts = run_partition(product_path(3, m).flips, 7)
        ok = ok and (parts.nu, parts.lam) == (64 << m, 160 << m)
    with capsys.disabled():
        report(5, ok, "product paths scale (nu, lam) by 2^m for k=3, m=1..3")


def test_criterion_06_partitions_exhaustive(capsys):
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 5):
        n = 1 << k
        seen_paths: set[int] = set()
        for x in span(basis_C(k).elements):
            for v in walk(*ramras_path(x, n)):
                ok = ok and v not in seen_paths
                seen_paths.add(v)
        ok = ok and seen_paths == set(range(1 << (n - 1)))
        seen_cycles: set[int] = set()
        for c in partition_cycles(k):
            for v in c:
                ok = ok and v not in seen_cycles
                seen_cycles.add(v)
        ok = ok and len(seen_cycles) == 1 << n
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        report(6, ok, f"path and cycle partitions exhaustive for k <= 4, {elapsed:.1f}s")


def test_criterion_07_span_equality(capsys):
    ok = True
    for k in range(1, 6):
        ok = ok and spans_equal(basis_B(k), basis_C(k))
        ok = ok and check_pairwise_distinct_endpoints(basis_C(k))
    with capsys.disabled():
        report(7, ok, "span equality and distinct endpoints for k <= 5")


def test_criterion_08_face_catalog(capsys, dual8, dual16, doubling_chain):
    ok = True
    counted = 0
    for g in [dual8, dual16] + [doubling_chain[n] for n in range(9, 16)]:
        counts = check_face_catalog(g)  # raises on any unmatched face
        counted += sum(counts.values())
        ok = ok and sum(counts.values()) == crossing_count(g)
    with capsys.disabled():
        report(8, ok, f"all {counted} faces across all builds match the template catalog")


def test_criterion_09_property_suites(capsys, dual8, dual16, doubling_chain):
    rng = random.Random(0x5EED)
    ok = True
    for _ in range(10_000):
        length = rng.randrange(0, 40)
        entries = tuple(rng.randint(1, 8) for _ in range(length))
        rho = rng.randint(1, 8)
        early = run_partition(entries, rho)
        late = later_run_partition(entries, rho)
        over = sum(1 for e in entries if e > rho)
        ok = ok and over == length - early.nu - early.lam
        ok = ok and (early.nu, early.lam) == (late.nu, late.lam)
    for k, m in ((2, 0), (3, 0), (4, 0), (3, 1), (3, 3)):
        p = product_path(k, m)
        n = 1 << k
        parts = run_partition(p.flips, n - 1)
        ok = ok and mu(p.flips) >= parts.lam
    for g in [dual8, dual16] + [doubling_chain[n] for n in range(9, 16)]:
        ok = ok and crossing_count(g) >= lower_bound(g.n)
    with capsys.disabled():
        report(9, ok, "run identity on 10^4 random sequences, tie-break invariance, "
                      "mu >= lam, crossings >= lower bound")


def test_criterion_10_formula_consistency(capsys, dual16, doubling_chain):
    ok = crossing_count(dual16) == expected_crossings(4, 0)
    for n in range(8, 16):
        ok = ok and crossing_count(doubling_chain[n]) == expected_crossings(3, n - 8)
    with capsys.disabled():
        report(10, ok, "crossing counts equal the closed forms for k in {3,4}, n+m <= 16")
