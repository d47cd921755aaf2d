#!/usr/bin/env python3
"""Build every diagram from n = 8 to 16, verify it, and tabulate crossings.

Unlike `minvenn stats` (formula only), this script actually constructs and
re-verifies each dual graph, so it doubles as an end-to-end regression run:
it exits 1 if a graph fails verification or its crossing count differs from
the formula.
"""

import argparse
import sys
import time

from minvenn.doubling import build_venn
from minvenn.plane_graph import crossing_count
from minvenn.verify import expected_crossings, lower_bound, monotone_reference, verify_graph


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=16, help="largest n to build (<= 16)")
    args = parser.parse_args()

    failed = False
    print("   n    bound    built  formula  monotone  checks   time")
    for n in range(8, args.n_max + 1):
        t0 = time.perf_counter()
        g = build_venn(n)
        report = verify_graph(g)
        elapsed = time.perf_counter() - t0
        built, formula = crossing_count(g), expected_crossings(*g.construction)
        failed |= not report.passed or built != formula
        print(
            f"{n:4d} {lower_bound(n):8d} {built:8d} {formula:8d} {monotone_reference(n):9d} "
            f"{'pass' if report.passed else 'FAIL':>6} {elapsed:6.1f}s"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
