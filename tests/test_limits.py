"""Every entry point that takes n, k, m or a cap refuses an oversized request
before it makes anything of size 2^k, with its own class and message.

Each case runs under tracemalloc: at k = 10^8 the int 2^k alone takes 12.5 MB,
so a peak under 1 MiB shows that no limit is checked after a shift.  Where the
request is small enough to build, the first helper that would allocate is
stubbed with pytest.fail instead.  An int of 5000 digits is past the 4300
that str() prints, so its message must name it by size.
"""

import json
import tracemalloc

import pytest

from minvenn import builder, cli, doubling, export, runs, verify
from minvenn.bases import partition_cycles, ring_prefixes
from minvenn.builder import BuildError, build_venn_dual, driving_path, partition_preview_graph
from minvenn.cli import main
from minvenn.doubling import build_venn
from minvenn.export import DocumentError, from_json
from minvenn.plane_graph import PlaneDualGraph
from minvenn.runs import brgc, longrun_path, product_path
from minvenn.verify import expected_crossings, lower_bound, monotone_reference

BIG = 10**8
PAST_LEVEL = f"ground set 2^{BIG} exceeds the 32-bit mask model"
# 10^5000 takes 16610 bits.
HUGE = 10**5000
HUGE_SHOWN = "<int of 16610 bits>"
N33_DOC = {"format_version": 5, "n": 33, "rows": [[1]], "row_of": [0, 0]}


def _cli(*argv):
    return lambda: main(list(argv))


# (call, exception class or exit code 2, message, first allocating helper or None)
LIMIT_CASES = [
    pytest.param(
        lambda: build_venn(BIG),
        BuildError,
        f"n={BIG} exceeds the materialization cap 16",
        (doubling, "_base"),
        id="build_venn",
    ),
    pytest.param(
        lambda: build_venn(HUGE),
        BuildError,
        f"n={HUGE_SHOWN} exceeds the materialization cap 16",
        (doubling, "_base"),
        id="build_venn-huge",
    ),
    pytest.param(
        lambda: build_venn(-HUGE), BuildError, f"need n >= 8, got -{HUGE_SHOWN}", None, id="build_venn-negative"
    ),
    pytest.param(
        lambda: build_venn(8, cap=HUGE),
        BuildError,
        f"cap={HUGE_SHOWN} exceeds the largest cap 20",
        (doubling, "_base"),
        id="build_venn-cap",
    ),
    pytest.param(lambda: build_venn_dual(BIG), BuildError, PAST_LEVEL, None, id="build_venn_dual"),
    pytest.param(
        lambda: build_venn_dual(HUGE),
        BuildError,
        f"ground set 2^{HUGE_SHOWN} exceeds the 32-bit mask model",
        None,
        id="build_venn_dual-huge",
    ),
    # The driving path of 2^k lives at level k - 1.
    pytest.param(
        lambda: driving_path(BIG),
        ValueError,
        f"ground set 2^{BIG - 1} exceeds the 32-bit mask model",
        (builder, "product_path"),
        id="driving_path",
    ),
    pytest.param(lambda: partition_cycles(BIG), ValueError, PAST_LEVEL, None, id="partition_cycles"),
    pytest.param(lambda: longrun_path(BIG), ValueError, PAST_LEVEL, None, id="longrun_path"),
    # A flip sequence has 2^n - 1 entries.
    pytest.param(lambda: brgc(BIG), ValueError, f"need 1 <= n <= 20, got {BIG}", None, id="brgc"),
    pytest.param(
        lambda: brgc(HUGE), ValueError, f"need 1 <= n <= 20, got {HUGE_SHOWN}", None, id="brgc-huge"
    ),
    pytest.param(lambda: product_path(BIG, 0), ValueError, PAST_LEVEL, None, id="product_path-k"),
    pytest.param(
        lambda: product_path(4, 7),
        ValueError,
        "sequence for Q_23 exceeds cap 20",
        (runs, "longrun_path"),
        id="product_path-cap",
    ),
    pytest.param(
        lambda: product_path(3, HUGE),
        ValueError,
        f"need 0 <= m < 2^k, got m={HUGE_SHOWN}",
        (runs, "longrun_path"),
        id="product_path-m",
    ),
    # The closed form is bounded by the level k - 1 of the driving path it scales.
    pytest.param(
        lambda: expected_crossings(BIG, 0),
        ValueError,
        f"ground set 2^{BIG - 1} exceeds the 32-bit mask model",
        None,
        id="expected_crossings",
    ),
    pytest.param(
        lambda: expected_crossings(7, 0),
        ValueError,
        "ground set 2^6 exceeds the 32-bit mask model",
        None,
        id="expected_crossings-level",
    ),
    # The bound forms 2^n, the reference calls comb(n, n // 2).
    pytest.param(
        lambda: lower_bound(BIG),
        ValueError,
        f"lower bound needs 2 <= n <= 32, got {BIG}",
        None,
        id="lower_bound",
    ),
    pytest.param(
        lambda: monotone_reference(HUGE),
        ValueError,
        f"need 1 <= n <= 32, got {HUGE_SHOWN}",
        (verify, "comb"),
        id="monotone_reference",
    ),
    pytest.param(
        lambda: partition_preview_graph(partition_cycles(BIG)),
        ValueError,
        PAST_LEVEL,
        None,
        id="partition_preview_graph",
    ),
    # n bounds every graph and ring layout, so no stage that takes a graph
    # can form a mask past the word.
    pytest.param(
        lambda: PlaneDualGraph(BIG, {0: ()}, (0, 1)),
        ValueError,
        f"a graph needs 1 <= n <= 32, got {BIG}",
        None,
        id="PlaneDualGraph",
    ),
    pytest.param(
        lambda: PlaneDualGraph(0, {0: ()}, (0, 1)),
        ValueError,
        "a graph needs 1 <= n <= 32, got 0",
        None,
        id="PlaneDualGraph-zero",
    ),
    pytest.param(
        lambda: ring_prefixes(HUGE),
        ValueError,
        f"rings need 1 <= n <= 32, got {HUGE_SHOWN}",
        None,
        id="ring_prefixes",
    ),
    pytest.param(
        lambda: from_json(N33_DOC),
        DocumentError,
        "n must be an integer in [1, 32]",
        (export, "_rotation"),
        id="from_json",
    ),
    pytest.param(
        _cli("build", "--n", str(BIG)),
        2,
        f"n={BIG} exceeds the materialization cap 16",
        (doubling, "_base"),
        id="cli-build",
    ),
    pytest.param(
        _cli("verify", "n33.json"),
        2,
        "cannot load n33.json: n must be an integer in [1, 32]",
        (export, "_rotation"),
        id="cli-verify",
    ),
    pytest.param(
        _cli("stats", "--n-max", str(BIG)), 2, "--n-max at most 32", (cli, "lower_bound"), id="cli-stats"
    ),
    pytest.param(_cli("gray", "--k", str(BIG)), 2, PAST_LEVEL, None, id="cli-gray"),
    pytest.param(_cli("partition", "--k", str(BIG)), 2, PAST_LEVEL, None, id="cli-partition"),
]


@pytest.mark.parametrize("call, expected, message, helper", LIMIT_CASES)
def test_oversized_requests_are_refused_before_allocation(
    call, expected, message, helper, monkeypatch, capsys, tmp_path
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n33.json").write_text(json.dumps(N33_DOC))
    if helper is not None:
        module, name = helper
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail(f"{name} ran before the check"))
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except Exception as exc:
            outcome = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    if expected == 2:
        err = capsys.readouterr().err
        assert outcome == 2
        assert "Traceback" not in err
        assert err.splitlines()[-1] == f"minvenn: error: {message}"
    else:
        assert type(outcome) is expected
        assert str(outcome) == message
