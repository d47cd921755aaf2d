"""Span arithmetic of the traced run.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from run import SPEC, _call, tail_percentile  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_and_parent_links():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = tr.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    tracer.op = 1
    outer()

    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    # outer spans 0..10; the inner calls take 2 and 0.5 of that.
    assert tr.self_times(tracer.spans) == [7.5, 2.0, 0.5]
    metrics = tr.op_metrics(
        [tr.Span("verify.check_curves", 0.0, 3.0, None, 1),
         tr.Span("verify.face_cycle", 1.0, 2.0, 0, 1),
         tr.Span("verify.face_cycle", 5.0, 9.0, None, 2)],
        op=1,
    )
    assert metrics["verify.check_curves.self_s"] == 2.0
    assert metrics["verify.face_cycle.self_s"] == 1.0
    assert metrics["verify.face_cycle.calls"] == 1


def test_exception_still_closes_span():
    tracer = tr.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    outer = tracer.wrap(lambda: None, "after")
    outer()
    assert tracer.spans[1].parent is None


def test_traced_count_against_calls():
    mods = wl.load_modules(SRC)
    tracer = tr.Tracer()
    tracer.op = 1
    tracer.install(mods)
    try:
        g = mods["doubling"].build_venn(8)
        mods["plane_graph"].crossing_count(g)
        mods["plane_graph"].crossing_count(g)
    finally:
        tracer.uninstall()
    assert mods["plane_graph"].trace_faces.__name__ == "trace_faces"

    metrics = tr.op_metrics(tracer.spans, op=1)
    # The build traces the graph once; every later call hits the cached list.
    assert metrics["plane_graph.trace_faces.traced"] == 1
    assert metrics["plane_graph.trace_faces.calls"] >= 3
    assert metrics["plane_graph.trace_faces.faces"] == 40
    assert metrics["doubling.double.calls"] == 0
    assert all(metrics[m] == 0 for m in metrics if m.startswith("verify."))
    for s in tracer.spans:
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end


def test_spec_lists_every_per_layer_metric():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(tr.MOVES)
    assert set(tr.MOVES) == set(tr.SPAN_METRICS) | {"export.doc_bytes", "trace.overhead_s"}


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20))) == ("p50", 9)
    assert tail_percentile(list(range(1, 41))) == ("p75", 30)


def test_cli_exit_counts_as_failed_operation(tmp_path):
    class Exiting(wl.Build16):
        def call(self, mods):
            raise SystemExit(2)  # what the CLI's parser.error does

    op = _call(Exiting(wl.Context(SRC.parent, SRC, tmp_path)), {})
    assert op["error"] == "exited with code 2"
