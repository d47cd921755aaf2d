"""What the benchmark relies on in minvenn must exist there.

perfbench/tracer.py swaps a wrapper in for each (module, attribute) of its
WRAPS table, and perfbench/workloads.py expects every report to list the
checks of REPORT_CHECKS.  A rename or a removed check fails here, not only
in a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

from minvenn.plane_graph import PlaneDualGraph, trace_faces
from minvenn.verify import verify_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module, loaded unedited."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_call_site_resolves():
    wraps = load_perfbench("tracer").WRAPS
    assert wraps
    for module_name, attr, _span in wraps:
        module = importlib.import_module(f"minvenn.{module_name}")
        assert callable(getattr(module, attr, None)), f"minvenn.{module_name}.{attr}"


def test_face_cache_field_read_by_the_tracer(dual8):
    # tracer.wrap_trace_faces counts a call as a fresh trace when g._faces is None.
    assert "_faces" in {f.name for f in dataclasses.fields(PlaneDualGraph)}
    built = dual8
    g = PlaneDualGraph(built.n, built.rotation, built.outer_edge)
    assert g._faces is None
    faces = trace_faces(g)
    assert g._faces is faces and len(faces) == 40


def test_report_lists_the_checks_the_benchmark_expects(dual16):
    # edge-conservation cannot fail once the trace succeeds, but it is the
    # sphere's third clause and the benchmark pins its name in every report.
    want = load_perfbench("workloads").REPORT_CHECKS
    assert [c.name for c in verify_graph(dual16).checks] == want
