"""Spans timed from outside the library, and the per-module metrics made from them.

The traced run replaces the module-level names through which minvenn's
modules call each other (``trace_faces`` as imported into ``builder``,
``check_curves`` inside ``verify`` and so on) with wrappers that record a
span: name, start, end, and the span that was open when it began.  Spans
stay in memory until the run ends.  The library itself is not changed.

A span's self time is its duration minus the time of its child spans.
Calls are strictly nested in one thread, so child spans never overlap and
their durations can simply be summed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# (module, attribute, span name).  Each entry is one call site the library
# uses, so the same function appears once per module that imports it.  The
# ``bases`` and ``hypercube`` helpers are deliberately not wrapped: they run
# thousands of times inside ``build_venn_dual`` and wrapping them would
# distort the number they are meant to explain.
WRAPS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_venn", "doubling.build_venn"),
    ("doubling", "build_venn", "doubling.build_venn"),
    ("doubling", "build_venn_dual", "builder.build_venn_dual"),
    ("doubling", "double", "doubling.double"),
    ("doubling", "find_colorful_face", "doubling.find_colorful_face"),
    ("doubling", "trace_faces", "plane_graph.trace_faces"),
    ("builder", "driving_path", "runs.driving_path"),
    ("builder", "run_partition", "runs.run_partition"),
    ("builder", "check_face_catalog", "builder.check_face_catalog"),
    ("builder", "trace_faces", "plane_graph.trace_faces"),
    ("plane_graph", "trace_faces", "plane_graph.trace_faces"),
    ("verify", "trace_faces", "plane_graph.trace_faces"),
    ("export", "trace_faces", "plane_graph.trace_faces"),
    ("verify", "rotation_problems", "plane_graph.rotation_problems"),
    ("export", "rotation_problems", "plane_graph.rotation_problems"),
    ("cli", "verify_graph", "verify.verify_graph"),
    ("export", "verify_graph", "verify.verify_graph"),
    ("verify", "check_spanning", "verify.check_spanning"),
    ("verify", "check_connected", "verify.check_connected"),
    ("verify", "check_euler", "verify.check_euler"),
    ("verify", "check_edge_conservation", "verify.check_edge_conservation"),
    ("verify", "check_faces", "verify.check_faces"),
    ("verify", "check_curves", "verify.check_curves"),
    ("verify", "face_cycle", "verify.face_cycle"),
    ("export", "face_cycle", "verify.face_cycle"),
    ("cli", "to_json", "export.to_json"),
    ("cli", "dump_json", "export.dump_json"),
    ("cli", "from_json", "export.from_json"),
)

TRACE_FACES = "plane_graph.trace_faces"

# Per-module metric -> the end-to-end metrics (workload.metric) it should
# move.  Written down before measuring; README.md explains the reasoning.
MOVES = {
    "runs.driving_path.s": ["construct.op_s", "build16.op_s"],
    "runs.run_partition.s": ["construct.op_s", "build16.op_s"],
    "builder.build_venn_dual.self_s": ["construct.op_s", "build16.op_s"],
    "builder.check_face_catalog.self_s": ["construct.op_s", "build16.op_s"],
    "plane_graph.trace_faces.self_s": ["construct.op_s", "build16.op_s", "verify16.op_s"],
    "plane_graph.trace_faces.calls": ["construct.op_s", "build16.op_s", "verify16.op_s"],
    "plane_graph.trace_faces.traced": ["construct.op_s", "build16.op_s", "verify16.op_s"],
    "plane_graph.trace_faces.faces": ["construct.op_s", "build16.op_s", "verify16.op_s"],
    "plane_graph.rotation_problems.self_s": ["verify16.op_s", "build16.op_s"],
    "doubling.double.self_s": ["construct.op_s"],
    "doubling.double.calls": ["construct.op_s"],
    "doubling.find_colorful_face.self_s": ["construct.op_s"],
    "verify.verify_graph.self_s": ["build16.op_s", "verify16.op_s"],
    "verify.check_curves.self_s": ["build16.op_s", "verify16.op_s"],
    "verify.face_cycle.self_s": ["build16.op_s", "verify16.op_s"],
    "verify.face_cycle.calls": ["build16.op_s", "verify16.op_s"],
    "verify.check_connected.self_s": ["build16.op_s", "verify16.op_s"],
    "verify.check_faces.self_s": ["build16.op_s", "verify16.op_s"],
    "verify.check_spanning.self_s": ["build16.op_s", "verify16.op_s"],
    "verify.check_euler.self_s": ["build16.op_s", "verify16.op_s"],
    "verify.check_edge_conservation.self_s": ["build16.op_s", "verify16.op_s"],
    "export.to_json.self_s": ["build16.op_s", "build16.peak_rss_mib"],
    "export.dump_json.self_s": ["build16.op_s", "build16.peak_rss_mib"],
    "export.doc_bytes": ["build16.op_s", "verify16.op_s", "build16.peak_rss_mib"],
    "export.from_json.self_s": ["verify16.op_s"],
    "cli.main.self_s": ["build16.op_s", "verify16.op_s"],
    "trace.overhead_s": [],
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``install`` swaps wrappers into the given modules."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._clock = clock
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, self._clock(), parent=parent, op=self.op)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(span)

        return wrapper

    def wrap_trace_faces(self, fn):
        """Like ``wrap``, also noting whether the call found a cached face list."""

        def wrapper(g):
            traced = getattr(g, "_faces", None) is None
            span = self.begin(TRACE_FACES)
            try:
                faces = fn(g)
            finally:
                self.finish(span)
            span.attrs["traced"] = traced
            if traced:
                span.attrs["faces"] = len(faces)
            return faces

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every call site in ``WRAPS``; ``modules`` maps short names to modules."""
        for mod_name, attr, span_name in WRAPS:
            module = modules[mod_name]
            fn = getattr(module, attr)
            if span_name == TRACE_FACES:
                wrapper = self.wrap_trace_faces(fn)
            else:
                wrapper = self.wrap(fn, span_name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def to_json(self) -> list[dict]:
        return [
            {
                "op": s.op,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus child-span time, for each span of a complete list."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


SPAN_FIELDS = ("s", "self_s", "calls", "traced", "faces")
SPAN_METRICS = tuple(m for m in MOVES if m.rsplit(".", 1)[1] in SPAN_FIELDS)


def op_metrics(spans: list[Span], op: int) -> dict[str, float]:
    """The span-derived metrics of one operation; a span that never ran reads 0."""
    selfs = self_times(spans)
    out = dict.fromkeys(SPAN_METRICS, 0)
    for s, self_s in zip(spans, selfs):
        if s.op != op:
            continue
        for key, value in (
            (f"{s.name}.s", s.seconds),
            (f"{s.name}.self_s", self_s),
            (f"{s.name}.calls", 1),
            (f"{s.name}.traced", 1 if s.attrs.get("traced") else 0),
            (f"{s.name}.faces", s.attrs.get("faces", 0)),
        ):
            if key in out:
                out[key] += value
    return out
