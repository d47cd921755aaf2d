"""One benchmark run of minvenn.

    python3 perfbench/run.py --workload build16 --seed 1 --seconds 30 --trace 0

Run it from the root of a minvenn checkout, or name the checkout with
``--tree``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A readable summary goes to stderr.  The full record (every
sample, the failures and the machine) goes to ``perfbench/work/results/``,
and a traced run's spans to ``perfbench/work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from statistics import median, quantiles

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
# A run must end within 180 s; give up cleanly before that.
DEADLINE_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The speed of a shared host drifts by up to about 1.8x for tens of seconds
# at a time, longer than a run.  So an untraced run times a fixed reference
# routine before and after each operation, and scales each timing by
# REFERENCE_S over the mean of the two.  REFERENCE_S is about what the
# routine takes on the machine described in README.md at its fastest, so
# scaled seconds read like wall seconds there.  Changing either makes
# earlier results incomparable.
REFERENCE_S = 0.12
REFERENCE_SIDE = 128


class Deadline(BaseException):
    """The run took too long; a BaseException so no per-operation handler swallows it."""


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return f"p{p:g}", ordered[int(rank) - 1]
    return None


def _git(tree: Path, *args: str) -> str:
    try:
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def commit_of(tree: Path) -> str:
    if not (tree / ".git").exists():
        return "unknown"
    head = _git(tree, "rev-parse", "HEAD") or "unknown"
    return head + ("-dirty" if _git(tree, "status", "--porcelain", "--", "src") else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(tree: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": commit_of(tree),
        "loadavg_start": list(os.getloadavg()),
    }


def checked(w: wl.Workload, outcome: wl.Outcome | None, error: str | None = None) -> dict:
    """One operation's sample; the check runs here, outside the timed interval."""
    if error is None:
        try:
            w.check(outcome)
        except wl.CheckFailed as exc:
            error = str(exc)
    try:
        doc_bytes = w.doc_bytes()
    except OSError:
        doc_bytes = 0
    return {
        "seconds": outcome.seconds if outcome else None,
        "rss_mib": outcome.rss_mib if outcome else None,
        "doc_bytes": doc_bytes,
        "error": error,
    }


def reference_s() -> float:
    """Seconds of a fixed graph walk, much like minvenn's: a torus grid's
    adjacency, a breadth-first search, its sorted edges and its faces."""
    side = REFERENCE_SIDE
    start = time.perf_counter()
    adj = {}
    for x in range(side):
        for y in range(side):
            adj[x, y] = [((x + dx) % side, (y + dy) % side)
                         for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    depth = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    sorted((depth[v] + depth[u], v, u) for v in adj for u in adj[v])  # timed, not used
    rotation = {v: {u: i for i, u in enumerate(nbrs)} for v, nbrs in adj.items()}
    used = set()
    for v, nbrs in adj.items():
        for u in nbrs:
            a, b = v, u
            while (a, b) not in used:
                used.add((a, b))
                a, b = b, adj[b][(rotation[b][a] + 1) % 4]
    return time.perf_counter() - start


def timed_run(w: wl.Workload, seconds: float) -> tuple[dict, dict]:
    """Untraced: fresh-process operations for ``seconds``, with set-ups among them.

    The first set-up comes before the first operation, and another before
    every ``w.setup_every``-th operation after it, so the set-ups sample
    the host over the run as the operations do.  The reference routine runs
    before the first set-up and after each operation; a set-up or operation
    is scaled by the mean of the reference times on either side of it.
    Set-up and reference time are left out of the ``seconds``.
    """
    refs = [reference_s()]
    setups, ops = [], []
    elapsed = 0.0
    while not ops or elapsed < seconds:
        if len(ops) % w.setup_every == 0:
            start = time.perf_counter()
            w.setup()
            setups.append({"seconds": time.perf_counter() - start, "ref": len(refs) - 1})
        start = time.perf_counter()
        op = checked(w, w.run())
        elapsed += time.perf_counter() - start
        op["ref"] = len(refs) - 1
        ops.append(op)
        refs.append(reference_s())
    for item in setups + ops:
        i = item["ref"]
        item["scaled_s"] = item["seconds"] * REFERENCE_S * 2 / (refs[i] + refs[i + 1])
    failed = sum(op["error"] is not None for op in ops)
    values = {
        "setup_s": median([s["scaled_s"] for s in setups]),
        "op_s": median([op["scaled_s"] for op in ops]),
        "peak_rss_mib": median([op["rss_mib"] for op in ops]),
        "ok_ratio": (len(ops) - failed) / len(ops),
    }
    wall = {"setup_s": median([s["seconds"] for s in setups]),
            "op_s": median([op["seconds"] for op in ops])}
    return values, {"setups": setups, "ops": ops, "reference_s": refs, "wall": wall}


def _call(w: wl.Workload, mods: dict) -> dict:
    try:
        outcome = w.call(mods)
    except SystemExit as exc:  # the CLI's parser.error on a load or build error
        return checked(w, None, f"exited with code {exc.code}")
    except Exception as exc:  # a library defect: count the operation as failed
        return checked(w, None, f"raised {type(exc).__name__}: {exc}")
    return checked(w, outcome)


def traced_run(w: wl.Workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """In-process pairs of one untraced and one traced operation, alternating order.

    A first untraced operation warms the imports and caches; it counts in
    ``attempted`` and ``failed`` but in no metric.  The tracing overhead is the median over the pairs of traced
    minus untraced seconds, so drift of the host between pairs cancels.
    """
    w.setup()
    mods = wl.load_modules(w.ctx.src)
    tracer = tr.Tracer()
    warmup = _call(w, mods)
    plain, traced = [], []
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(_call(w, mods))
                continue
            tracer.op += 1
            tracer.install(mods)
            try:
                op = _call(w, mods)
            finally:
                tracer.uninstall()
            op["op"] = tracer.op
            traced.append(op)
        pair += 1

    per_op = [tr.op_metrics(tracer.spans, op["op"]) for op in traced]
    values = {name: median([m[name] for m in per_op]) for name in tr.SPAN_METRICS}
    values["export.doc_bytes"] = median([op["doc_bytes"] for op in traced])
    diffs = [t["seconds"] - p["seconds"] for p, t in zip(plain, traced)
             if p["seconds"] is not None and t["seconds"] is not None]
    values["trace.overhead_s"] = median(diffs) if diffs else 0.0
    # A sign the pairs do not agree on is the host's drift, not the overhead.
    overhead = "resolved" if diffs and all(d > 0 for d in diffs) else "unresolved"

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "spans": tracer.to_json()}, fh)
    return values, {"warmup_op": warmup, "untraced_ops": plain, "traced_ops": traced,
                    "per_op": per_op, "overhead_pairs_s": diffs, "overhead": overhead,
                    "spans_file": str(spans_path.relative_to(HERE.parent))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: minvenn has no randomness, so no input depends on it")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree", default=".", help="minvenn checkout to measure (default: .)")
    parser.add_argument("--record", help="write the full record here")
    args = parser.parse_args(argv)

    tree = Path(args.tree).resolve()
    src = tree / "src"
    if not (src / "minvenn" / "__init__.py").is_file():
        print(f"perfbench: no minvenn sources under {src}", file=sys.stderr)
        return 2
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    w = wl.WORKLOADS[args.workload](wl.Context(tree, src, work))

    def deadline(_signum, _frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    info = machine(tree)
    # One CPU for this process and every operation it starts, so that the
    # reference routine meets the same CPU, and the same neighbours on the
    # host, as the operations it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            values, detail = traced_run(w, args.seconds, work / "spans" / f"{tag}.json")
        else:
            values, detail = timed_run(w, args.seconds)
    except (wl.CheckFailed, Deadline, OSError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    if args.trace:
        ops = [detail["warmup_op"], *detail["untraced_ops"], *detail["traced_ops"]]
    else:
        ops = detail["ops"]
    failures = [op["error"] for op in ops if op["error"] is not None]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    op_seconds = [op["scaled_s"] for op in ops] if not args.trace else []
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "result": result,
        "tail": tail_percentile(op_seconds),
        "failures": failures,
        "detail": detail,
    }
    record_path = Path(args.record) if args.record else work / "results" / f"{tag}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
          f"failed={len(failures)} machine={json.dumps(info)}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    if not args.trace:
        print(f"  unscaled: setup {detail['wall']['setup_s']:.4g} s, op {detail['wall']['op_s']:.4g} s;"
              f" reference median {median(detail['reference_s']):.4g} s", file=sys.stderr)
    else:
        print(f"  trace.overhead_s is {detail['overhead']}: pair differences "
              f"{[round(d, 3) for d in detail['overhead_pairs_s']]}", file=sys.stderr)
    for error in failures[:5]:
        print(f"  FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
