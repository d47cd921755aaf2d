"""Repeated runs of the benchmark, and the comparison of two commits.

    # ten seeds of every workload on one tree: medians, quartiles, spreads
    python3 perfbench/compare.py series --runs 10 --out perfbench/work/series.json

    # alternating pairs of two trees, e.g. a parent commit and a change
    python3 perfbench/compare.py pairs --a ../parent --b . --pairs 10 --out perfbench/work/pairs.json

    # report a saved series or pairs file again
    python3 perfbench/compare.py report perfbench/work/pairs.json

Every mode runs every workload of BENCHMARK.json for its ``run_seconds``,
with seeds 1..N.  Both trees are measured by this checkout's benchmark
code (``run.py --tree``), so the two sides differ only in the minvenn
sources.  Verdicts use the bounds in BENCHMARK.json: a metric improved
when the second side wins at least nine tenths of the pairs and the
medians differ by more than the first side's quartile distance; it
regressed when its median is worse by more than the bound; it is
unresolved when either side's spread is wider than the bound, unless
every run of the second side beats every run of the first.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from statistics import median

from run import HERE, load_spec, quartiles, tail_percentile


def run_once(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    record_path = HERE / "work" / "compare-last.json"
    argv = [sys.executable, str(HERE / "run.py"), "--tree", tree, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--record", str(record_path)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run failed ({' '.join(argv)}):\n{proc.stderr}")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    load = record["machine"]["loadavg_start"][0]
    print(f"  {workload:10s} seed={seed:<3d} {tree}: load {load:.2f}", file=sys.stderr)
    return record


def _metrics(trace: int) -> list[dict]:
    spec = load_spec()
    return spec["per_layer"] if trace else spec["end_to_end"]


def _value(record: dict, name: str) -> float:
    return record["result"]["metrics"][name]["value"]


def verdict(a: list[float], b: list[float], better: str, bound: float | None,
            failed_a: int, failed_b: int) -> tuple[str, float]:
    """(verdict, pair win rate of side b) for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    win_rate = wins / min(len(a), len(b))
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    gain = sign * (ma - mb)
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if win_rate >= 0.9 and gain > qa3 - qa1 and failed_b <= failed_a:
        return "improved", win_rate
    if bound is None:
        return "no claim", win_rate
    if ma == 0:
        return ("unchanged" if mb == 0 else "unresolved"), win_rate
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb) if mb else 0.0)
    if spread > bound and not all_better:
        return "unresolved", win_rate
    if -gain / abs(ma) > bound:
        return "regressed", win_rate
    return "within bound", win_rate


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}]"


def report(records: list[dict], out=sys.stdout) -> bool:
    """Print every metric by name and unit; True when every spread is within its bound."""
    trace = records[0]["trace"]
    sides = sorted({r["side"] for r in records})
    steady = True
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = {s: [r for r in records if r["workload"] == workload and r["side"] == s]
                for s in sides}
        first = rows[sides[0]][0]["machine"]
        failed = {s: sum(r["result"]["failed"] for r in rows[s]) for s in sides}
        attempted = {s: sum(r["result"]["attempted"] for r in rows[s]) for s in sides}
        print(f"\n{workload}  (trace={trace}, nproc={first['nproc']}, {first['cpu_model']}, "
              f"python {first['python']})", file=out)
        for s in sides:
            op_seconds = [op["scaled_s"] for r in rows[s] for op in _ops(r)]
            tail = tail_percentile(op_seconds)
            tail_text = f", op_s.{tail[0]} {tail[1]:.5g} s" if tail else ""
            if not trace:
                wall = median(r["detail"]["wall"]["op_s"] for r in rows[s])
                tail_text += f", unscaled op_s {wall:.5g} s"
            commits = sorted({r["machine"]["commit"] for r in rows[s]})
            print(f"  side {s}: {len(rows[s])} runs, {attempted[s]} operations, "
                  f"{failed[s]} failed{tail_text}; commit {', '.join(commits)}", file=out)
        for m in _metrics(trace):
            name, unit, bound = m["name"], m["unit"], m.get("bound")
            vals = {s: [_value(r, name) for r in rows[s]] for s in sides}
            a = vals[sides[0]]
            line = f"  {name:40s} {unit:6s} {_fmt(a)}"
            if len(sides) == 1:
                q1, q2, q3 = quartiles(a)
                spread = (q3 - q1) / abs(q2) if q2 else 0.0
                mark = ""
                if bound is not None:
                    mark = "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
                    steady &= spread <= bound
                line += f"  spread {spread:7.2%}" + (f" of bound {bound:.0%} {mark}" if mark else "")
            else:
                b = vals[sides[1]]
                v, win_rate = verdict(a, b, m["better"], bound, failed[sides[0]], failed[sides[1]])
                change = (median(b) - median(a)) / abs(median(a)) if median(a) else 0.0
                line += f" -> {_fmt(b)} {change:+7.2%} wins {win_rate:4.0%} {v}"
            print(line, file=out)
    return steady


def _ops(record: dict) -> list[dict]:
    """The fresh-process operations of an untraced run; a traced run has none."""
    return record["detail"].get("ops", [])


def _save(path: str, records: list[dict]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"records": records}, fh, indent=1)


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["records"]


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("series", "pairs"):
        p = sub.add_parser(mode)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", required=True)
    sub.choices["series"].add_argument("--tree", default=".")
    sub.choices["series"].add_argument("--runs", type=int, default=10)
    sub.choices["pairs"].add_argument("--a", required=True, help="tree of the first side")
    sub.choices["pairs"].add_argument("--b", required=True, help="tree of the second side")
    sub.choices["pairs"].add_argument("--pairs", type=int, default=10)
    p_report = sub.add_parser("report")
    p_report.add_argument("file")
    args = parser.parse_args(argv)

    if args.mode == "report":
        records = _load(args.file)
    else:
        records = []
        count = args.runs if args.mode == "series" else args.pairs
        for i in range(count):
            seed = 1 + i
            for workload in workloads:
                if args.mode == "series":
                    order = (("a", args.tree),)
                else:
                    order = (("a", args.a), ("b", args.b))
                    order = order if i % 2 == 0 else order[::-1]
                for side, tree in order:
                    record = run_once(tree, workload, seed, spec["run_seconds"], args.trace)
                    record["side"] = side
                    records.append(record)
            _save(args.out, records)
    return 0 if report(records) else 1


if __name__ == "__main__":
    sys.exit(main())
