#!/usr/bin/env python3
"""End-to-end timings of the CLI: `minvenn build --n N --out DOC`, then `minvenn verify DOC`.

Each repeat of each command runs in a fresh process, started by a small
launcher process that reports the command's wall time (spawn to reap) and
peak RSS (`os.wait4`).  A process inherits its parent's high-water RSS
across fork and exec, so the command is never started from this script,
whose own peak grows with what it has run.

The result goes to BENCH_<label>.json at the repo root: per n, the median
wall time and peak RSS of the repeats of each command, every repeat's
figures, and the document's size and SHA-256.  Every repeat of a build must
write the same bytes.  The stdlib is all it needs.

    python scripts/bench.py --label baseline --src /path/to/other/checkout/src
    python scripts/bench.py --n 8 12 16 18 20 --repeats 5
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs argv[1:] to exit and prints [exit code, wall s, peak RSS KiB].  It
# imports nothing beyond what the interpreter has loaded at start-up.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_pid, status, usage = os.wait4(pid, 0)
print([os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss])
"""


def launch(argv: list[str], env: dict) -> tuple[float, float]:
    """One fresh-process run of argv through the launcher: (wall s, peak RSS MiB)."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
        text=True,
    )
    code, wall, rss_kib = json.loads(proc.stdout)
    if code != 0:
        sys.exit(f"{' '.join(argv[3:])} exited {code}")
    return round(wall, 4), round(rss_kib / 1024, 2)


def summary(runs: list[tuple]) -> dict:
    """Medians of the (wall s, peak RSS MiB) runs, and each run's figures."""
    walls, peaks = zip(*runs)
    return {
        "wall_s": round(statistics.median(walls), 4),
        "peak_rss_mib": round(statistics.median(peaks), 2),
        "wall_s_each": list(walls),
        "peak_rss_mib_each": list(peaks),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[8, 12, 16, 18],
                        help="sizes to run (default 8 12 16 18; 20 is opt-in)")
    parser.add_argument("--repeats", type=int, default=3, help="fresh-process runs per command")
    parser.add_argument("--label", default="local", help="names the output, BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the minvenn source tree to run (default: this checkout's)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    cli = [sys.executable, "-m", "minvenn.cli"]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            doc = Path(tmp) / f"venn{n}.json"
            build, digests = [], set()
            for _ in range(args.repeats):
                build.append(launch([*cli, "build", "--n", str(n), "--cap", "20", "--out", str(doc)], env))
                data = doc.read_bytes()
                digests.add(hashlib.sha256(data).hexdigest())
            if len(digests) > 1:
                sys.exit(f"build --n {n} wrote {len(digests)} different documents")
            verify = [launch([*cli, "verify", str(doc)], env) for _ in range(args.repeats)]
            rows.append({
                "n": n,
                "build": summary(build),
                "verify": summary(verify),
                "doc_bytes": len(data),
                "doc_sha256": digests.pop(),
            })
            b, v = rows[-1]["build"], rows[-1]["verify"]
            print(f"n={n}: build {b['wall_s']} s {b['peak_rss_mib']} MiB, "
                  f"verify {v['wall_s']} s {v['peak_rss_mib']} MiB, {len(data)} bytes", file=sys.stderr)
    result = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "rows": rows,
    }
    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
