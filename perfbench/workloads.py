"""The benchmark's workloads: set-up, one operation, and its correctness check.

Every operation runs closed-loop, one at a time.  In an untraced run each
operation is a fresh process, so its peak RSS can be read from ``os.wait4``
and nothing cached by one operation helps the next.  The traced run calls
the same entry points in-process (see ``tracer.py``).

minvenn has no randomness, so the ``--seed`` the benchmark accepts changes
no input; it is recorded with each result only.

Run as a script, this file is the child process of one ``construct``
operation: it imports minvenn, times the library calls and prints them as
JSON.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# What the installed ``minvenn`` console script does.
CLI_BOOT = "import sys; from minvenn.cli import run; sys.exit(run())"
IMPORT_PROBE = "import minvenn.cli; print(minvenn.cli.__file__)"

MODULES = ("cli", "doubling", "builder", "plane_graph", "verify", "export")

CROSSINGS_16 = 5118
CONSTRUCT_NS = tuple(range(8, 18))
CONSTRUCT_CROSSINGS = (40, 80, 160, 320, 640, 1280, 2560, 5120, 5118, 10236)
CONSTRUCT_CAP = 17
REPORT_CHECKS = [
    "rotation-consistent",
    "spanning",
    "connected",
    "euler",
    "edge-conservation",
    "faces-direction-pairs",
    "curves-simple",
    "crossings-at-least-lower-bound",
    "crossings-match-formula",
]


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Outcome:
    """What one operation left behind."""

    exit_code: int
    seconds: float
    rss_mib: float | None = None
    crossings: list[int] | None = None


@dataclass
class Context:
    tree: Path
    src: Path
    work: Path

    @property
    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.src))


def run_child(argv: list[str], ctx: Context) -> tuple[Outcome, bytes]:
    """Run a fresh process to exit; wall time from spawn to reap, peak RSS from wait4."""
    with open(ctx.work / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ctx.env,
                                cwd=ctx.tree)
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, seconds, usage.ru_maxrss / 1024.0), out


def probe_import(ctx: Context) -> None:
    """Import minvenn in a fresh process and check it came from the tree under test."""
    outcome, out = run_child([sys.executable, "-c", IMPORT_PROBE], ctx)
    path = Path(out.decode().strip() or ".").resolve()
    if outcome.exit_code != 0 or ctx.src not in path.parents:
        raise CheckFailed(f"minvenn did not import from {ctx.src}")


def load_modules(src: Path) -> dict:
    """Import minvenn's modules in this process, from ``src`` only."""
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"minvenn.{name}") for name in MODULES}
    if src not in Path(mods["cli"].__file__).resolve().parents:
        raise CheckFailed(f"minvenn did not import from {src}")
    return mods


def call_cli(mods: dict, argv: list[str]) -> Outcome:
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = mods["cli"].main(argv)
        seconds = time.perf_counter() - start
    return Outcome(code, seconds)


def construct(build_venn, crossing_count) -> list[int]:
    return [crossing_count(build_venn(n, cap=CONSTRUCT_CAP)) for n in CONSTRUCT_NS]


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def check_doc16(path: Path) -> None:
    """The meaning of a build16 document, independent of its layout version."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("report"), dict):
        raise CheckFailed("document has no report")
    report = doc["report"]
    _expect("document n", doc.get("n"), 16)
    _expect("document crossings", doc.get("crossings"), CROSSINGS_16)
    _expect("report passed", report.get("passed"), True)
    _expect("report checks", [c.get("name") for c in report.get("checks", [])], REPORT_CHECKS)


class Workload:
    name = ""
    # A set-up before every operation: it is only a fresh import.
    setup_every = 1
    doc_name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    @property
    def doc(self) -> Path:
        return self.ctx.work / self.doc_name

    def doc_bytes(self) -> int:
        return self.doc.stat().st_size if self.doc_name else 0

    def setup(self) -> None:
        probe_import(self.ctx)

    def cli_args(self) -> list[str]:
        """Arguments of the operation's ``minvenn`` command; clears its old output."""
        raise NotImplementedError

    def run(self) -> Outcome:
        """One operation in a fresh process."""
        outcome, _out = run_child([sys.executable, "-c", CLI_BOOT, *self.cli_args()], self.ctx)
        return outcome

    def call(self, mods: dict) -> Outcome:
        """One operation in this process, through the same entry point."""
        return call_cli(mods, self.cli_args())

    def check(self, outcome: Outcome) -> None:
        raise NotImplementedError


class Build16(Workload):
    """``minvenn build --n 16 --out <file>``, from process start to exit."""

    name = "build16"
    doc_name = "build16.json"

    def cli_args(self) -> list[str]:
        self.doc.unlink(missing_ok=True)
        return ["build", "--n", "16", "--out", str(self.doc)]

    def check(self, outcome: Outcome) -> None:
        _expect("exit code", outcome.exit_code, 0)
        check_doc16(self.doc)


class Verify16(Workload):
    """``minvenn verify <doc16> --json --out <file>`` on a document written at set-up."""

    name = "verify16"
    # Set-up also writes a document, which takes longer than an operation.
    setup_every = 3
    doc_name = "verify16-input.json"

    @property
    def report(self) -> Path:
        return self.ctx.work / "verify16-report.json"

    def setup(self) -> None:
        probe_import(self.ctx)
        self.doc.unlink(missing_ok=True)
        argv = ["build", "--n", "16", "--out", str(self.doc)]
        outcome, _out = run_child([sys.executable, "-c", CLI_BOOT, *argv], self.ctx)
        _expect("set-up build exit code", outcome.exit_code, 0)
        check_doc16(self.doc)

    def cli_args(self) -> list[str]:
        self.report.unlink(missing_ok=True)
        return ["verify", str(self.doc), "--json", "--out", str(self.report)]

    def check(self, outcome: Outcome) -> None:
        _expect("exit code", outcome.exit_code, 0)
        report = _load_json(self.report)
        if not isinstance(report, dict):
            raise CheckFailed("report is not an object")
        _expect("report n", report.get("n"), 16)
        _expect("report crossings", report.get("crossings"), CROSSINGS_16)
        _expect("report passed", report.get("passed"), True)


class Construct(Workload):
    """``build_venn(n, cap=17)`` then ``crossing_count`` for n = 8..17, as library calls."""

    name = "construct"

    def run(self) -> Outcome:
        outcome, out = run_child([sys.executable, str(Path(__file__).resolve())], self.ctx)
        if outcome.exit_code == 0:
            # The operation is the library calls; the child's start-up and
            # imports are what set-up measures.
            try:
                result = json.loads(out)
                outcome.seconds = float(result["seconds"])
                outcome.crossings = result["crossings"]
            except (ValueError, KeyError, TypeError):
                outcome.exit_code = -1
        return outcome

    def call(self, mods: dict) -> Outcome:
        start = time.perf_counter()
        crossings = construct(mods["doubling"].build_venn, mods["plane_graph"].crossing_count)
        return Outcome(0, time.perf_counter() - start, crossings=crossings)

    def check(self, outcome: Outcome) -> None:
        _expect("exit code", outcome.exit_code, 0)
        _expect("crossings for n = 8..17", outcome.crossings, list(CONSTRUCT_CROSSINGS))


WORKLOADS = {w.name: w for w in (Build16, Verify16, Construct)}


def _construct_child() -> None:
    from minvenn.doubling import build_venn
    from minvenn.plane_graph import crossing_count

    start = time.perf_counter()
    crossings = construct(build_venn, crossing_count)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "crossings": crossings}))


if __name__ == "__main__":
    _construct_child()
