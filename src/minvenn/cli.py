"""Command line interface: build, verify, stats, gray, partition.

All commands are deterministic; identical invocations produce byte-identical
output.  Documents go to stdout (or --out), reports and diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain

from .bases import partition_cycles
from .builder import BuildError, partition_preview_graph
from .doubling import build_venn
from .export import (
    RenderError,
    dump_json,
    from_json,
    load_json,
    render_dual_svg,
    render_primal_svg,
    to_dot,
    to_json,
)
from .hypercube import DEFAULT_CAP, MAX_CAP, MAX_DIMENSION
from .runs import mu, product_path, run_partition
from .verify import expected_crossings, lower_bound, monotone_reference, verify_graph


def _emit(text: str, out_path: str | None, parser) -> None:
    """Write text to the --out file, or to stdout without --out."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(text)


def _check_out(path: str | None, parser) -> None:
    """A usage error, before any work, if --out is set and not a file in an existing directory."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        parser.error(f"--out {path}: no directory {folder}")
    if os.path.isdir(path):
        parser.error(f"--out {path} is a directory")


def _cmd_build(args, parser) -> int:
    _check_out(args.out, parser)
    try:
        g = build_venn(args.n, cap=args.cap)
    except BuildError as exc:
        parser.error(str(exc))
    report = verify_graph(g)
    print(report.format_text(), file=sys.stderr)
    try:
        if args.format == "json":
            text = dump_json(to_json(g, report))
        elif args.format == "dot":
            text = to_dot(g)
        elif args.format == "svg-dual":
            text = render_dual_svg(g)
        else:
            text = render_primal_svg(g, report=report)
    except RenderError as exc:
        parser.error(str(exc))
    _emit(text, args.out, parser)
    return 0 if report.passed else 1


def _cmd_verify(args, parser) -> int:
    if args.json:
        _check_out(args.out, parser)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            g = from_json(load_json(fh.read()))
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load {args.file}: {exc}")
    report = verify_graph(g)
    print(report.format_text(), file=sys.stderr)
    if args.json:
        _emit(dump_json(report.to_dict()), args.out, parser)
    return 0 if report.passed else 1


def _achieved(n: int) -> int | None:
    if n < 8:
        return None
    k = n.bit_length() - 1
    return expected_crossings(k, n - (1 << k))


def _cmd_stats(args, parser) -> int:
    _check_out(args.out, parser)
    if args.n_max < 1:
        parser.error("--n-max must be >= 1")
    if args.n_max > MAX_DIMENSION:
        parser.error(f"--n-max at most {MAX_DIMENSION}")
    rows = ["   n   lower_bound   constructed      monotone"]
    for n in range(1, args.n_max + 1):
        bound = 0 if n == 1 else lower_bound(n)
        built = _achieved(n)
        rows.append(
            f"{n:4d}  {bound:12d}  {built if built is not None else '-':>12}  "
            f"{monotone_reference(n):12d}"
        )
    _emit("\n".join(rows) + "\n", args.out, parser)
    return 0


def _cmd_gray(args, parser) -> int:
    _check_out(args.out, parser)
    try:
        path = product_path(args.k, args.m)
    except ValueError as exc:
        parser.error(str(exc))
    lines = [" ".join(map(str, path.flips))]
    if args.stats:
        n = 1 << args.k
        parts = run_partition(path.flips, n - 1)
        lines.append(
            f"length={len(path.flips)} n={n + args.m} rho={n - 1} "
            f"nu={parts.nu} lambda={parts.lam} mu={mu(path.flips)}"
        )
    _emit("\n".join(lines) + "\n", args.out, parser)
    return 0


def _cmd_partition(args, parser) -> int:
    _check_out(args.out, parser)
    try:
        cycles = partition_cycles(args.k)
    except ValueError as exc:
        parser.error(str(exc))
    n = 1 << args.k
    if args.format == "svg-dual":
        _emit(render_dual_svg(partition_preview_graph(cycles)), args.out, parser)
    else:
        lines = [f"x={c[0]}: " + " ".join(map(str, c)) for c in cycles]
        _emit("\n".join(lines) + "\n", args.out, parser)
    seen = set(chain.from_iterable(cycles))
    ok = len(seen) == sum(map(len, cycles)) == 1 << n
    print(
        f"partition check: {'PASS' if ok else 'FAIL'} "
        f"({len(cycles)} cycles, {len(seen)} of {1 << n} vertices)",
        file=sys.stderr,
    )
    return 0 if ok else 1


class _Command(argparse.ArgumentParser):
    """A subcommand's parser: its own usage line over a `minvenn: error: ...` line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"minvenn: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minvenn",
        description=(
            "Build, verify and export Venn diagram dual graphs with "
            "near-minimum crossing counts. All commands are deterministic; "
            "there is no randomness to seed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    p_build = sub.add_parser("build", help="build the dual graph for n curves")
    p_build.add_argument("--n", type=int, required=True, help="number of curves (>= 8)")
    p_build.add_argument("--out", help="write the document here instead of stdout")
    p_build.add_argument(
        "--format",
        choices=("json", "dot", "svg-dual", "svg-primal"),
        default="json",
    )
    p_build.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"materialization cap on n (default {DEFAULT_CAP}, max {MAX_CAP})",
    )
    p_build.set_defaults(handler=_cmd_build, parser=p_build)

    p_verify = sub.add_parser("verify", help="verify a JSON dual graph document")
    p_verify.add_argument("file")
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_verify.add_argument("--out", help="write the JSON report here instead of stdout")
    p_verify.set_defaults(handler=_cmd_verify, parser=p_verify)

    p_stats = sub.add_parser("stats", help="crossing counts vs bounds per n")
    p_stats.add_argument("--n-max", type=int, default=16)
    p_stats.add_argument("--out")
    p_stats.set_defaults(handler=_cmd_stats, parser=p_stats)

    p_gray = sub.add_parser("gray", help="long-run Hamiltonian path flip sequences")
    p_gray.add_argument("--k", type=int, required=True, help="base dimension n = 2^k")
    p_gray.add_argument("--m", type=int, default=0, help="extra product dimensions")
    p_gray.add_argument("--stats", action="store_true", help="append nu/lambda/mu line")
    p_gray.add_argument("--out")
    p_gray.set_defaults(handler=_cmd_gray, parser=p_gray)

    p_part = sub.add_parser("partition", help="isometric cycle partition of Q_(2^k)")
    p_part.add_argument("--k", type=int, required=True)
    p_part.add_argument("--format", choices=("text", "svg-dual"), default="text")
    p_part.add_argument("--out")
    p_part.set_defaults(handler=_cmd_partition, parser=p_part)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, args.parser)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


def run() -> None:
    # One short process: the library makes no reference cycles, so the
    # collector would only rescan the graph's containers again and again.
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    run()
