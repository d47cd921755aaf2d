#!/usr/bin/env python3
"""Write a small gallery of artifacts: JSON documents and SVG drawings."""

import argparse
import pathlib

from minvenn.bases import partition_cycles
from minvenn.builder import build_venn_dual, partition_preview_graph
from minvenn.doubling import double
from minvenn.export import render_dual_svg, render_primal_svg, write_json
from minvenn.verify import verify_graph


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="gallery")
    args = parser.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    g8 = build_venn_dual(3)
    report = verify_graph(g8)
    with (out / "venn8.json").open("w", encoding="utf-8") as fh:
        write_json(g8, fh, report=report)
    (out / "venn8-dual.svg").write_text(render_dual_svg(g8))
    (out / "venn8-primal.svg").write_text(render_primal_svg(g8, report=report))

    g9 = double(g8)
    with (out / "venn9.json").open("w", encoding="utf-8") as fh:
        write_json(g9, fh, report=verify_graph(g9))

    for k in (1, 2, 3):
        preview = partition_preview_graph(partition_cycles(k))
        (out / f"partition-k{k}.svg").write_text(render_dual_svg(preview))

    print(f"wrote gallery to {out}/")


if __name__ == "__main__":
    main()
