#!/usr/bin/env python3
"""Write a small gallery of artifacts: JSON documents and SVG drawings."""

import argparse
import pathlib

from minvenn.bases import partition_cycles
from minvenn.builder import build_venn_dual, partition_preview_graph
from minvenn.doubling import double
from minvenn.export import dump_json, render_dual_svg, render_primal_svg, to_json
from minvenn.verify import verify_graph


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="gallery")
    args = parser.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    g8 = build_venn_dual(3)
    report = verify_graph(g8)
    (out / "venn8.json").write_text(dump_json(to_json(g8, report)), encoding="utf-8")
    (out / "venn8-dual.svg").write_text(render_dual_svg(g8))
    (out / "venn8-primal.svg").write_text(render_primal_svg(g8, report=report))

    g9 = double(g8)
    (out / "venn9.json").write_text(dump_json(to_json(g9, verify_graph(g9))), encoding="utf-8")

    for k in (1, 2, 3):
        preview = partition_preview_graph(partition_cycles(k))
        (out / f"partition-k{k}.svg").write_text(render_dual_svg(preview))

    print(f"wrote gallery to {out}/")


if __name__ == "__main__":
    main()
