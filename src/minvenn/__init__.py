"""Venn diagram dual graphs with near-minimum crossing counts.

Build plane spanning subgraphs of the hypercube whose faces are the
crossings of an n-Venn diagram: a concentric construction from an isometric
cycle partition when n is a power of two, and a doubling step for every
other n >= 8.  Everything is verified independently of the construction.

The names below are the documented entry points; everything else is
importable from its own module.
"""

from .bases import partition_cycles
from .builder import BuildError, FaceCatalogMismatch, build_venn_dual
from .doubling import DoublingError, build_venn, double
from .export import DocumentError, RenderError, from_json, to_json
from .plane_graph import InconsistentRotation, PlaneDualGraph
from .runs import longrun_path, run_partition
from .verify import verify_graph

__all__ = [
    "BuildError",
    "DocumentError",
    "DoublingError",
    "FaceCatalogMismatch",
    "InconsistentRotation",
    "PlaneDualGraph",
    "RenderError",
    "build_venn",
    "build_venn_dual",
    "double",
    "from_json",
    "longrun_path",
    "partition_cycles",
    "run_partition",
    "to_json",
    "verify_graph",
]
