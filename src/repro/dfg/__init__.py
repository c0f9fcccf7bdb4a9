"""Data-flow graph substrate: graphs, cuts, convexity, I/O and topology."""

from .graph import DataFlowGraph, DFGNode, indices_of_mask, mask_of, popcount
from .bitset import BitsetIndex, SuffixFrontiers, shared_index
from .kernels import (
    MaskKernel,
    NumpyKernel,
    PurePythonKernel,
    kernel_for,
    numpy_available,
    numpy_kernel,
)
from .builder import DFGBuilder
from .cut import Cut, CutFeasibility
from .convexity import (
    convex_closure,
    closure_masks,
    is_convex,
    is_convex_mask,
    removal_preserves_convexity,
    violating_nodes,
)
from .io_count import (
    count_io,
    cut_input_values,
    cut_output_nodes,
    io_feasible,
    io_violation,
    node_io_footprint,
    union_io,
)
from .topology import (
    connected_components,
    critical_path_delay,
    critical_path_nodes,
    downward_barrier_distances,
    graph_depth,
    induced_edges,
    node_levels,
    sinks,
    sources,
    upward_barrier_distances,
)
from .hashing import cut_signature, node_signatures, opcode_histogram
from .random_dfg import chain_dfg, layered_dfg, random_dfg
from .serialization import (
    dfg_from_dict,
    dfg_to_dict,
    dfg_to_dot,
    load_dfg,
    save_dfg,
)

__all__ = [
    "DataFlowGraph",
    "DFGNode",
    "DFGBuilder",
    "BitsetIndex",
    "SuffixFrontiers",
    "shared_index",
    "MaskKernel",
    "PurePythonKernel",
    "NumpyKernel",
    "kernel_for",
    "numpy_available",
    "numpy_kernel",
    "Cut",
    "CutFeasibility",
    "mask_of",
    "indices_of_mask",
    "popcount",
    "is_convex",
    "is_convex_mask",
    "convex_closure",
    "closure_masks",
    "removal_preserves_convexity",
    "violating_nodes",
    "count_io",
    "cut_input_values",
    "cut_output_nodes",
    "io_feasible",
    "io_violation",
    "node_io_footprint",
    "union_io",
    "connected_components",
    "critical_path_delay",
    "critical_path_nodes",
    "upward_barrier_distances",
    "downward_barrier_distances",
    "node_levels",
    "graph_depth",
    "sources",
    "sinks",
    "induced_edges",
    "cut_signature",
    "node_signatures",
    "opcode_histogram",
    "random_dfg",
    "layered_dfg",
    "chain_dfg",
    "dfg_to_dict",
    "dfg_from_dict",
    "dfg_to_dot",
    "save_dfg",
    "load_dfg",
]
