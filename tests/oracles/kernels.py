"""Force a mask kernel, for the tests and benchmarks that compare the two.

Production code never chooses a kernel: :func:`repro.dfg.kernels.kernel_for`
picks it from the block's size when the block's ``BitsetIndex`` is built.
The differential suites still have to run one graph under both kernels, so
:func:`forced_kernel` patches that rule for the duration of a ``with``
block and drops every index built under the other rule.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from unittest import mock

from repro.dfg import DataFlowGraph, bitset, kernels
from repro.dfg.kernels import MaskKernel

KERNEL_NAMES = ("pure", "numpy")


def kernel_named(name: str) -> MaskKernel:
    """The shared kernel instance called *name* (``"pure"`` or ``"numpy"``).

    ``"numpy"`` raises :class:`~repro.errors.ISEGenError` when numpy is
    absent, like :func:`repro.dfg.kernels.numpy_kernel`.
    """
    if name == "pure":
        return kernels.PURE_KERNEL
    if name == "numpy":
        return kernels.numpy_kernel()
    raise ValueError(f"unknown mask kernel {name!r}")


def _drop_indexes(graphs: tuple[DataFlowGraph, ...]) -> None:
    bitset._INDEX_MEMO.clear()
    for graph in graphs:
        graph._bitset_index = None


@contextmanager
def forced_kernel(name: str, *graphs: DataFlowGraph) -> Iterator[MaskKernel]:
    """Run every block on kernel *name* inside the ``with`` block.

    Patches :func:`~repro.dfg.kernels.kernel_for` and drops the per-process
    index memo, plus the cached index of each graph in *graphs* (the graphs
    the caller already indexed), on entry and again on exit.  Indexes built
    inside the block carry the forced kernel; after it, graphs are indexed
    by the size rule again.
    """
    kernel = kernel_named(name)
    with mock.patch.object(kernels, "kernel_for", lambda num_nodes: kernel):
        _drop_indexes(graphs)
        try:
            for graph in graphs:
                assert graph.bitset_index().kernel is kernel
            yield kernel
        finally:
            _drop_indexes(graphs)
