"""Unit tests of the mask-kernel layer: the block-size rule and the shared
per-process BitsetIndex memo (the differential op-level properties live in
``tests/properties/test_property_kernels.py``)."""

import dataclasses
import pickle

import pytest

from repro.core import ISEGenConfig
from repro.dfg import (
    BitsetIndex,
    PurePythonKernel,
    chain_dfg,
    kernel_for,
    numpy_available,
    numpy_kernel,
    random_dfg,
)
from repro.dfg import bitset as bitset_module
from repro.dfg import kernels as kernels_module
from repro.dfg.kernels import LANE_BITS, NumpyKernel
from repro.errors import ISEGenError


def _without_numpy(monkeypatch):
    """Simulate an environment without numpy by blanking the module probe."""
    monkeypatch.setattr(kernels_module, "_np", None)
    monkeypatch.setattr(kernels_module, "_np_checked", True)
    monkeypatch.setattr(kernels_module, "_NUMPY_KERNEL", None)
    assert not kernels_module.numpy_available()


# ----------------------------------------------------------------------
# The block-size rule
# ----------------------------------------------------------------------
def test_kernel_for_keeps_one_lane_blocks_on_pure():
    assert LANE_BITS == 64
    for num_nodes in (0, 1, 25, 64):
        kernel = kernel_for(num_nodes)
        assert isinstance(kernel, PurePythonKernel)
        assert kernel is kernel_for(num_nodes)  # shared singleton


def test_kernel_for_picks_numpy_above_one_lane():
    expected = "numpy" if numpy_available() else "pure"
    for num_nodes in (65, 696):
        assert kernel_for(num_nodes).name == expected
    if numpy_available():
        assert isinstance(kernel_for(65), NumpyKernel)
        assert kernel_for(65) is numpy_kernel()
    # The index carries the rule's choice for its block.
    assert chain_dfg(64).bitset_index().kernel.name == "pure"
    assert chain_dfg(65).bitset_index().kernel.name == expected


def test_kernel_for_ignores_retired_environment_variable(monkeypatch):
    """``ISEGEN_KERNEL`` no longer selects anything: only the size does."""
    expected = "numpy" if numpy_available() else "pure"
    for value in ("pure", "numpy", "fortran"):
        monkeypatch.setenv("ISEGEN_KERNEL", value)
        assert kernel_for(64).name == "pure"
        assert kernel_for(65).name == expected


def test_explicit_numpy_errors_when_unavailable(monkeypatch):
    """Asking for the numpy kernel must fail loudly, not silently degrade,
    when the backend is missing; the size rule quietly stays on pure."""
    _without_numpy(monkeypatch)
    with pytest.raises(ISEGenError, match="numpy"):
        numpy_kernel()
    for num_nodes in (0, 64, 65, 696):
        assert kernel_for(num_nodes).name == "pure"


def test_isegen_config_has_no_kernel_field():
    assert [f.name for f in dataclasses.fields(ISEGenConfig)] == [
        "max_passes",
        "weights",
        "min_merit",
        "reset_working_cut",
    ]
    with pytest.raises(TypeError):
        ISEGenConfig(kernel="pure")


# ----------------------------------------------------------------------
# The shared per-process index memo
# ----------------------------------------------------------------------
def test_shared_index_memoizes_structural_rebuilds():
    """Structurally identical DFGs (e.g. re-unpickled sweep payloads) reuse
    one set of index tables per process instead of rebuilding them."""
    dfg = random_dfg(24, seed=7)
    index = dfg.bitset_index()
    before = bitset_module.table_builds

    clone = pickle.loads(pickle.dumps(dfg))
    clone_index = clone.bitset_index()
    assert bitset_module.table_builds == before  # memo hit, no rebuild
    assert clone_index is not index  # rebound to the new DFG object...
    assert clone_index.dfg is clone
    assert clone_index.pred_mask is index.pred_mask  # ...sharing the tables
    assert clone_index.anc is index.anc
    # Repeated calls on the same object return the cached clone.
    assert clone.bitset_index() is clone_index


def test_shared_index_rebuilds_for_different_structure():
    before = bitset_module.table_builds
    first = chain_dfg(9).bitset_index()
    second = chain_dfg(10).bitset_index()
    assert bitset_module.table_builds == before + 2
    assert first.pred_mask is not second.pred_mask


def test_clone_for_answers_match_fresh_index():
    dfg = random_dfg(20, seed=11)
    fresh = BitsetIndex(dfg)
    clone = pickle.loads(pickle.dumps(dfg))
    shared = clone.bitset_index()
    cut_mask = 0b1011010
    assert shared.io_counts(cut_mask) == fresh.io_counts(cut_mask)
    assert shared.closure_masks(cut_mask) == fresh.closure_masks(cut_mask)
    for node in range(dfg.num_nodes):
        assert shared.toggle_addendum(cut_mask, node) == fresh.toggle_addendum(
            cut_mask, node
        )
