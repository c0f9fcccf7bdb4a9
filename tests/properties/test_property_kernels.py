"""Differential properties of the mask-kernel layer.

The numpy uint64-lane kernel must be *bit-identical* to the pure big-int
reference at every layer of the stack:

* **protocol ops** — every ``MaskKernel`` table operation returns the same
  values for the same inputs, and the lane/bit/index conversions round-trip;
* **index ops** — the kernel-dispatched :class:`BitsetIndex` queries
  (``io_counts``, ``closure_masks``) agree across kernels, and the
  mask-based ``toggle_addendum`` formula reproduces the ``IOState``
  toggle/read/toggle-back probe on arbitrary (even non-convex) cuts;
* **full pipeline** — K-L bipartition, genetic search and exhaustive
  enumeration produce the same cuts, toggle orders and trace counters with
  every block forced onto numpy as with every block forced onto pure
  (``tests/oracles/kernels.py``).

The whole module is skipped when numpy (>= 2.0) is unavailable — the pure
kernel is then the only backend and there is nothing to compare.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import best_single_cut
from repro.baselines.genetic import GeneticConfig, GeneticSearch
from repro.core import BitsetCutEvaluator, ISEGenConfig, bipartition
from repro.core.iostate import IOState
from repro.dfg import mask_of, numpy_available
from repro.hwmodel import ISEConstraints
from tests.oracles.kernels import KERNEL_NAMES, forced_kernel, kernel_named

from .strategies import dataflow_graphs, graphs_with_subsets

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy >= 2.0 not available"
)


def _kernels():
    return kernel_named("pure"), kernel_named("numpy")


@st.composite
def mask_tables(draw):
    """A random mask width plus a list of random masks of that width."""
    num_bits = draw(st.integers(min_value=1, max_value=200))
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << num_bits) - 1),
            min_size=1,
            max_size=24,
        )
    )
    selector = draw(st.integers(min_value=0, max_value=(1 << len(masks)) - 1))
    probe = draw(st.integers(min_value=0, max_value=(1 << num_bits) - 1))
    return num_bits, masks, selector, probe


# ----------------------------------------------------------------------
# Protocol ops
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(mask_tables())
def test_table_ops_identical_across_kernels(case):
    num_bits, masks, selector, probe = case
    pure, lanes = _kernels()
    table_pure = pure.make_table(masks, num_bits)
    table_np = lanes.make_table(masks, num_bits)
    for row in range(len(masks)):
        assert lanes.table_row(table_np, row) == pure.table_row(table_pure, row)
    assert list(lanes.popcount_many(table_np)) == list(
        pure.popcount_many(table_pure)
    )
    assert list(lanes.and_popcount_many(table_np, probe)) == list(
        pure.and_popcount_many(table_pure, probe)
    )
    assert lanes.union_selected(table_np, selector) == pure.union_selected(
        table_pure, selector
    )
    assert lanes.nonzero_rows_and(table_np, probe) == pure.nonzero_rows_and(
        table_pure, probe
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_scalar_ops_and_conversions_round_trip(num_bits, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << num_bits) - 1))
    other = data.draw(st.integers(min_value=0, max_value=(1 << num_bits) - 1))
    pure, lanes = _kernels()
    # Scalar protocol ops are shared big-int code paths in both kernels.
    for kernel in (pure, lanes):
        assert kernel.and_(mask, other) == mask & other
        assert kernel.or_(mask, other) == mask | other
        assert kernel.andnot(mask, other) == mask & ~other
        assert kernel.popcount(mask) == mask.bit_count()
        expected_lowest = (mask & -mask).bit_length() - 1 if mask else -1
        assert kernel.lowest_set(mask) == expected_lowest
        assert list(kernel.iter_set_bits(mask)) == [
            i for i in range(num_bits) if mask >> i & 1
        ]
    # Lane / bit-array / index conversions round-trip exactly.
    assert lanes.mask_of_lanes(lanes.lanes_of(mask, num_bits)) == mask
    assert lanes.mask_of_bits(lanes.bits_of(mask, num_bits)) == mask
    assert list(lanes.indices_of(mask, num_bits)) == [
        i for i in range(num_bits) if mask >> i & 1
    ]


# ----------------------------------------------------------------------
# Index-level dispatched queries
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(graphs_with_subsets(max_nodes=16))
def test_index_queries_identical_across_kernels(case):
    dfg, subset = case
    cut_mask = mask_of(subset)
    answers = {}
    for name in KERNEL_NAMES:
        with forced_kernel(name, dfg):
            index = dfg.bitset_index()
            answers[name] = (index.io_counts(cut_mask), index.closure_masks(cut_mask))
    assert answers["numpy"] == answers["pure"]


@settings(max_examples=120, deadline=None)
@given(graphs_with_subsets(max_nodes=16))
def test_toggle_addendum_matches_iostate_probe(case):
    """The mask-based Figure-3 addendum equals the ``IOState`` probe for
    every node against every cut — including non-convex ones."""
    dfg, subset = case
    index = dfg.bitset_index()
    io = IOState(dfg)
    for member in sorted(subset):
        io.toggle(member)
    cut_mask = mask_of(subset)
    for node in range(dfg.num_nodes):
        assert index.toggle_addendum(cut_mask, node) == io.addendum(node)


# ----------------------------------------------------------------------
# Full-pipeline equivalence
# ----------------------------------------------------------------------
@st.composite
def io_budgets(draw):
    return ISEConstraints(
        max_inputs=draw(st.integers(min_value=1, max_value=6)),
        max_outputs=draw(st.integers(min_value=1, max_value=4)),
    )


@settings(max_examples=60, deadline=None)
@given(dataflow_graphs(max_nodes=16), io_budgets())
def test_bipartition_identical_across_kernels(dfg, constraints):
    """Cuts, merits, toggle orders and every PassTrace counter agree —
    the vectorized gain evaluator is pinned against the scalar cache."""
    with forced_kernel("pure", dfg):
        pure_result = bipartition(dfg, constraints, ISEGenConfig())
    with forced_kernel("numpy", dfg):
        lane_result = bipartition(dfg, constraints, ISEGenConfig())
    assert lane_result.members == pure_result.members
    assert lane_result.merit == pure_result.merit
    assert len(lane_result.passes) == len(pure_result.passes)
    for lane_pass, pure_pass in zip(lane_result.passes, pure_result.passes):
        assert lane_pass.toggle_order == pure_pass.toggle_order
        assert lane_pass.toggles == pure_pass.toggles
        assert lane_pass.shadow_updates == pure_pass.shadow_updates
        assert lane_pass.best_merit == pure_pass.best_merit
        assert lane_pass.improved == pure_pass.improved
        assert lane_pass.gain_evals == pure_pass.gain_evals
        assert lane_pass.gain_cache_hits == pure_pass.gain_cache_hits
        assert lane_pass.shadow_cache_hits == pure_pass.shadow_cache_hits


@settings(max_examples=25, deadline=None)
@given(dataflow_graphs(max_nodes=14), st.integers(min_value=0, max_value=3))
def test_genetic_identical_across_kernels(dfg, seed):
    constraints = ISEConstraints(max_inputs=4, max_outputs=2)
    config = GeneticConfig(
        population_size=12, generations=8, stagnation_limit=0, seed=seed
    )
    results = {}
    for name in KERNEL_NAMES:
        with forced_kernel(name, dfg):
            evaluator = BitsetCutEvaluator(dfg, constraints)
            search = GeneticSearch(dfg, constraints, None, config, evaluator=evaluator)
            members = search.run()
        results[name] = (
            members,
            search.trace.evaluations,
            search.trace.memo_hits,
        )
    assert results["numpy"] == results["pure"]


@settings(max_examples=60, deadline=None)
@given(dataflow_graphs(max_nodes=14), io_budgets())
def test_enumeration_best_cut_identical_across_kernels(dfg, constraints):
    with forced_kernel("pure", dfg):
        pure_best = best_single_cut(dfg, constraints, node_limit=64)
    with forced_kernel("numpy", dfg):
        lane_best = best_single_cut(dfg, constraints, node_limit=64)
    assert lane_best == pure_best
