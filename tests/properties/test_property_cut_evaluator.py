"""Property: the bitset and frozenset cut evaluators are interchangeable.

For any valid DFG and any node subset, the memoizing
:class:`~repro.core.BitsetCutEvaluator` must agree with the from-scratch
``ReferenceCutEvaluator`` oracle (``tests/oracles/cut_evaluator.py``) on
every protocol query — merit, convexity, I/O counts, feasibility and
convex closure — and both must agree with the original reference helpers
in :mod:`repro.dfg`.  The shadow-cut
cache and every refactored baseline stand on this equivalence.
"""

from hypothesis import given, settings

from repro.core import BitsetCutEvaluator
from repro.dfg import convex_closure, count_io, is_convex, mask_of
from repro.hwmodel import ISEConstraints
from tests.oracles.cut_evaluator import ReferenceCutEvaluator

from .strategies import graphs_with_subsets

CONSTRAINTS = ISEConstraints(max_inputs=3, max_outputs=2, max_ises=2)


@settings(max_examples=120, deadline=None)
@given(graphs_with_subsets(max_nodes=18))
def test_bitset_evaluator_equals_reference_evaluator(case):
    dfg, members = case
    reference = ReferenceCutEvaluator(dfg, CONSTRAINTS)
    bitset = BitsetCutEvaluator(dfg, CONSTRAINTS)
    assert bitset.io_counts(members) == reference.io_counts(members)
    assert bitset.is_convex(members) == reference.is_convex(members)
    assert bitset.merit(members) == reference.merit(members)
    assert bitset.io_violation(members) == reference.io_violation(members)
    assert bitset.is_legal(members) == reference.is_legal(members)
    assert bitset.is_feasible(members) == reference.is_feasible(members)
    assert bitset.convex_closure(members) == reference.convex_closure(members)
    assert bitset.convexity_violation_count(
        members
    ) == reference.convexity_violation_count(members)
    # Memoized re-query returns the same answers.
    assert bitset.io_counts(members) == reference.io_counts(members)
    assert bitset.merit(members) == reference.merit(members)


@settings(max_examples=120, deadline=None)
@given(graphs_with_subsets(max_nodes=18))
def test_bitset_index_matches_dfg_reference_helpers(case):
    dfg, members = case
    index = dfg.bitset_index()
    mask = mask_of(members)
    assert index.io_counts(mask) == count_io(dfg, members)
    assert index.is_convex(mask) == is_convex(dfg, members)
    closure = index.convex_closure_mask(mask)
    assert closure == mask_of(convex_closure(dfg, members))


@settings(max_examples=80, deadline=None)
@given(graphs_with_subsets(max_nodes=14, allow_memory=False))
def test_convex_reset_order_between_closures(case):
    """Between any two convex cuts a convexity-preserving toggle order
    exists and is found (the shadow cache's pass-reset guarantee)."""
    dfg, members = case
    index = dfg.bitset_index()
    current = index.convex_closure_mask(mask_of(members))
    # A second convex cut derived from a shifted subset of the same graph.
    shifted = frozenset((i + 1) % dfg.num_nodes for i in members)
    target = index.convex_closure_mask(mask_of(shifted))
    order = index.convex_reset_order(current, target)
    assert order is not None
    cut = current
    for node in order:
        cut ^= 1 << node
        assert index.is_convex(cut)
    assert cut == target
