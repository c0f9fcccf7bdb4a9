"""Unit tests for the CutEvaluator protocol and its two implementations."""

import pickle

import pytest

from repro.core import BitsetCutEvaluator
from repro.dfg import count_io, is_convex, mask_of, random_dfg
from repro.hwmodel import ISEConstraints, LatencyModel
from repro.isa import Opcode
from tests.oracles.cut_evaluator import ReferenceCutEvaluator


CONSTRAINTS = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=4)


def _evaluators(dfg):
    return (
        ReferenceCutEvaluator(dfg, CONSTRAINTS),
        BitsetCutEvaluator(dfg, CONSTRAINTS),
    )


def test_evaluators_agree_on_fixture_cuts(mac_chain_dfg, diamond_dfg):
    for dfg in (mac_chain_dfg, diamond_dfg):
        reference, bitset = _evaluators(dfg)
        cuts = [
            frozenset(),
            frozenset(range(dfg.num_nodes)),
            frozenset({0}),
            frozenset({0, dfg.num_nodes - 1}),
        ]
        for cut in cuts:
            assert reference.io_counts(cut) == bitset.io_counts(cut)
            assert reference.is_convex(cut) == bitset.is_convex(cut)
            assert reference.merit(cut) == bitset.merit(cut)
            assert reference.io_violation(cut) == bitset.io_violation(cut)
            assert reference.is_legal(cut) == bitset.is_legal(cut)
            assert reference.is_feasible(cut) == bitset.is_feasible(cut)
            assert reference.convex_closure(cut) == bitset.convex_closure(cut)
            assert reference.convexity_violation_count(
                cut
            ) == bitset.convexity_violation_count(cut)


def test_mask_and_collection_inputs_are_interchangeable(diamond_dfg):
    reference, bitset = _evaluators(diamond_dfg)
    members = frozenset({0, 1})
    mask = mask_of(members)
    for evaluator in (reference, bitset):
        assert evaluator.io_counts(members) == evaluator.io_counts(mask)
        assert evaluator.merit(members) == evaluator.merit(mask)
        assert evaluator.is_convex(members) == evaluator.is_convex(mask)


def test_bitset_memoizes_per_mask(diamond_dfg):
    evaluator = BitsetCutEvaluator(diamond_dfg, CONSTRAINTS)
    cut = frozenset({0, 1})
    evaluator.merit(cut)
    assert evaluator.evaluations == 1
    evaluator.io_counts(cut)
    evaluator.is_convex(cut)
    assert evaluator.evaluations == 1
    assert evaluator.memo_hits == 2
    evaluator.merit(frozenset({1}))
    assert evaluator.evaluations == 2


def test_bitset_respects_latency_model_overrides(mac_chain_dfg):
    model = LatencyModel(software_overrides={Opcode.MUL: 7})
    reference = ReferenceCutEvaluator(mac_chain_dfg, CONSTRAINTS, model)
    bitset = BitsetCutEvaluator(mac_chain_dfg, CONSTRAINTS, model)
    cut = frozenset(range(mac_chain_dfg.num_nodes))
    assert reference.merit(cut) == bitset.merit(cut)


def test_index_io_counts_match_reference_on_random_graphs():
    for seed in range(5):
        dfg = random_dfg(40, seed=seed, live_out_fraction=0.25, memory_fraction=0.1)
        index = dfg.bitset_index()
        for cut_seed in range(6):
            members = frozenset(
                i for i in range(dfg.num_nodes) if (i * 7 + cut_seed) % 3 == 0
            )
            mask = mask_of(members)
            assert index.io_counts(mask) == count_io(dfg, members)
            assert index.is_convex(mask) == is_convex(dfg, members)


def test_index_is_cached_and_survives_mutation():
    dfg = random_dfg(10, seed=1)
    first = dfg.bitset_index()
    assert dfg.bitset_index() is first
    dfg.add_node("extra", Opcode.ADD, ["n0", "n1"])
    rebuilt = dfg.bitset_index()
    assert rebuilt is not first
    assert rebuilt.num_nodes == dfg.num_nodes


def test_index_not_pickled_with_graph():
    dfg = random_dfg(12, seed=3)
    dfg.bitset_index()
    clone = pickle.loads(pickle.dumps(dfg))
    assert clone._bitset_index is None
    # And it rebuilds on demand with identical tables.
    assert clone.bitset_index().anc == dfg.bitset_index().anc


@pytest.mark.parametrize("seed", range(4))
def test_convex_reset_order_keeps_every_intermediate_convex(seed):
    dfg = random_dfg(30, seed=seed, live_out_fraction=0.2)
    index = dfg.bitset_index()
    # Build two random convex cuts via closures of random seeds.
    current = index.convex_closure_mask(mask_of({seed, seed + 3}))
    target = index.convex_closure_mask(mask_of({seed + 5, seed + 9}))
    order = index.convex_reset_order(current, target)
    assert order is not None
    cut = current
    for node in order:
        cut ^= 1 << node
        assert index.is_convex(cut)
    assert cut == target
