"""Tests for the modified Kernighan-Lin bi-partitioning loop (Figure 2)."""

import pytest

from repro.core import ISEGenConfig, bipartition
from repro.dfg import count_io, is_convex, random_dfg
from repro.errors import ISEGenError
from repro.hwmodel import ISEConstraints


def test_result_is_legal_and_positive(mac_chain_dfg, paper_constraints):
    result = bipartition(mac_chain_dfg, paper_constraints)
    assert result.merit > 0
    assert result.members
    cut = result.cut
    assert cut.is_convex()
    assert cut.num_inputs <= paper_constraints.max_inputs
    assert cut.num_outputs <= paper_constraints.max_outputs
    assert not cut.contains_forbidden()


def test_matches_whole_block_merit_under_loose_constraints(mac_chain_dfg):
    from repro.merit import MeritFunction

    loose = ISEConstraints(max_inputs=16, max_outputs=8, max_ises=1)
    result = bipartition(mac_chain_dfg, loose)
    # With generous I/O nothing beats (the merit of) hardware-executing the
    # whole block; the returned cut may omit nodes that contribute no merit.
    whole = MeritFunction().merit(
        mac_chain_dfg, range(mac_chain_dfg.num_nodes)
    )
    assert result.merit >= whole
    assert len(result.members) >= mac_chain_dfg.num_nodes - 1


def test_respects_forbidden_nodes(chain_with_memory_dfg, paper_constraints):
    result = bipartition(chain_with_memory_dfg, paper_constraints)
    load_index = chain_with_memory_dfg.node("ld").index
    assert load_index not in result.members


def test_allowed_restriction(mac_chain_dfg, paper_constraints):
    allowed = mac_chain_dfg.indices_of(["p0", "s0", "p1", "s1"])
    result = bipartition(mac_chain_dfg, paper_constraints, allowed=allowed)
    assert result.members <= allowed


def test_is_deterministic(medium_random_dfg, paper_constraints):
    first = bipartition(medium_random_dfg, paper_constraints)
    second = bipartition(medium_random_dfg, paper_constraints)
    assert first.members == second.members
    assert first.merit == second.merit


def test_pass_traces_and_limit(medium_random_dfg, paper_constraints):
    config = ISEGenConfig(max_passes=3)
    result = bipartition(medium_random_dfg, paper_constraints, config)
    assert 1 <= result.num_passes <= 3
    for trace in result.passes:
        assert trace.toggles > 0
    # A single pass is allowed and still produces a legal result.
    single = bipartition(
        medium_random_dfg, paper_constraints, ISEGenConfig(max_passes=1)
    )
    assert single.num_passes == 1
    assert single.merit <= result.merit or single.merit > 0


def test_more_passes_never_hurt(medium_random_dfg, paper_constraints):
    one = bipartition(medium_random_dfg, paper_constraints, ISEGenConfig(max_passes=1))
    five = bipartition(medium_random_dfg, paper_constraints, ISEGenConfig(max_passes=5))
    assert five.merit >= one.merit


def test_reset_variant_also_produces_legal_cuts(medium_random_dfg, paper_constraints):
    config = ISEGenConfig(reset_working_cut=True)
    result = bipartition(medium_random_dfg, paper_constraints, config)
    if result.members:
        assert is_convex(medium_random_dfg, result.members)
        num_in, num_out = count_io(medium_random_dfg, result.members)
        assert num_in <= paper_constraints.max_inputs
        assert num_out <= paper_constraints.max_outputs


def test_legal_initial_members_are_a_valid_seed(mac_chain_dfg, paper_constraints):
    from repro.merit import MeritFunction

    seed = mac_chain_dfg.indices_of(["p0", "s0"])
    seed_merit = MeritFunction().merit(mac_chain_dfg, seed)
    result = bipartition(
        mac_chain_dfg, paper_constraints, initial_members=seed
    )
    assert result.merit >= seed_merit  # the seed is never made worse


def test_illegal_seed_is_discarded(diamond_dfg, paper_constraints):
    # n0 + n3 is not convex; the seed must not poison the search.
    seed = diamond_dfg.indices_of(["n0", "n3"])
    result = bipartition(diamond_dfg, paper_constraints, initial_members=seed)
    if result.members:
        assert is_convex(diamond_dfg, result.members)


def test_empty_graph_yields_empty_cut(paper_constraints):
    from repro.dfg import DataFlowGraph

    empty = DataFlowGraph("empty").prepare()
    result = bipartition(empty, paper_constraints)
    assert result.is_empty
    assert result.merit == 0


def test_invalid_config_rejected():
    with pytest.raises(ISEGenError):
        ISEGenConfig(max_passes=0)


def test_runtime_is_recorded(medium_random_dfg, paper_constraints):
    result = bipartition(medium_random_dfg, paper_constraints)
    assert result.runtime_seconds > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_graphs_always_yield_legal_results(seed, paper_constraints):
    dfg = random_dfg(35, seed=seed, memory_fraction=0.1, live_out_fraction=0.25)
    result = bipartition(dfg, paper_constraints)
    if result.members:
        assert is_convex(dfg, result.members)
        num_in, num_out = count_io(dfg, result.members)
        assert num_in <= paper_constraints.max_inputs
        assert num_out <= paper_constraints.max_outputs
        assert not (dfg.forbidden_mask & sum(1 << i for i in result.members))
