"""Tests for the PartitionState incremental bookkeeping."""

import math
import random

import pytest

from repro.core import PartitionState
from repro.dfg import count_io, is_convex
from repro.errors import ISEGenError
from repro.hwmodel import LatencyModel
from repro.merit import MeritFunction
from tests.oracles.kl import exact_merit_if_toggled


def test_initial_state_is_empty_and_legal(mac_chain_dfg, paper_constraints):
    state = PartitionState(mac_chain_dfg, paper_constraints)
    assert state.cut_size == 0
    assert state.members() == frozenset()
    assert state.is_legal()
    assert state.merit == 0
    assert state.hardware_latency == 0


def test_forbidden_nodes_cannot_be_toggled(chain_with_memory_dfg, paper_constraints):
    state = PartitionState(chain_with_memory_dfg, paper_constraints)
    load_index = chain_with_memory_dfg.node("ld").index
    assert not state.is_allowed(load_index)
    with pytest.raises(ISEGenError, match="may not be toggled"):
        state.toggle(load_index)


def test_allowed_subset_restricts_toggles(mac_chain_dfg, paper_constraints):
    allowed = mac_chain_dfg.indices_of(["p0", "s0"])
    state = PartitionState(mac_chain_dfg, paper_constraints, allowed=allowed)
    assert state.is_allowed(mac_chain_dfg.node("p0").index)
    assert not state.is_allowed(mac_chain_dfg.node("p1").index)
    with pytest.raises(ISEGenError):
        state.toggle(mac_chain_dfg.node("p1").index)


def test_merit_matches_merit_function(mac_chain_dfg, paper_constraints):
    state = PartitionState(mac_chain_dfg, paper_constraints)
    merit_function = MeritFunction()
    for name in ("p0", "s0", "p1", "s1"):
        state.toggle(mac_chain_dfg.node(name).index)
        assert state.merit == merit_function.merit(mac_chain_dfg, state.members())


def test_io_and_convexity_track_ground_truth(medium_random_dfg, paper_constraints):
    rng = random.Random(11)
    state = PartitionState(medium_random_dfg, paper_constraints)
    toggleable = [
        index
        for index in range(medium_random_dfg.num_nodes)
        if state.is_allowed(index)
    ]
    for _ in range(150):
        state.toggle(rng.choice(toggleable))
        members = state.members()
        assert (state.num_inputs, state.num_outputs) == count_io(
            medium_random_dfg, members
        )
        assert state.is_convex() == is_convex(medium_random_dfg, members)


def test_hypothetical_queries_do_not_mutate(mac_chain_dfg, paper_constraints):
    state = PartitionState(mac_chain_dfg, paper_constraints)
    p0 = mac_chain_dfg.node("p0").index
    s0 = mac_chain_dfg.node("s0").index
    state.toggle(p0)
    before = (state.members(), state.num_inputs, state.num_outputs, state.merit)
    state.io_if_toggled(s0)
    state.convex_if_toggled(s0)
    state.estimate_merit_if_toggled(s0)
    exact_merit_if_toggled(state, s0)
    assert before == (
        state.members(),
        state.num_inputs,
        state.num_outputs,
        state.merit,
    )


def test_convex_if_toggled_matches_ground_truth(diamond_dfg, paper_constraints):
    state = PartitionState(diamond_dfg, paper_constraints)
    n0 = diamond_dfg.node("n0").index
    n3 = diamond_dfg.node("n3").index
    state.toggle(n0)
    # Adding the sink without the middles would break convexity.
    assert not state.convex_if_toggled(n3)
    n1 = diamond_dfg.node("n1").index
    assert state.convex_if_toggled(n1)


def test_exact_merit_if_toggled_is_exact(mac_chain_dfg, paper_constraints):
    state = PartitionState(mac_chain_dfg, paper_constraints)
    merit_function = MeritFunction()
    p0 = mac_chain_dfg.node("p0").index
    s0 = mac_chain_dfg.node("s0").index
    state.toggle(p0)
    predicted = exact_merit_if_toggled(state, s0)
    assert predicted == merit_function.merit(
        mac_chain_dfg, state.members() | {s0}
    )


def test_estimate_merit_never_underestimates_on_additions_to_chain(
    mac_chain_dfg, paper_constraints
):
    """The estimate uses the longest path reaching the node's parents, which
    is exact for pure chains."""
    state = PartitionState(mac_chain_dfg, paper_constraints)
    merit_function = MeritFunction()
    for name in ("p0", "s0", "s1"):
        index = mac_chain_dfg.node(name).index
        estimate = state.estimate_merit_if_toggled(index)
        state.toggle(index)
        assert estimate == merit_function.merit(mac_chain_dfg, state.members())


def test_component_tracking(mac_chain_dfg, paper_constraints):
    state = PartitionState(mac_chain_dfg, paper_constraints)
    p0 = mac_chain_dfg.node("p0").index
    p2 = mac_chain_dfg.node("p2").index
    state.toggle(p0)
    state.toggle(p2)
    assert len(state.component_delays()) == 2
    # Excluding p0's own component leaves p2's delay.
    other = state.other_components_delay(p0)
    assert other == pytest.approx(
        LatencyModel().node_hardware_delay(mac_chain_dfg, p2)
    )
    # For a node in software the total over all components is returned.
    s3 = mac_chain_dfg.node("s3").index
    assert state.other_components_delay(s3) == pytest.approx(
        sum(state.component_delays())
    )


def test_hardware_latency_rounds_up(mac_chain_dfg, paper_constraints):
    state = PartitionState(
        mac_chain_dfg, paper_constraints, LatencyModel(cycles_per_mac=1.0)
    )
    for name in ("p0", "s0", "s1", "s2"):
        state.toggle(mac_chain_dfg.node(name).index)
    assert state.hardware_latency == math.ceil(
        state.hardware_delay * 1.0 - 1e-9
    ) or state.hardware_latency == 1


def test_neighbors_in_cut(diamond_dfg, paper_constraints):
    state = PartitionState(diamond_dfg, paper_constraints)
    n0 = diamond_dfg.node("n0").index
    n1 = diamond_dfg.node("n1").index
    n3 = diamond_dfg.node("n3").index
    state.toggle(n0)
    state.toggle(n3)
    assert state.neighbors_in_cut(n1) == 2
    assert state.neighbors_in_cut(n0) == 0
