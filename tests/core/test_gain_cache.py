"""The cached gain evaluator must be indistinguishable from a fresh one."""

from __future__ import annotations

import pytest

from repro.core import (
    CachedGainEvaluator,
    GainEvaluator,
    ISEGenConfig,
    PartitionState,
    bipartition,
)
from repro.dfg import random_dfg
from repro.hwmodel import ISEConstraints
from tests.oracles.kl import reference_bipartition

CONSTRAINTS = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=4)


def _allowed(state: PartitionState) -> list[int]:
    return [i for i in range(state.dfg.num_nodes) if state.is_allowed(i)]


def _assert_cache_matches_fresh(state: PartitionState, cached: CachedGainEvaluator):
    fresh = GainEvaluator(state)
    for index in _allowed(state):
        assert cached.breakdown(index) == fresh.breakdown(index), (
            f"node {index}: cached {cached.breakdown(index)} "
            f"!= fresh {fresh.breakdown(index)}"
        )


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_cached_gains_match_fresh_along_trajectory(seed):
    """Replay a deterministic toggle trajectory; after every committed toggle
    the cached breakdown of *every* candidate equals a fresh evaluator's."""
    dfg = random_dfg(40, seed=seed, live_out_fraction=0.2)
    state = PartitionState(dfg, CONSTRAINTS)
    cached = CachedGainEvaluator(state)
    _assert_cache_matches_fresh(state, cached)
    # The trajectory interleaves gain-guided picks with fixed strides so both
    # entering and leaving toggles of cached/uncached regions are exercised.
    candidates = _allowed(state)
    for step, stride in enumerate([1, 3, 7, 5, 2, 9, 4, 6, 8, 1, 3, 5]):
        picked = candidates[(step * stride) % len(candidates)]
        state.toggle(picked)
        cached.note_commit(picked)
        _assert_cache_matches_fresh(state, cached)


def test_cache_flushes_after_untracked_state_mutation():
    """Toggling the state without notifying the cache must not poison it."""
    dfg = random_dfg(25, seed=3, live_out_fraction=0.2)
    state = PartitionState(dfg, CONSTRAINTS)
    cached = CachedGainEvaluator(state)
    for index in _allowed(state):
        cached.breakdown(index)
    state.toggle(_allowed(state)[0])  # no note_commit on purpose
    _assert_cache_matches_fresh(state, cached)


@pytest.mark.parametrize("seed", range(6))
def test_bipartition_identical_with_and_without_cache(seed):
    dfg = random_dfg(55, seed=seed, live_out_fraction=0.2)
    with_cache = bipartition(dfg, CONSTRAINTS, ISEGenConfig())
    without = reference_bipartition(dfg, CONSTRAINTS, ISEGenConfig())
    assert with_cache.members == without.members
    assert with_cache.merit == without.merit
    assert len(with_cache.passes) == len(without.passes)
    for cached_pass, plain_pass in zip(with_cache.passes, without.passes):
        assert cached_pass.toggles == plain_pass.toggles
        assert cached_pass.best_merit == plain_pass.best_merit


def test_pass_trace_counts_cache_hits():
    """The PassTrace counters must show the cache absorbing a measurable
    share of the per-pass candidate evaluations."""
    dfg = random_dfg(60, seed=11, live_out_fraction=0.2)
    result = bipartition(dfg, CONSTRAINTS, ISEGenConfig())
    for trace in result.passes:
        total = trace.gain_evals + trace.gain_cache_hits
        assert total > 0
        assert trace.gain_evals < total, "cache never hit"
        assert trace.gain_cache_hits > total * 0.25
    plain = reference_bipartition(dfg, CONSTRAINTS, ISEGenConfig())
    for trace in plain.passes:
        assert trace.gain_cache_hits == 0
        assert trace.gain_evals > 0

