"""The uncached K-L loop: the differential oracle of ``bipartition``.

:func:`reference_bipartition` is the loop of Figure 2 as it reads before
any caching: every pass builds a fresh shadow cut ``BC``, every candidate
gain comes from the plain :class:`~repro.core.gain.GainEvaluator`, and
every shadow legality query is a from-scratch convexity and I/O probe
(counted in :attr:`OraclePassTrace.shadow_fresh_probes`).  The production
loop must reproduce its toggle orders, shadow updates, cuts and merits bit
for bit; only the work counters differ.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterable
from dataclasses import dataclass

from repro.core import GainEvaluator, ISEGenConfig, PartitionState
from repro.core.kernighan_lin import BipartitionResult, PassTrace
from repro.dfg import DataFlowGraph
from repro.hwmodel import ISEConstraints, LatencyModel


@dataclass
class OraclePassTrace(PassTrace):
    """A :class:`PassTrace` that also counts the oracle's shadow probes."""

    #: Shadow-cut legality queries, each a from-scratch convexity and I/O
    #: probe here; the production loop serves the same queries from its
    #: shadow cache (``PassTrace.shadow_cache_hits``).
    shadow_fresh_probes: int = 0


def exact_merit_if_toggled(state: PartitionState, index: int) -> int:
    """Exact merit of the cut after a hypothetical toggle of *index*
    (toggle / measure / restore — an O(|cut|) recomputation the tests use
    to bound the incremental estimate's error)."""
    state.toggle(index)
    merit = state.merit
    state.toggle(index)
    return merit


def shadow_can_toggle(shadow: PartitionState, index: int) -> bool:
    """Would toggling *index* keep the shadow cut legal (convex, I/O-ok)?"""
    if not shadow.convex_if_toggled(index):
        return False
    return shadow.io_violation_if_toggled(index) == 0


def reference_bipartition(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    config: ISEGenConfig | None = None,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    initial_members: Iterable[int] = (),
) -> BipartitionResult:
    """Same contract as :func:`repro.core.bipartition`, without any cache."""
    config = config or ISEGenConfig()
    model = latency_model or LatencyModel()
    dfg.prepare()
    started = time.perf_counter()

    def new_state(members: Iterable[int]) -> PartitionState:
        return PartitionState(
            dfg,
            constraints,
            model,
            allowed=allowed,
            initial_members=members,
        )

    current_members = frozenset(initial_members)
    current_merit = 0
    if current_members:
        probe = new_state(current_members)
        if probe.is_legal():
            current_merit = probe.merit
        else:
            current_members = frozenset()

    passes: list[PassTrace] = []
    persistent_state = new_state(current_members)
    for pass_index in range(config.max_passes):
        if config.reset_working_cut:
            state = new_state(current_members)
        else:
            state = persistent_state
        shadow = new_state(current_members)
        evaluator = GainEvaluator(state, config.weights)
        trace = OraclePassTrace(pass_index=pass_index, best_merit=current_merit)
        unmarked = [
            index for index in range(dfg.num_nodes) if state.is_allowed(index)
        ]
        best_members = current_members
        best_merit = current_merit
        while unmarked:
            best_node, _gain = evaluator.best_candidate(unmarked)
            state.toggle(best_node)
            unmarked.remove(best_node)
            trace.toggles += 1
            trace.toggle_order.append(best_node)
            if state.cut_size > 0 and state.is_legal() and state.merit > best_merit:
                best_merit = state.merit
                best_members = state.snapshot()
            if shadow.in_cut(best_node) != state.in_cut(best_node):
                trace.shadow_fresh_probes += 1
                if shadow_can_toggle(shadow, best_node):
                    shadow.toggle(best_node)
                    trace.shadow_updates += 1
                    if shadow.cut_size > 0 and shadow.merit > best_merit:
                        best_merit = shadow.merit
                        best_members = shadow.snapshot()
        trace.best_merit = best_merit
        trace.improved = best_merit > current_merit
        trace.gain_evals = evaluator.full_evals
        passes.append(trace)
        if not trace.improved:
            break
        current_members = best_members
        current_merit = best_merit

    return BipartitionResult(
        dfg=dfg,
        members=current_members,
        merit=current_merit,
        passes=passes,
        runtime_seconds=time.perf_counter() - started,
    )
