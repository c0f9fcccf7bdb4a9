"""The modified Kernighan-Lin bi-partitioning loop (Figure 2 of the paper).

``bipartition`` performs one hardware/software bi-partition of a basic
block's DFG.  The loop structure follows the paper's pseudocode:

* the outer loop runs up to ``max_passes`` improvement passes (the paper
  found 5 to be enough) and exits early when a pass brings no improvement;
* each pass unmarks every node and repeatedly toggles the unmarked node with
  the best gain in the **working cut** ``C``, marking it afterwards — so
  every node changes side exactly once per pass, which is what lets the
  heuristic climb out of local maxima.  ``C`` is allowed to become *illegal*
  (I/O or convexity violations), "giving it an opportunity to eventually
  grow into a valid cut";
* alongside ``C`` the pass maintains ``BC``, the paper's intermediate best
  cut: the impact of every committed toggle is evaluated with respect to
  ``BC`` (Figure 2, line 10) and the toggle is *applied to ``BC`` only when
  the resulting cut still satisfies the convexity and I/O constraints*
  (lines 11-12).  ``BC`` therefore tracks a legal shadow of the toggle
  trajectory, which is what allows the algorithm to assemble large legal
  cuts even though ``C`` spends most of the pass outside the feasible
  region;
* ``BESTCUT`` retains the best legal cut seen so far: whenever ``BC``
  reaches a new best merit it becomes the candidate result of the pass
  (lines 13, 16-17), and the best cut of the pass seeds the next pass.

This double-cut reading of the pseudocode is reconstructed from the paper's
text (the printed algorithm is partially garbled in the archived PDF); it is
the interpretation under which the reported AES behaviour — large, highly
reusable cuts found in a 696-node block — is reproducible.  DESIGN.md §4
documents the reconstruction and the shadow-cut cache that serves the
``BC`` legality projections from memoized / gain-cache-transferred entries
instead of fresh convexity and I/O probes (see
:class:`~repro.core.gain_cache.ShadowCutCache`).  The uncached loop — a
fresh shadow every pass, the plain :class:`~repro.core.gain.GainEvaluator`
— is kept as the differential oracle in ``tests/oracles/kl.py``.

The function operates on a restricted node set (``allowed``) so the
multi-cut drivers can exclude nodes already claimed by previously generated
ISEs, and it never toggles forbidden (memory / control) nodes.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from .. import telemetry
from ..dfg import Cut, DataFlowGraph
from ..dfg.kernels import dispatch_counts
from ..hwmodel import ISEConstraints, LatencyModel
from .config import ISEGenConfig
from .gain_cache import (
    CachedGainEvaluator,
    ShadowCutCache,
    VectorizedGainEvaluator,
)
from .state import PartitionState


@dataclass
class PassTrace:
    """Diagnostics of one improvement pass (used by tests and reports)."""

    pass_index: int
    toggles: int = 0
    shadow_updates: int = 0
    best_merit: int = 0
    improved: bool = False
    #: Candidate gains computed (at least partially) from scratch this pass.
    gain_evals: int = 0
    #: Candidate gains served entirely from the :class:`GainCache`.
    gain_cache_hits: int = 0
    #: Shadow-cut legality queries served without any graph walk: memoized
    #: or gain-cache-transferred I/O addendums plus O(words) convexity reads
    #: of the shadow's maintained closure unions.
    shadow_cache_hits: int = 0
    #: Committed working-cut toggles of this pass, in order (the trajectory
    #: the bit-identicality tests pin).
    toggle_order: list[int] = field(default_factory=list)


@dataclass
class BipartitionResult:
    """Outcome of one K-L bi-partition of a DFG."""

    dfg: DataFlowGraph
    members: frozenset[int]
    merit: int
    passes: list[PassTrace] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def cut(self) -> Cut:
        return Cut(self.dfg, self.members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def num_passes(self) -> int:
        return len(self.passes)

    def trace_metrics(self) -> dict[str, int]:
        """Aggregate the per-pass counters into one metrics mapping.

        Values are plain sums of the :class:`PassTrace` fields (the
        telemetry layer reports the traces, it does not re-count anything);
        the ``kl.bipartition`` span already carries the wall time.
        """
        return {
            "passes": len(self.passes),
            "toggles": sum(t.toggles for t in self.passes),
            "shadow_updates": sum(t.shadow_updates for t in self.passes),
            "gain_evals": sum(t.gain_evals for t in self.passes),
            "gain_cache_hits": sum(t.gain_cache_hits for t in self.passes),
            "shadow_cache_hits": sum(t.shadow_cache_hits for t in self.passes),
            "merit": self.merit,
        }


def bipartition(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    config: ISEGenConfig | None = None,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    initial_members: Iterable[int] = (),
) -> BipartitionResult:
    """Run the ISEGEN K-L loop once and return the best legal cut found.

    Parameters
    ----------
    dfg:
        The basic block's data-flow graph.
    constraints:
        I/O and legality constraints for the cut.
    config:
        Algorithm configuration (weights, number of passes, ...).
    latency_model:
        Latency model used for merits (defaults to the standard model).
    allowed:
        Node indices that may participate in this cut (defaults to all
        non-forbidden nodes); used by the multi-cut driver to exclude nodes
        already assigned to previous ISEs.
    initial_members:
        Starting cut (defaults to the empty cut — "all nodes in software").
        Must be legal if non-empty; an illegal seed is treated as empty.
    """
    with telemetry.span("kl.bipartition", nodes=dfg.num_nodes):
        result = _bipartition_impl(
            dfg,
            constraints,
            config,
            latency_model=latency_model,
            allowed=allowed,
            initial_members=initial_members,
        )
    telemetry.emit_metrics_lazy("kl", result.trace_metrics)
    return result


def _bipartition_impl(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    config: ISEGenConfig | None = None,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    initial_members: Iterable[int] = (),
) -> BipartitionResult:
    config = config or ISEGenConfig()
    model = latency_model or LatencyModel()
    dfg.prepare()
    started = time.perf_counter()

    kernel = dfg.bitset_index().kernel
    dispatch_counts[kernel.name] = dispatch_counts.get(kernel.name, 0) + 1

    def new_state(members: Iterable[int]) -> PartitionState:
        return PartitionState(
            dfg,
            constraints,
            model,
            allowed=allowed,
            initial_members=members,
        )

    current_members = frozenset(initial_members)
    if current_members:
        probe = new_state(current_members)
        if probe.is_legal():
            current_merit = probe.merit
        else:
            current_members = frozenset()
            current_merit = 0
    else:
        current_merit = 0

    passes: list[PassTrace] = []
    # C — the free-running working cut every chosen node toggles in.  In the
    # paper's pseudocode it persists across passes (consecutive passes sweep
    # the partition back and forth); the reset variant restarts it from the
    # best legal cut at every pass.
    state = new_state(current_members)
    # One gain cache per bipartition: the static per-DFG tables are reused
    # across passes, only the dynamic entries reset.  On a numpy-kernel block
    # the array-resident evaluator replaces the scalar cache (bit-identical
    # trajectories and counters).
    if kernel.name == "numpy":
        evaluator = VectorizedGainEvaluator(state, config.weights)
    else:
        evaluator = CachedGainEvaluator(state, config.weights)
    # BC — the legal shadow cut.  It (and its cache) persists across passes
    # too: each pass re-seeds it at the current best by toggling along a
    # convexity-preserving path, so cached legality entries away from the
    # re-seeded nodes survive.
    shadow_cache = ShadowCutCache(new_state(current_members))
    shadow = shadow_cache.shadow
    for pass_index in range(config.max_passes):
        pass_started = telemetry.clock()
        if config.reset_working_cut and pass_index:
            state = new_state(current_members)
        # Counters restart every pass; cached entries survive while the
        # evaluator still tracks the same, unmutated state.
        evaluator.rebind(state)
        shadow_cache.reset_to(current_members)
        shadow_cache.begin_pass()
        trace = PassTrace(pass_index=pass_index, best_merit=current_merit)
        unmarked = [
            index for index in range(dfg.num_nodes) if state.is_allowed(index)
        ]
        best_members = current_members
        best_merit = current_merit
        while unmarked:
            picked = evaluator.best_candidate(unmarked)
            if picked is None:  # pragma: no cover - unmarked is non-empty
                break
            best_node, _gain = picked
            # Captured before the commit: the shadow projection below reuses
            # the entries the gain sweep just computed for this node.
            working_mask_before = state.cut_mask
            pre_entries = evaluator.cached_toggle_entries(best_node)
            state.toggle(best_node)
            evaluator.note_commit(best_node)
            unmarked.remove(best_node)
            trace.toggles += 1
            trace.toggle_order.append(best_node)
            # The free cut C itself occasionally passes through legal states
            # (classic K-L prefix selection); record the best of them.
            if state.cut_size > 0 and state.is_legal() and state.merit > best_merit:
                best_merit = state.merit
                best_members = state.snapshot()
            # Project the committed toggle onto the legal shadow cut BC.
            if shadow.in_cut(best_node) != state.in_cut(
                best_node
            ) and shadow_cache.can_toggle(best_node, working_mask_before, pre_entries):
                shadow_cache.apply(best_node)
                trace.shadow_updates += 1
                if shadow.cut_size > 0 and shadow.merit > best_merit:
                    best_merit = shadow.merit
                    best_members = shadow.snapshot()
        trace.best_merit = best_merit
        trace.improved = best_merit > current_merit
        trace.gain_evals = evaluator.full_evals
        trace.gain_cache_hits = evaluator.cache_hits
        trace.shadow_cache_hits = shadow_cache.cached_queries
        passes.append(trace)
        telemetry.record_span(
            "kl.pass", pass_started, pass_index=pass_index, toggles=trace.toggles
        )
        if trace.improved:
            current_members = best_members
            current_merit = best_merit
        else:
            break

    return BipartitionResult(
        dfg=dfg,
        members=current_members,
        merit=current_merit,
        passes=passes,
        runtime_seconds=time.perf_counter() - started,
    )
