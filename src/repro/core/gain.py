"""The five-component gain function of Section 4.2.

For a candidate toggle of node ``u`` with respect to the current cut ``C``,
the gain is the linear weighted sum

    F(u, C) = alpha * M_component
            + beta  * IO_component
            + gamma * Convexity_component
            + delta * LargeCut_component
            + epsilon * IndependentCuts_component

The printed formulas of the individual components are partially garbled in
the archived paper text; each component below documents the stated *intent*
it implements, and every weight is configurable so the ablation benchmarks
can quantify the contribution of each term.

1. **Merit (speedup estimate)** — the merit ``M(C +/- u)`` of the cut after
   the toggle when that cut is convex, and 0 when it violates convexity.
2. **I/O violation penalty** — minus the number of register-file ports by
   which the new cut would exceed ``(IN_max, OUT_max)``; weighted by a large
   factor ``beta`` so the search is strongly steered back towards feasible
   cuts (the paper: "a heavy penalty is applied with the help of a large
   factor if input-output port constraints are violated").
3. **Convexity affinity** — ``+#neighbours of u already in C`` when ``u``
   moves into the cut (a node surrounded by cut nodes should join them) and
   ``-#neighbours in C`` when it would leave (a node embedded in the cut is
   not easily removed).
4. **Large cut / directional growth** — nodes close to a *barrier* (external
   inputs, live-out boundary, memory operations) have the highest potential
   to anchor a large, reusable cut, so moving them into hardware is favoured
   and moving them back out is penalized.  The proximity score of node ``u``
   is ``1/(1+d_up(u)) + 1/(1+d_down(u))`` with ``d_up``/``d_down`` the edge
   distances to the nearest upward/downward barrier.
5. **Independent cuts** — when ``u`` currently sits in hardware, the summed
   critical-path delay of the *other* connected components of the cut is
   added to the gain of moving ``u`` back to software: sacrificing a node of
   one component is acceptable when other, potentially large, independent
   subgraphs can keep growing (this is what lets one ISE be a union of
   disconnected subgraphs).  For software nodes the component is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import GainWeights
from .state import PartitionState


@dataclass(frozen=True)
class GainBreakdown:
    """The five components of the gain for one candidate toggle."""

    merit: float
    io_penalty: float
    convexity: float
    large_cut: float
    independent: float

    def weighted_total(self, weights: GainWeights) -> float:
        return (
            weights.alpha * self.merit
            + weights.beta * self.io_penalty
            + weights.gamma * self.convexity
            + weights.delta * self.large_cut
            + weights.epsilon * self.independent
        )


class GainEvaluator:
    """Evaluates the gain of toggling any node w.r.t. a partition state."""

    def __init__(self, state: PartitionState, weights: GainWeights | None = None):
        self.state = state
        self.weights = weights or GainWeights()
        index = state.dfg.bitset_index()
        self._dist_up = index.dist_up
        self._dist_down = index.dist_down
        #: Gain evaluations that computed (part of) a breakdown from scratch.
        self.full_evals = 0
        #: Gain evaluations served entirely from a cache (subclasses only).
        self.cache_hits = 0

    def note_commit(self, index: int) -> None:
        """Hook called by the K-L loop after a committed toggle of *index*;
        the uncached evaluator has no state to invalidate."""

    def cached_toggle_entries(self, index: int) -> tuple[bool | None, tuple[int, int] | None]:
        """``(convex_if_toggled, (dI, dO))`` for *index* as far as this
        evaluator has them cached for the current state — ``(None, None)``
        for the uncached evaluator.  The K-L loop captures these right
        before committing a toggle so the shadow-cut cache can reuse them."""
        return None, None

    # ------------------------------------------------------------------
    # Individual components
    # ------------------------------------------------------------------
    def merit_component(self, index: int) -> float:
        """M(C +/- u) when the new cut is convex, else 0."""
        if not self.state.convex_if_toggled(index):
            return 0.0
        return float(self.state.estimate_merit_if_toggled(index))

    def io_penalty_component(self, index: int) -> float:
        """Minus the number of excess I/O ports of the new cut."""
        return -float(self.state.io_violation_if_toggled(index))

    def convexity_component(self, index: int) -> float:
        """+neighbours-in-cut when joining, -neighbours-in-cut when leaving."""
        neighbors = self.state.neighbors_in_cut(index)
        if self.state.in_cut(index):
            return -float(neighbors)
        return float(neighbors)

    def barrier_proximity(self, index: int) -> float:
        """Proximity of the node to the growth barriers (higher = closer)."""
        return 1.0 / (1.0 + self._dist_up[index]) + 1.0 / (
            1.0 + self._dist_down[index]
        )

    def large_cut_component(self, index: int) -> float:
        """Directional growth: favour pulling barrier-adjacent nodes into the
        cut; resist pushing them out."""
        proximity = self.barrier_proximity(index)
        if self.state.in_cut(index):
            return -proximity
        return proximity

    def independent_component(self, index: int) -> float:
        """Critical-path delay of the cut components *other* than the one
        containing the node — only credited when the node would leave the
        cut (allowing other independent subgraphs to grow)."""
        if not self.state.in_cut(index):
            return 0.0
        return float(self.state.other_components_delay(index))

    # ------------------------------------------------------------------
    # Aggregate
    # ------------------------------------------------------------------
    def breakdown(self, index: int) -> GainBreakdown:
        self.full_evals += 1
        return GainBreakdown(
            merit=self.merit_component(index),
            io_penalty=self.io_penalty_component(index),
            convexity=self.convexity_component(index),
            large_cut=self.large_cut_component(index),
            independent=self.independent_component(index),
        )

    def gain(self, index: int) -> float:
        """The weighted gain F(u, C) of toggling node *index*."""
        return self.breakdown(index).weighted_total(self.weights)

    def best_candidate(self, candidates) -> tuple[int, float] | None:
        """Return ``(index, gain)`` of the best candidate, ties broken by the
        lowest node index for determinism; ``None`` when empty."""
        best_index: int | None = None
        best_gain = float("-inf")
        for index in candidates:
            value = self.gain(index)
            if value > best_gain or (value == best_gain and (best_index is None or index < best_index)):
                best_gain = value
                best_index = index
        if best_index is None:
            return None
        return best_index, best_gain
