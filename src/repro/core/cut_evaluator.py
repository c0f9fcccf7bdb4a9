"""The cut-evaluation protocol: one interface for merit, convexity and I/O.

Every ISE-identification algorithm in this library — the K-L loop, the
genetic / greedy / enumeration / iterative-exact baselines — ultimately asks
the same three questions about a candidate cut:

* what is its **merit** (software latency minus hardware latency)?
* is it **convex**?
* how many **I/O ports** does it need, and does it fit the budget?

:class:`CutEvaluator` fixes that interface and :class:`BitsetCutEvaluator`
is its production implementation: queries run on the shared
:class:`~repro.dfg.bitset.BitsetIndex` mask tables (AND/OR/popcount instead
of set-walks) and every fully-evaluated cut is memoized by its mask, so
re-scoring a previously seen cut (duplicate genetic chromosomes, repeated
greedy growth fronts) is a dictionary hit.

The executable specification — a ``frozenset`` evaluator walking the
reference helpers of :mod:`repro.dfg` — lives in
``tests/oracles/cut_evaluator.py``; the Hypothesis equivalence suite in
``tests/properties`` pins the two bit-identical.  The *incremental* flavour
of the same machinery — per-toggle instead of per-cut — lives in
:class:`~repro.core.state.PartitionState` plus
:mod:`~repro.core.gain_cache`, which run on the same ``BitsetIndex``.

Cuts are accepted either as an ``int`` bitset mask or as any collection of
node indices, whichever the caller already holds.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Collection
from dataclasses import dataclass

from ..dfg import DataFlowGraph, indices_of_mask, mask_of, popcount
from ..hwmodel import ISEConstraints, LatencyModel


def _as_mask(cut: int | Collection[int]) -> int:
    if isinstance(cut, int):
        return cut
    return mask_of(cut)


class CutEvaluator(abc.ABC):
    """Answers merit / convexity / I/O questions about cuts of one DFG."""

    #: Implementation name used in diagnostics and benchmarks.
    name: str = "abstract"

    def __init__(
        self,
        dfg: DataFlowGraph,
        constraints: ISEConstraints,
        latency_model: LatencyModel | None = None,
    ):
        dfg.prepare()
        self.dfg = dfg
        self.constraints = constraints
        self.latency_model = latency_model or LatencyModel()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def io_counts(self, cut: int | Collection[int]) -> tuple[int, int]:
        """``(num_inputs, num_outputs)`` of the cut."""

    @abc.abstractmethod
    def is_convex(self, cut: int | Collection[int]) -> bool:
        """Whether the cut is convex."""

    @abc.abstractmethod
    def merit(self, cut: int | Collection[int]) -> int:
        """``M(C)`` — software latency minus hardware latency (0 if empty)."""

    @abc.abstractmethod
    def convex_closure(self, cut: int | Collection[int]) -> frozenset[int]:
        """Smallest convex superset of the cut."""

    # ------------------------------------------------------------------
    # Derived queries (shared)
    # ------------------------------------------------------------------
    def io_violation(self, cut: int | Collection[int]) -> int:
        """Number of register-file ports by which the cut exceeds the budget."""
        num_in, num_out = self.io_counts(cut)
        return max(0, num_in - self.constraints.max_inputs) + max(
            0, num_out - self.constraints.max_outputs
        )

    def is_legal(self, cut: int | Collection[int]) -> bool:
        """Within the I/O budget and convex (size is *not* checked)."""
        return self.io_violation(cut) == 0 and self.is_convex(cut)

    def is_feasible(self, cut: int | Collection[int]) -> bool:
        """Legal *and* non-empty *and* at least ``min_cut_size`` nodes."""
        mask = _as_mask(cut)
        if not mask or popcount(mask) < self.constraints.min_cut_size:
            return False
        return self.is_legal(mask)

    def convexity_violation_count(self, cut: int | Collection[int]) -> int:
        """How many nodes the convex closure must absorb (0 when convex) —
        the quantity the genetic baseline's convexity penalty weighs."""
        mask = _as_mask(cut)
        if self.is_convex(mask):
            return 0
        return len(self.convex_closure(mask)) - popcount(mask)


@dataclass
class _CutRecord:
    """Everything the consumers ever ask about one specific cut."""

    num_inputs: int
    num_outputs: int
    convex: bool
    merit: int
    #: Lazily computed convex closure (mask); ``None`` until first needed.
    closure_mask: int | None = None


class BitsetCutEvaluator(CutEvaluator):
    """Mask-table implementation with per-cut memoization.

    The full record of a cut (I/O counts, convexity, merit) is computed in
    one pass over its set bits and memoized under the cut's mask, so the
    genetic baseline's fitness, feasibility and merit lookups for the same
    chromosome — within a generation, across generations, and across
    ``best_cut`` invocations sharing this evaluator — cost one dictionary
    probe after the first evaluation.
    """

    name = "bitset"

    def __init__(
        self,
        dfg: DataFlowGraph,
        constraints: ISEConstraints,
        latency_model: LatencyModel | None = None,
    ):
        super().__init__(dfg, constraints, latency_model)
        self.index = dfg.bitset_index()
        self.kernel = self.index.kernel
        model = self.latency_model
        n = dfg.num_nodes
        self._sw = [model.node_software_cycles(dfg, i) for i in range(n)]
        self._hw = [model.node_hardware_delay(dfg, i) for i in range(n)]
        self._records: dict[int, _CutRecord] = {}
        # Reusable longest-path scratch: ascending-index sweeps only ever
        # read entries they wrote earlier in the same sweep, so stale values
        # from previous queries are never observed.
        self._path_scratch = [0.0] * n
        #: Cut records computed from scratch.
        self.evaluations = 0
        #: Queries served from the per-cut memo.
        self.memo_hits = 0

    @property
    def memo_entries(self) -> int:
        """Number of distinct cuts memoized so far (telemetry surface)."""
        return len(self._records)

    @property
    def software_cycles(self) -> list[int]:
        """Per-node software cycles under this evaluator's latency model."""
        return self._sw

    @property
    def hardware_delays(self) -> list[float]:
        """Per-node normalized hardware delays under the latency model."""
        return self._hw

    # ------------------------------------------------------------------
    # Record computation
    # ------------------------------------------------------------------
    def record(self, cut: int | Collection[int]) -> _CutRecord:
        """The memoized full record of the cut."""
        mask = _as_mask(cut)
        record = self._records.get(mask)
        if record is not None:
            self.memo_hits += 1
            return record
        self.evaluations += 1
        record = self._compute(mask)
        self._records[mask] = record
        return record

    def merit_once(self, cut: int | Collection[int]) -> int:
        """Merit without touching the memo — for callers that visit every
        cut exactly once (the exhaustive enumerations), where memoizing
        would only grow an unread dict."""
        return self._compute(_as_mask(cut)).merit

    def hardware_cycle_floor(self, max_node_delay: float) -> int:
        """Admissible lower bound on the hardware cycles of any cut that
        contains a node of normalized delay *max_node_delay*.

        The critical path of a cut is at least the delay of its slowest
        single node, so the cut's hardware latency is at least
        ``max(min_hardware_cycles, ceil(max_node_delay * cycles_per_mac))``
        — the same rounding :meth:`LatencyModel.hardware_latency` applies to
        the true critical path.  The exhaustive searches subtract this floor
        from their optimistic software suffix to get a merit bound that
        never underestimates a feasible completion (the bound-soundness
        property the differential suite pins)."""
        model = self.latency_model
        cycles = math.ceil(max_node_delay * model.cycles_per_mac - 1e-9)
        return max(model.min_hardware_cycles, cycles)

    def _compute(self, cut_mask: int) -> _CutRecord:
        if self.kernel.name == "numpy" and cut_mask:
            return self._compute_lanes(cut_mask)
        index = self.index
        model = self.latency_model
        pred_mask = index.pred_mask
        succ_mask = index.succ_mask
        ext_ops = index.ext_ops_mask
        live = index.live_out_mask
        sw_table = self._sw
        hw_table = self._hw
        inverse = ~cut_mask
        producers = 0
        ext = 0
        outputs = 0
        desc_union = 0
        anc_union = 0
        software = 0
        longest = self._path_scratch
        best_delay = 0.0
        mask = cut_mask
        # Low-bit extraction walks indices in ascending order, which is a
        # topological order, so one sweep yields the exact critical path.
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            producers |= pred_mask[i]
            ext |= ext_ops[i]
            if live & low or succ_mask[i] & inverse:
                outputs += 1
            desc_union |= index.desc[i]
            anc_union |= index.anc[i]
            software += sw_table[i]
            incoming = 0.0
            preds_in = pred_mask[i] & cut_mask
            while preds_in:
                plow = preds_in & -preds_in
                value = longest[plow.bit_length() - 1]
                if value > incoming:
                    incoming = value
                preds_in ^= plow
            total = incoming + hw_table[i]
            longest[i] = total
            if total > best_delay:
                best_delay = total
        num_inputs = popcount(producers & inverse) + popcount(ext)
        convex = (desc_union & anc_union & inverse) == 0
        if cut_mask:
            cycles = math.ceil(best_delay * model.cycles_per_mac - 1e-9)
            hardware = max(model.min_hardware_cycles, cycles)
            merit = software - hardware
        else:
            merit = 0
        return _CutRecord(
            num_inputs=num_inputs,
            num_outputs=outputs,
            convex=convex,
            merit=merit,
        )

    def _compute_lanes(self, cut_mask: int) -> _CutRecord:
        """Numpy-kernel record computation: the closure/IO unions become
        row-parallel lane reductions; the critical-path sweep stays a scalar
        topological walk (it is inherently sequential), reading the same
        big-int masks in the same ascending order, so every count and every
        intermediate double is identical to the pure path's."""
        kernel = self.kernel
        np = kernel.np
        index = self.index
        tables = index.lane_tables()
        n = index.num_nodes
        rows = kernel.indices_of(cut_mask, n)
        inverse_mask = ~cut_mask & index.full_mask
        inverse = kernel.lanes_of(inverse_mask, n)
        producers = kernel.union_rows(tables.pred, rows)
        ext = kernel.union_rows(tables.ext_ops, rows)
        num_inputs = int(np.bitwise_count(producers & inverse).sum()) + int(
            np.bitwise_count(ext).sum()
        )
        escaping = (tables.succ.array[rows] & inverse).any(axis=1)
        outputs = int(np.count_nonzero(escaping | tables.live_bits[rows]))
        desc_union = kernel.union_rows(tables.desc, rows)
        anc_union = kernel.union_rows(tables.anc, rows)
        convex = not bool((desc_union & anc_union & inverse).any())
        sw_table = self._sw
        hw_table = self._hw
        pred_mask = index.pred_mask
        longest = self._path_scratch
        software = 0
        best_delay = 0.0
        for i in rows.tolist():
            software += sw_table[i]
            incoming = 0.0
            preds_in = pred_mask[i] & cut_mask
            while preds_in:
                plow = preds_in & -preds_in
                value = longest[plow.bit_length() - 1]
                if value > incoming:
                    incoming = value
                preds_in ^= plow
            total = incoming + hw_table[i]
            longest[i] = total
            if total > best_delay:
                best_delay = total
        model = self.latency_model
        cycles = math.ceil(best_delay * model.cycles_per_mac - 1e-9)
        hardware = max(model.min_hardware_cycles, cycles)
        return _CutRecord(
            num_inputs=num_inputs,
            num_outputs=outputs,
            convex=convex,
            merit=software - hardware,
        )

    # ------------------------------------------------------------------
    # Protocol implementation
    # ------------------------------------------------------------------
    def io_counts(self, cut: int | Collection[int]) -> tuple[int, int]:
        record = self.record(cut)
        return record.num_inputs, record.num_outputs

    def is_convex(self, cut: int | Collection[int]) -> bool:
        return self.record(cut).convex

    def merit(self, cut: int | Collection[int]) -> int:
        return self.record(cut).merit

    def convex_closure(self, cut: int | Collection[int]) -> frozenset[int]:
        mask = _as_mask(cut)
        record = self.record(mask)
        if record.closure_mask is None:
            record.closure_mask = self.index.convex_closure_mask(mask)
        return frozenset(indices_of_mask(record.closure_mask))

    def convexity_violation_count(self, cut: int | Collection[int]) -> int:
        mask = _as_mask(cut)
        record = self.record(mask)
        if record.convex:
            return 0
        if record.closure_mask is None:
            record.closure_mask = self.index.convex_closure_mask(mask)
        return popcount(record.closure_mask) - popcount(mask)


__all__ = [
    "CutEvaluator",
    "BitsetCutEvaluator",
]
