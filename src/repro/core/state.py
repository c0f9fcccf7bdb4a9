"""Mutable partition state used by the modified Kernighan-Lin loop.

A :class:`PartitionState` tracks, for one basic-block DFG, which nodes are
currently mapped to hardware (the cut) and keeps every quantity the gain
function needs ready for O(degree) candidate evaluation:

* ``I_ISE`` / ``O_ISE`` via :class:`repro.core.iostate.IOState`,
* convexity of the cut via ancestor/descendant bitset unions,
* the software latency of the cut (incremental sum),
* the hardware critical path of the cut and of each of its weakly-connected
  components (recomputed in O(|cut|) after every committed toggle),
* which nodes may be toggled at all (forbidden nodes and nodes already
  claimed by previously generated ISEs are excluded).

The state is exact after every committed toggle; hypothetical queries
(``*_if_added`` / ``*_if_removed``) are exact for I/O and convexity and use a
documented estimate for the critical path (see :meth:`estimate_merit_if_toggled`).
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable

from ..dfg import DataFlowGraph, indices_of_mask, mask_of, popcount
from ..errors import ISEGenError
from ..hwmodel import ISEConstraints, LatencyModel
from .iostate import IOState


class PartitionState:
    """Hardware/software partition of one DFG with incremental bookkeeping."""

    def __init__(
        self,
        dfg: DataFlowGraph,
        constraints: ISEConstraints,
        latency_model: LatencyModel | None = None,
        *,
        allowed: Collection[int] | None = None,
        initial_members: Iterable[int] = (),
    ):
        dfg.prepare()
        self.dfg = dfg
        self.index = dfg.bitset_index()
        self.constraints = constraints
        self.latency_model = latency_model or LatencyModel()
        # Per-node latency tables under this state's model; every committed
        # toggle and every merit estimate reads them, so one pass over the
        # nodes here replaces a model call per read.
        n = dfg.num_nodes
        self._sw_table = [
            self.latency_model.node_software_cycles(dfg, i) for i in range(n)
        ]
        self._hw_table = [
            self.latency_model.node_hardware_delay(dfg, i) for i in range(n)
        ]
        if allowed is None:
            allowed_mask = dfg.full_mask()
        else:
            allowed_mask = mask_of(allowed)
        if not constraints.allow_memory:
            allowed_mask &= ~dfg.forbidden_mask
        self.allowed_mask = allowed_mask

        self.io = IOState(dfg)
        self.cut_mask = 0
        self._sw_latency = 0
        self._desc_union = 0
        self._anc_union = 0
        self._hw_delay = 0.0
        #: Nodes outside the cut that witness a convexity violation
        #: (``desc_union & anc_union & ~cut``); empty iff the cut is convex.
        self._violation_mask = 0
        #: Longest hardware path (normalized delay) ending at each cut node.
        self._path_end: dict[int, float] = {}
        #: ``(top delay, multiplicity of top delay, second-best delay)`` over
        #: ``_path_end`` — lets removal estimates run in O(1).
        self._top_path: tuple[float, int, float] = (0.0, 0, 0.0)
        #: Weakly-connected component id of each cut node.
        self._component_of: dict[int, int] = {}
        #: Critical-path delay of every component.
        self._component_delay: list[float] = []
        #: Total committed toggles (lets caches detect untracked mutation).
        self.toggle_count = 0

        for index in initial_members:
            self.toggle(index)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def in_cut(self, index: int) -> bool:
        return bool(self.cut_mask >> index & 1)

    def is_allowed(self, index: int) -> bool:
        return bool(self.allowed_mask >> index & 1)

    def members(self) -> frozenset[int]:
        return self.io.members()

    @property
    def cut_size(self) -> int:
        return self.io.cut_size

    # ------------------------------------------------------------------
    # Committed toggles
    # ------------------------------------------------------------------
    def toggle(self, index: int) -> None:
        """Move node *index* to the other partition and refresh all caches."""
        if not self.is_allowed(index):
            raise ISEGenError(
                f"node {self.dfg.node_by_index(index).name!r} may not be toggled "
                "(forbidden operation or already claimed by another ISE)"
            )
        entering = not self.in_cut(index)
        self.io.toggle(index)
        sw = self._sw_table[index]
        if entering:
            self.cut_mask |= 1 << index
            self._sw_latency += sw
            self._desc_union |= self.index.desc[index]
            self._anc_union |= self.index.anc[index]
        else:
            self.cut_mask &= ~(1 << index)
            self._sw_latency -= sw
            self._recompute_closure_unions()
        self._violation_mask = self._desc_union & self._anc_union & ~self.cut_mask
        self.toggle_count += 1
        self._recompute_paths_and_components()

    def _recompute_closure_unions(self) -> None:
        self._desc_union, self._anc_union = self.index.closure_masks(self.cut_mask)

    def _recompute_paths_and_components(self) -> None:
        """Exact critical path + weakly-connected components of the cut."""
        cut_mask = self.cut_mask
        members = indices_of_mask(cut_mask)
        path_end: dict[int, float] = {}
        component_of: dict[int, int] = {}
        preds_table = self.dfg._preds
        hw_table = self._hw_table
        # Longest path ending at each node (members are in topological order,
        # membership is a cut-mask bit test).
        best = 0.0
        for index in members:
            incoming = 0.0
            for pred in preds_table[index]:
                if cut_mask >> pred & 1:
                    value = path_end[pred]
                    if value > incoming:
                        incoming = value
            total = incoming + hw_table[index]
            path_end[index] = total
            if total > best:
                best = total
        # Union-find style component labelling via repeated merging.
        parent: dict[int, int] = {i: i for i in members}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for index in members:
            for pred in preds_table[index]:
                if cut_mask >> pred & 1:
                    union(index, pred)
        roots: dict[int, int] = {}
        component_delay: list[float] = []
        for index in members:
            root = find(index)
            if root not in roots:
                roots[root] = len(component_delay)
                component_delay.append(0.0)
            cid = roots[root]
            component_of[index] = cid
            component_delay[cid] = max(component_delay[cid], path_end[index])
        top1 = 0.0
        count1 = 0
        top2 = 0.0
        for value in path_end.values():
            if value > top1:
                top2 = top1
                top1 = value
                count1 = 1
            elif value == top1:
                count1 += 1
            elif value > top2:
                top2 = value
        self._path_end = path_end
        self._top_path = (top1, count1, top2)
        self._component_of = component_of
        self._component_delay = component_delay
        self._hw_delay = best

    # ------------------------------------------------------------------
    # Exact current-state queries
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return self.io.num_inputs

    @property
    def num_outputs(self) -> int:
        return self.io.num_outputs

    @property
    def software_latency(self) -> int:
        return self._sw_latency

    @property
    def hardware_delay(self) -> float:
        return self._hw_delay

    @property
    def hardware_latency(self) -> int:
        if self.cut_size == 0:
            return 0
        cycles = math.ceil(self._hw_delay * self.latency_model.cycles_per_mac - 1e-9)
        return max(self.latency_model.min_hardware_cycles, cycles)

    @property
    def merit(self) -> int:
        """Exact merit M(C) of the current cut."""
        return self._sw_latency - self.hardware_latency

    def is_convex(self) -> bool:
        return self._violation_mask == 0

    @property
    def violation_mask(self) -> int:
        """Bitmask of non-cut nodes witnessing a convexity violation."""
        return self._violation_mask

    def io_violation(self) -> int:
        return max(0, self.num_inputs - self.constraints.max_inputs) + max(
            0, self.num_outputs - self.constraints.max_outputs
        )

    def is_legal(self) -> bool:
        """Convex and within the register-file port budget."""
        return self.is_convex() and self.io_violation() == 0

    def component_delays(self) -> tuple[float, ...]:
        return tuple(self._component_delay)

    def other_components_delay(self, index: int) -> float:
        """Sum of the critical-path delays of the cut's connected components
        *excluding* the component containing node *index* (the quantity the
        independent-cuts gain component uses).  If the node is in software the
        sum over all components is returned."""
        total = sum(self._component_delay)
        cid = self._component_of.get(index)
        if cid is None:
            return total
        return total - self._component_delay[cid]

    def neighbors_in_cut(self, index: int) -> int:
        return popcount(self.index.neighbor_mask[index] & self.cut_mask)

    # ------------------------------------------------------------------
    # Hypothetical queries used by the gain function
    # ------------------------------------------------------------------
    def io_if_toggled(self, index: int) -> tuple[int, int]:
        return self.io.io_if_toggled(index)

    def io_violation_if_toggled(self, index: int) -> int:
        new_in, new_out = self.io.io_if_toggled(index)
        return max(0, new_in - self.constraints.max_inputs) + max(
            0, new_out - self.constraints.max_outputs
        )

    def convex_if_toggled(self, index: int) -> bool:
        """Exact convexity of the cut after a hypothetical toggle of *index*
        (O(|V|/64) for additions, O(|V|/64) for removals from a convex cut;
        removals from an already non-convex cut are conservatively reported
        as non-convex)."""
        bit = 1 << index
        if not self.in_cut(index):
            # Every current violation witness other than *index* itself stays
            # a witness after the addition (the closure unions only grow), so
            # the answer is an O(1) "no" unless the cut is convex or *index*
            # is the unique witness.
            if self._violation_mask & ~bit:
                return False
            desc = self._desc_union | self.index.desc[index]
            anc = self._anc_union | self.index.anc[index]
            cut = self.cut_mask | bit
            return (desc & anc & ~cut) == 0
        if not self.is_convex():
            return False
        rest = self.cut_mask & ~bit
        has_ancestor = (self.index.anc[index] & rest) != 0
        has_descendant = (self.index.desc[index] & rest) != 0
        return not (has_ancestor and has_descendant)

    def estimate_hw_delay_if_toggled(self, index: int) -> float:
        """Estimated critical-path delay after a hypothetical toggle.

        For additions the estimate considers the longest cut path reaching
        the node's parents and is exact unless the new node bridges two
        previously independent chains below it.  For removals the estimate
        subtracts the node's delay only when it currently terminates the
        critical path.  Committed toggles always recompute exactly.
        """
        hw = self._hw_table[index]
        if not self.in_cut(index):
            incoming = 0.0
            for pred in self.dfg.preds(index):
                if self.in_cut(pred):
                    incoming = max(incoming, self._path_end[pred])
            return max(self._hw_delay, incoming + hw)
        top1, count1, top2 = self._top_path
        if self.cut_size <= 1:
            return 0.0
        if count1 > 1 or self._path_end[index] < top1:
            return top1
        return top2

    def estimate_merit_if_toggled(self, index: int) -> int:
        """Estimated merit M(C') of the cut after a hypothetical toggle."""
        sw = self._sw_table[index]
        new_sw = self._sw_latency + (sw if not self.in_cut(index) else -sw)
        new_size = self.cut_size + (1 if not self.in_cut(index) else -1)
        if new_size == 0:
            return 0
        delay = self.estimate_hw_delay_if_toggled(index)
        cycles = math.ceil(delay * self.latency_model.cycles_per_mac - 1e-9)
        hw_cycles = max(self.latency_model.min_hardware_cycles, cycles)
        return new_sw - hw_cycles

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> frozenset[int]:
        """Immutable copy of the current cut membership."""
        return self.members()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionState(cut_size={self.cut_size}, io=({self.num_inputs},"
            f"{self.num_outputs}), convex={self.is_convex()}, merit={self.merit})"
        )
