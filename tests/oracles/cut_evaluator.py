"""The ``frozenset`` cut evaluator: the executable specification.

Every query walks member sets through the reference helpers in
:mod:`repro.dfg.io_count` / :mod:`repro.dfg.convexity` /
:mod:`repro.dfg.topology`, exactly as the baselines did before the bitset
layer.  :class:`~repro.core.BitsetCutEvaluator` must answer every protocol
query bit-identically.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.core import CutEvaluator
from repro.dfg import convex_closure, count_io, indices_of_mask, is_convex


def _as_members(cut: int | Collection[int]) -> Collection[int]:
    if isinstance(cut, int):
        return indices_of_mask(cut)
    return cut


class ReferenceCutEvaluator(CutEvaluator):
    """From-scratch ``frozenset`` implementation (the executable spec)."""

    name = "reference"

    def io_counts(self, cut: int | Collection[int]) -> tuple[int, int]:
        return count_io(self.dfg, _as_members(cut))

    def is_convex(self, cut: int | Collection[int]) -> bool:
        return is_convex(self.dfg, _as_members(cut))

    def merit(self, cut: int | Collection[int]) -> int:
        members = _as_members(cut)
        if not members:
            return 0
        software = self.latency_model.software_latency(self.dfg, members)
        hardware = self.latency_model.hardware_latency(self.dfg, members)
        return software - hardware

    def convex_closure(self, cut: int | Collection[int]) -> frozenset[int]:
        return convex_closure(self.dfg, _as_members(cut))
