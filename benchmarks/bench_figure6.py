"""Figure 6: AES speedup of ISEGEN vs the Genetic baseline over the I/O sweep.

The benchmark timing is the per-configuration ISE-generation runtime on the
696-node AES block; the reuse-aware speedup (the Figure-6 y-axis) is recorded
in ``extra_info``.  To keep the harness runnable in minutes the sweep is
restricted to one AFU (the paper's left panel) and three representative I/O
points; the full sweep for both panels is produced by
``python -m repro.cli figure6`` (see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.baselines import GeneticConfig, GeneticCutFinder, GeneticGenerator
from repro.baselines.genetic import GeneticSearch
from repro.core import ApplicationISEDriver, ISEGen
from repro.hwmodel import ISEConstraints, LatencyModel
from repro.reuse import reuse_aware_speedup
from repro.workloads import load_workload
from tests.oracles.cut_evaluator import ReferenceCutEvaluator

from .conftest import run_once

#: Representative points of the paper's (2,1) ... (8,4) sweep.
IO_POINTS = ((2, 1), (4, 2), (8, 4))

_AES = load_workload("aes")


def _generate_and_score(generator):
    result = generator.generate(_AES)
    reuse = reuse_aware_speedup(_AES, result)
    return result, reuse


@pytest.mark.parametrize("io", IO_POINTS, ids=lambda io: f"io{io[0]}_{io[1]}")
def test_figure6_isegen(benchmark, io):
    constraints = ISEConstraints(max_inputs=io[0], max_outputs=io[1], max_ises=1)
    benchmark.group = f"figure6 AES {constraints.io}"
    generator = ISEGen(constraints)
    result, reuse = run_once(benchmark, _generate_and_score, generator)
    benchmark.extra_info["speedup_with_reuse"] = round(reuse.reuse_speedup, 4)
    benchmark.extra_info["speedup_single_use"] = round(reuse.single_use_speedup, 4)
    benchmark.extra_info["largest_cut"] = max(
        (len(ise.cut) for ise in result.ises), default=0
    )
    assert reuse.reuse_speedup >= 1.0


class _ReferenceGeneticCutFinder(GeneticCutFinder):
    """The Genetic block search on the frozenset oracle evaluator, injected
    through ``GeneticSearch(evaluator=)``."""

    def best_cut(self, dfg, allowed, constraints, latency_model):
        search = GeneticSearch(
            dfg,
            constraints,
            latency_model,
            self.config,
            allowed=allowed,
            evaluator=ReferenceCutEvaluator(dfg, constraints, latency_model),
        )
        members = search.run()
        if members is None or search.merit(members) <= 0:
            return None
        return members


@pytest.mark.parametrize(
    "evaluator", ["bitset", "reference"], ids=["bitset", "reference"]
)
@pytest.mark.parametrize("io", IO_POINTS, ids=lambda io: f"io{io[0]}_{io[1]}")
def test_figure6_genetic(benchmark, io, evaluator):
    """The GA on the memoizing bitset evaluator vs the from-scratch
    frozenset reference — same cuts, different wall-clock (the Figure-6
    genetic speedup recorded in PERFORMANCE.md)."""
    constraints = ISEConstraints(max_inputs=io[0], max_outputs=io[1], max_ises=1)
    benchmark.group = f"figure6 AES {constraints.io}"
    if evaluator == "reference":
        generator = ApplicationISEDriver(
            _ReferenceGeneticCutFinder(GeneticConfig.quick()),
            constraints,
            LatencyModel(),
        )
    else:
        generator = GeneticGenerator(constraints, GeneticConfig.quick())
    result, reuse = run_once(benchmark, _generate_and_score, generator)
    benchmark.extra_info["speedup_with_reuse"] = round(reuse.reuse_speedup, 4)
    benchmark.extra_info["speedup_single_use"] = round(reuse.single_use_speedup, 4)
    benchmark.extra_info["largest_cut"] = max(
        (len(ise.cut) for ise in result.ises), default=0
    )
    assert reuse.reuse_speedup >= 1.0
