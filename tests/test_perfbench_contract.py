"""The end-to-end benchmark's hooks into the program still exist.

``perfbench/`` wraps public entry points by name while it measures
(``repro.core.isegen.bipartition``, ``PartitionState.toggle``,
``GeneticSearch.run``, the file-queue, store and service methods, ...) and
reads ISEGEN's ``result.stats`` counters.  Renaming one of them would only
surface when the benchmark runs; these tests make it fail the unit suite
instead.  The perfbench sources are imported as they are, never edited.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core import ISEGen, bipartition
from repro.dfg import numpy_available
from repro.hwmodel import ISEConstraints
from repro.workloads import load_workload

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import cases
        import probes

        yield cases, probes
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_installs_its_probes(perfbench, tmp_path):
    cases, probes = perfbench
    for name in cases.WORKLOADS:
        case = cases.make_case(name, 0, tmp_path / name)
        installed = probes.Probes()
        try:
            case.install(installed, {})
        finally:
            installed.close()


def test_isegen_stats_carry_the_core_counters(perfbench):
    cases, _probes = perfbench
    program = load_workload("conven00")
    result = ISEGen(ISEConstraints(max_inputs=4, max_outputs=2, max_ises=2)).generate(
        program
    )
    missing = [name for name in cases.CORE_COUNTERS if name not in result.stats]
    assert not missing, f"result.stats lacks {missing}"


def _dispatch_delta(cases, dfg):
    before = cases.kernel_counters()
    bipartition(dfg, ISEConstraints(max_inputs=4, max_outputs=2, max_ises=1))
    after = cases.kernel_counters()
    return {
        name: after[name] - before[name]
        for name in ("dfg.dispatch_pure", "dfg.dispatch_numpy")
    }


def test_bipartitions_tally_the_kernel_their_block_runs(perfbench):
    """``kernel_counters`` sees one dispatch per bipartition, on the kernel
    the block's size picked."""
    cases, _probes = perfbench
    small = load_workload("conven00").largest_block.dfg
    assert small.num_nodes <= 64
    assert _dispatch_delta(cases, small) == {
        "dfg.dispatch_pure": 1,
        "dfg.dispatch_numpy": 0,
    }
    large = load_workload("adpcm_decoder").largest_block.dfg
    assert large.num_nodes > 64
    expected = {"dfg.dispatch_pure": 0, "dfg.dispatch_numpy": 1}
    if not numpy_available():
        expected = {"dfg.dispatch_pure": 1, "dfg.dispatch_numpy": 0}
    assert _dispatch_delta(cases, large) == expected
