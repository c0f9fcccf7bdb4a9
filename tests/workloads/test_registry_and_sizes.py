"""Tests for the workload registry and the paper-exact critical block sizes."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    AES_BENCHMARK,
    PAPER_BENCHMARKS,
    available_workloads,
    iter_workloads,
    load_workload,
    register_workload,
    workload_spec,
    WorkloadSpec,
)

#: The node counts the paper quotes in parentheses in Figure 4 / Section 5.
PAPER_SIZES = {
    "conven00": 6,
    "fbital00": 20,
    "viterb00": 23,
    "autcor00": 25,
    "adpcm_decoder": 82,
    "adpcm_coder": 96,
    "fft00": 104,
    "aes": 696,
}


def test_all_paper_benchmarks_are_registered():
    names = set(available_workloads())
    assert set(PAPER_BENCHMARKS) <= names
    assert AES_BENCHMARK in names


def test_paper_benchmarks_are_ordered_by_block_size():
    sizes = [workload_spec(name).critical_block_size for name in PAPER_BENCHMARKS]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("name, expected", sorted(PAPER_SIZES.items()))
def test_critical_block_sizes_match_the_paper(name, expected):
    spec = workload_spec(name)
    assert spec.critical_block_size == expected
    program = spec.build()
    assert program.critical_block_size() == expected


def test_every_workload_builds_a_profiled_program():
    for spec in iter_workloads():
        program = spec.build()
        assert len(program) >= 1
        assert all(block.frequency >= 0 for block in program)
        # The critical block must dominate the profile.
        critical = program.largest_block
        assert critical.frequency == max(block.frequency for block in program)


def test_unknown_workload_raises():
    with pytest.raises(WorkloadError, match="unknown workload"):
        workload_spec("quake3")
    with pytest.raises(WorkloadError):
        load_workload("doom")


def test_duplicate_registration_rejected():
    spec = workload_spec("conven00")
    with pytest.raises(WorkloadError, match="already registered"):
        register_workload(
            WorkloadSpec(
                name="conven00",
                suite=spec.suite,
                critical_block_size=spec.critical_block_size,
                description=spec.description,
                builder=spec.builder,
            )
        )


def test_workloads_rebuild_identically():
    first = load_workload("viterb00")
    second = load_workload("viterb00")
    from repro.dfg import dfg_to_dict

    assert dfg_to_dict(first.largest_block.dfg) == dfg_to_dict(
        second.largest_block.dfg
    )


# ----------------------------------------------------------------------
# The per-process workload memo
# ----------------------------------------------------------------------
def test_load_workload_memoizes_per_process(monkeypatch):
    from repro.workloads import registry

    registry.clear_workload_memo()
    first = load_workload("conven00")
    second = load_workload("conven00")
    assert registry.memo_hits == 1 and registry.memo_misses == 1
    # Fresh objects per call (no shared mutable state between cells)...
    assert first is not second
    # ...but structurally identical programs.
    assert first.blocks[0].dfg.num_nodes == second.blocks[0].dfg.num_nodes
    assert [
        (op.opcode, tuple(op.operands)) for op in first.blocks[0].dfg.nodes
    ] == [(op.opcode, tuple(op.operands)) for op in second.blocks[0].dfg.nodes]
    registry.clear_workload_memo()

