"""End-to-end integration tests across the whole pipeline.

These tests exercise the path a downstream user follows: write a kernel in
the IR (or pick a benchmark workload), profile it, generate ISEs with ISEGEN
and the baselines, analyse reuse, rewrite the block and emit AFU RTL.
"""

import pytest

from repro import (
    ISEGen,
    load_workload,
)
from repro.baselines import run_greedy, run_iterative
from repro.codegen import (
    emit_afu_verilog,
    instruction_count,
    result_report,
    rewrite_with_cuts,
)
from repro.hwmodel import describe_afu
from repro.ir import IRBuilder, build_module, profile_function, run_function
from repro.reuse import reuse_aware_speedup


def _fir_module():
    """A 4-tap FIR filter with an unrolled inner loop."""
    builder = IRBuilder("fir4", params=["x0", "x1", "x2", "x3", "c0", "c1", "c2", "c3"])
    accumulator = builder.const(0, "acc0")
    for tap in range(4):
        product = builder.emit("mul", f"x{tap}", f"c{tap}", result=f"p{tap}")
        accumulator = builder.emit("add", accumulator, product, result=f"a{tap}")
    builder.emit("sar", accumulator, 2, result="scaled")
    builder.ret("scaled")
    return build_module("fir", builder)


def test_ir_kernel_to_ise_to_rtl_pipeline(paper_constraints):
    module = _fir_module()
    args = [1, 2, 3, 4, 5, 6, 7, 8]
    expected = (sum((i + 1) * (i + 5) for i in range(4))) >> 2
    assert run_function(module, "fir4", args).return_value == expected

    program = profile_function(module, "fir4", args)
    result = ISEGen(constraints=paper_constraints).generate(program)
    assert result.speedup > 1.0
    assert result.ises

    # The selected cuts can be collapsed into custom instructions...
    block = program.largest_block
    block_cuts = [
        ise.cut.members for ise in result.ises if ise.block_name == block.name
    ]
    rewritten = rewrite_with_cuts(block.dfg, block_cuts)
    assert instruction_count(rewritten) < instruction_count(block.dfg)

    # ... and emitted as AFU datapaths.
    afu = describe_afu("FIR_ISE", result.ises[0].cut)
    verilog = emit_afu_verilog(afu)
    assert "module FIR_ISE" in verilog
    assert "endmodule" in verilog

    # The textual report mentions every generated cut.
    report = result_report(result)
    for ise in result.ises:
        assert ise.name in report


def test_benchmark_pipeline_with_reuse(paper_constraints):
    program = load_workload("autcor00")
    result = ISEGen(constraints=paper_constraints).generate(program)
    reuse = reuse_aware_speedup(program, result)
    assert reuse.reuse_speedup >= result.speedup >= 1.0
    assert all(count >= 1 for count in reuse.instance_counts.values())


def test_algorithms_agree_on_legality_and_ordering(paper_constraints):
    """Quality ordering on a medium benchmark: optimal >= ISEGEN >= greedy
    is not guaranteed in general, but optimal must dominate everything."""
    program = load_workload("viterb00")
    iterative = run_iterative(program, paper_constraints)
    isegen = ISEGen(constraints=paper_constraints).generate(program)
    greedy = run_greedy(program, paper_constraints)
    assert iterative.speedup >= isegen.speedup - 1e-9
    assert iterative.speedup >= greedy.speedup - 1e-9
    for result in (iterative, isegen, greedy):
        for ise in result.ises:
            assert ise.cut.is_feasible(
                paper_constraints.max_inputs, paper_constraints.max_outputs
            )


def test_public_api_quickstart(paper_constraints):
    """The README quick-start snippet must keep working."""
    program = load_workload("fbital00")
    result = ISEGen(paper_constraints).generate(program)
    assert "ISEGEN" in result.summary()
    assert result.speedup == pytest.approx(2.499, rel=0.05)


def test_figure4_ordering_on_small_benchmarks(paper_constraints):
    """ISEGEN matches the optimal algorithms on the small EEMBC kernels —
    the central claim of Figure 4 (left)."""
    for name in ("conven00", "fbital00", "autcor00"):
        program = load_workload(name)
        optimal = run_iterative(program, paper_constraints).speedup
        heuristic = ISEGen(constraints=paper_constraints).generate(program).speedup
        assert heuristic == pytest.approx(optimal, rel=1e-6), name
