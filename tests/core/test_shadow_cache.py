"""Shadow-cut cache: bit-identical trajectories, cached legality queries.

The K-L loop's shadow cut ``BC`` answers its legality queries through
:class:`~repro.core.ShadowCutCache` instead of re-deriving convexity and I/O
from scratch for every committed toggle.  These tests pin the two
guarantees that cache must honour:

* **bit-identicality** — the committed toggle order, the shadow updates and
  the final cut are exactly those of the uncached oracle loop
  (``tests/oracles/kl.py``), on random graphs and on the paper's 696-node
  AES block;
* **cache effectiveness** — along a legal toggle trajectory every shadow
  query is served without a from-scratch I/O probe, and on the AES block
  the majority of queries hit the cache.
"""

import pytest

from repro.core import ISEGenConfig, bipartition
from repro.dfg import random_dfg
from repro.hwmodel import ISEConstraints
from repro.workloads import load_workload
from tests.oracles.kl import reference_bipartition


def _toggle_orders(result):
    return [trace.toggle_order for trace in result.passes]


def _shadow_counts(result):
    hits = sum(trace.shadow_cache_hits for trace in result.passes)
    fresh = sum(trace.shadow_fresh_probes for trace in result.passes)
    updates = sum(trace.shadow_updates for trace in result.passes)
    return hits, fresh, updates


@pytest.mark.parametrize("seed", range(6))
def test_trajectory_identical_with_and_without_shadow_cache(seed, paper_constraints):
    dfg = random_dfg(50, seed=seed, live_out_fraction=0.2, memory_fraction=0.1)
    cached = bipartition(dfg, paper_constraints, ISEGenConfig())
    reference = reference_bipartition(dfg, paper_constraints, ISEGenConfig())
    assert _toggle_orders(cached) == _toggle_orders(reference)
    assert cached.members == reference.members
    assert cached.merit == reference.merit
    assert [t.shadow_updates for t in cached.passes] == [
        t.shadow_updates for t in reference.passes
    ]


def test_legal_trajectory_needs_no_fresh_shadow_probes(mac_chain_dfg):
    """Steady state: while the working cut stays legal, every shadow query
    is answered from the working evaluator's cached entries — zero
    from-scratch I/O probes."""
    loose = ISEConstraints(max_inputs=16, max_outputs=8, max_ises=1)
    result = bipartition(mac_chain_dfg, loose, ISEGenConfig())
    hits, fresh, updates = _shadow_counts(result)
    assert updates > 0
    assert fresh == 0
    assert hits > 0


@pytest.mark.slow
def test_aes_block_trajectory_unchanged_and_mostly_cached():
    """The paper's 696-node AES block: the toggle sequence of every pass is
    identical to the uncached reference path, and every shadow legality
    query is served without a from-scratch probe."""
    program = load_workload("aes")
    aes = max((block.dfg for block in program), key=lambda dfg: dfg.num_nodes)
    assert aes.num_nodes == 696
    constraints = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=1)
    cached = bipartition(aes, constraints, ISEGenConfig())
    reference = reference_bipartition(aes, constraints, ISEGenConfig())
    assert _toggle_orders(cached) == _toggle_orders(reference)
    assert cached.members == reference.members
    assert cached.merit == reference.merit
    hits, fresh, _updates = _shadow_counts(cached)
    assert hits > 0
    # The mask-based toggle-addendum formula answers first-time probes too:
    # zero cold probes over the whole trajectory (~380 before it existed),
    # and in particular zero on the final pass.
    assert fresh == 0
    assert cached.passes[-1].shadow_fresh_probes == 0
