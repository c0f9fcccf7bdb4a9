"""Shadow-cut cache: bit-identical trajectories, cached legality queries.

The K-L loop's shadow cut ``BC`` answers its legality queries through
:class:`~repro.core.ShadowCutCache` instead of re-deriving convexity and I/O
from scratch for every committed toggle.  These tests pin the two
guarantees that cache must honour:

* **bit-identicality** — the committed toggle order, the shadow updates and
  the final cut are exactly those of the uncached oracle loop
  (``tests/oracles/kl.py``), on random graphs and on the paper's 696-node
  AES block;
* **cache effectiveness** — every shadow query the oracle answers with a
  from-scratch probe, the production loop serves from its cache, on a legal
  toggle trajectory and on the AES block alike.
"""

import pytest

from repro.core import ISEGenConfig, bipartition
from repro.dfg import random_dfg
from repro.hwmodel import ISEConstraints
from repro.workloads import load_workload
from tests.oracles.kl import reference_bipartition


def _toggle_orders(result):
    return [trace.toggle_order for trace in result.passes]


def _assert_every_shadow_query_cached(cached, reference):
    """Per pass, the production loop's cached shadow answers equal the
    oracle's from-scratch probes: no query fell through the cache."""
    assert [t.shadow_cache_hits for t in cached.passes] == [
        t.shadow_fresh_probes for t in reference.passes
    ]


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
    _assert_every_shadow_query_cached(cached, reference)


def test_legal_trajectory_needs_no_fresh_shadow_probes(mac_chain_dfg):
    """Steady state: while the working cut stays legal, every shadow query
    is answered from the working evaluator's cached entries — zero
    from-scratch I/O probes."""
    loose = ISEConstraints(max_inputs=16, max_outputs=8, max_ises=1)
    result = bipartition(mac_chain_dfg, loose, ISEGenConfig())
    reference = reference_bipartition(mac_chain_dfg, loose, ISEGenConfig())
    assert sum(trace.shadow_updates for trace in result.passes) > 0
    assert sum(trace.shadow_cache_hits for trace in result.passes) > 0
    _assert_every_shadow_query_cached(result, reference)


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
    assert sum(trace.shadow_cache_hits for trace in cached.passes) > 0
    # The mask-based toggle-addendum formula answers first-time probes too:
    # zero cold probes over the whole trajectory (~380 before it existed).
    _assert_every_shadow_query_cached(cached, reference)
