"""Reference implementations the production engines are checked against.

Each module holds the executable specification of one search engine in
``src/repro``; only the differential tests and the A/B benchmarks import
them:

* :mod:`tests.oracles.kl` — the uncached Kernighan-Lin loop
  (``reference_bipartition``) and the exact-merit probe;
* :mod:`tests.oracles.cut_evaluator` — the ``frozenset`` cut evaluator
  (``ReferenceCutEvaluator``);
* :mod:`tests.oracles.enumeration` — the recursive DAC'03 enumeration
  engine (``reference_enumerate_feasible_cuts`` /
  ``reference_best_single_cut``).

:mod:`tests.oracles.kernels` is the one test-side way to run a block on a
chosen mask kernel (``forced_kernel``), so the differential suites can
compare the two kernels on one graph.

The package is importable from both ``tests/`` and ``benchmarks/`` because
``pytest.ini`` puts the repository root on ``sys.path``.
"""
