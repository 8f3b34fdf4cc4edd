"""Frontier vs recursive frequency estimator: real wall-clock comparison.

Times both samplers on the same estimation workloads — ``estimate`` over a
stream of batches for several queries and walk budgets — plus the vectorized
vs reference ``DcsrCache.build`` at several cache sizes, and prints a speedup
table (teed to ``benchmarks/results/estimator_wallclock.txt``).  Both
samplers perform an identical multiset of charges in the deterministic
regime (enforced by ``tests/test_estimator_parity.py``) and both ``build``
paths produce bit-identical arrays (``tests/test_dcsr.py``); the only
difference is Python-side wall-clock, which is exactly what this file
measures.

The frontier sampler's advantage grows with frontier width (live walks per
level): its per-level NumPy costs are fixed while the recursive sampler pays
per walk-tree node.  The paper's operating point is a *large* walk budget —
Eq. (4) sets M = |delta E| * D^(n-2) / 32^n and the adaptive loop (Eq. 5)
raises M up to 2^20 until the confidence bound holds — so the representative
regime is the largest budget below.

The CI smoke asserts the frontier sampler is never slower; the >=3x target
applies to the representative (largest-budget) configurations, and the
vectorized DCSR pack must hold >=2x across all cache sizes.

The ``rulebook24/estimate`` row is the other end of the range: the estimate
stage of ``Rulebook(rulebook_suite(24, num_labels=3))`` on AZ at the default
budget — its merged trie's 9 root groups, the repo benchmark's
``az_rulebook24`` — where the frontier is narrow and what counts is the
number of launches (one walk per batch, launching: nothing is expanded
ahead here).  It is reported, not gated.

The ``engine/estimate`` rows time a single-query engine's estimate stage
(``QuerySet.estimate``) on the repo benchmark's CA x Q3 and SF3K x Q1 shapes
twice: the walk launching its own joins, and reading the matcher's expansion
of the batch (``QuerySet.expand``, run untimed first, as the cached
placement's ``prepare`` does).  Same estimate bit for bit
(``tests/test_estimator_walk.py::TestWalkReadsTheExpansion``); reported, not
gated.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once
from repro.core.dcsr import DcsrCache
from repro.core.engine import GCSMEngine
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.multiquery import Rulebook
from repro.graphs import DynamicGraph
from repro.graphs.datasets import DATASETS
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import churn_stream, derive_stream
from repro.gpu import default_device
from repro.query import compile_delta_plans, query_by_name
from repro.query.generator import rulebook_suite
from repro.testing import (
    RecursiveFrequencyEstimator,
    build_reference,
    use_reference_kernels,
)
from repro.utils import geometric_mean

#: the production sampler vs its parity oracle (``repro.testing``)
ESTIMATORS = {
    "frontier": FrontierFrequencyEstimator,
    "recursive": RecursiveFrequencyEstimator,
}

GRAPH_N = 8_000
BATCH_SIZE = 4_096
QUERIES = ("Q1", "Q3", "Q5")
WALK_BUDGETS = (8_192, 32_768)
REPRESENTATIVE_WALKS = 32_768
CACHE_SIZES = (500, 2_000, 8_000)
REPEATS = 3


def _time_estimates(name: str, g0, batches, plans, num_walks: int) -> float:
    """Total ``estimate`` seconds over a stream (update/reorg excluded)."""
    device = default_device()
    graph = DynamicGraph(g0)
    est = ESTIMATORS[name](graph, device, seed=7, survival=1.0)
    total = 0.0
    for batch in batches:
        graph.apply_batch(batch)
        start = time.perf_counter()
        est.estimate(plans, batch, num_walks=num_walks)
        total += time.perf_counter() - start
        graph.reorganize()
    return total


def _time_rulebook_estimates(name: str, g0, batches, queries) -> float:
    """Total seconds in a rulebook engine's estimate stage over a stream."""
    engine = GCSMEngine(g0, Rulebook(queries), seed=7)
    if name == "recursive":
        use_reference_kernels(engine, matcher=False)
    total = 0.0
    for batch in batches:
        engine.graph.apply_batch(batch)
        start = time.perf_counter()
        engine.query_set.estimate(engine, batch, None)
        total += time.perf_counter() - start
        engine.graph.reorganize()
    return total


def _time_engine_estimates(read: bool, g0, batches, query) -> float:
    """Total seconds in a single-query engine's estimate stage over a stream,
    the walk reading the matcher's expansion of each batch (``read``) or
    launching its own joins."""
    engine = GCSMEngine(g0, query, seed=7)
    total = 0.0
    for batch in batches:
        engine.graph.apply_batch(batch)
        expansion = engine.query_set.expand(engine, batch, None) if read else None
        start = time.perf_counter()
        engine.query_set.estimate(engine, batch, None, expansion)
        total += time.perf_counter() - start
        engine.graph.reorganize()
    return total


def _time_build(builder, graph, vertices) -> float:
    start = time.perf_counter()
    builder(graph, vertices)
    return time.perf_counter() - start


def _measure(fn, *args) -> float:
    """Best-of-N wall-clock (minimum filters scheduler noise)."""
    return min(fn(*args) for _ in range(REPEATS))


def test_estimator_wallclock(benchmark, record_table):
    graph = powerlaw_graph(GRAPH_N, 10.0, max_degree=120, num_labels=4, seed=0)
    g0, batches = derive_stream(
        graph, num_updates=2 * BATCH_SIZE, batch_size=BATCH_SIZE, seed=0
    )

    def run():
        est_rows = []
        for query_name in QUERIES:
            plans = compile_delta_plans(query_by_name(query_name))
            for num_walks in WALK_BUDGETS:
                rec = _measure(
                    _time_estimates, "recursive", g0, batches, plans, num_walks
                )
                fro = _measure(
                    _time_estimates, "frontier", g0, batches, plans, num_walks
                )
                est_rows.append((f"estimate/{query_name}/M={num_walks}",
                                 num_walks, rec, fro))
        az0, az_batches = derive_stream(
            DATASETS["AZ"].build(0), num_updates=50 * 24, batch_size=24, seed=1
        )
        book = rulebook_suite(24, num_labels=3, seed=0)
        rulebook_row = ("rulebook24/estimate",) + tuple(
            _measure(_time_rulebook_estimates, name, az0, az_batches, book)
            for name in ("recursive", "frontier")
        )
        engine_rows = []
        for dataset, query_name, derive in (
            ("CA", "Q3", derive_stream), ("SF3K", "Q1", churn_stream)
        ):
            e0, e_batches = derive(
                DATASETS[dataset].build(0), num_updates=60 * 64, batch_size=64, seed=1
            )
            engine_rows.append((f"engine/estimate/{dataset}-{query_name}",) + tuple(
                _measure(_time_engine_estimates, read, e0, e_batches, query_by_name(query_name))
                for read in (False, True)
            ))

        # DCSR pack: vectorized build vs the per-vertex reference loop,
        # mid-batch (marks + deltas present) on the most frequent vertices.
        build_rows = []
        dyn = DynamicGraph(g0)
        dyn.apply_batch(batches[0])
        est = FrontierFrequencyEstimator(dyn, default_device(), seed=7)
        plans = compile_delta_plans(query_by_name("Q1"))
        freq_result = est.estimate(plans, batches[0], num_walks=4096)
        for k in CACHE_SIZES:
            # top_vertices only returns frequency-support vertices; the
            # largest row packs every list to bound the full-graph cost
            if k >= GRAPH_N:
                verts = np.arange(GRAPH_N, dtype=np.int64)
            else:
                verts = freq_result.top_vertices(k)
            rec = _measure(_time_build, build_reference, dyn, verts)
            fro = _measure(_time_build, DcsrCache.build, dyn, verts)
            build_rows.append((f"dcsr_build/k={verts.size}", rec, fro))
        return est_rows, rulebook_row, engine_rows, build_rows

    est_rows, rulebook_row, engine_rows, build_rows = run_once(benchmark, run)

    est_speedups = [rec / fro for *_, rec, fro in est_rows]
    representative = [rec / fro for _, nw, rec, fro in est_rows
                      if nw == REPRESENTATIVE_WALKS]
    build_speedups = [rec / fro for _, rec, fro in build_rows]
    with record_table("estimator_wallclock"):
        print(f"estimator wall-clock: frontier vs recursive sampler "
              f"(powerlaw n={GRAPH_N}, batch={BATCH_SIZE}, "
              f"best of {REPEATS})")
        print(f"{'workload':<26} {'recursive s':>12} {'frontier s':>12} "
              f"{'speedup':>8}")
        for (name, _, rec, fro), s in zip(est_rows, est_speedups):
            print(f"{name:<26} {rec:>12.3f} {fro:>12.3f} {s:>7.2f}x")
        name, rec, fro = rulebook_row
        print(f"{name:<26} {rec:>12.3f} {fro:>12.3f} {rec / fro:>7.2f}x")
        for (name, rec, fro), s in zip(build_rows, build_speedups):
            print(f"{name:<26} {rec:>12.3f} {fro:>12.3f} {s:>7.2f}x")
        print(f"{'geomean (estimate)':<26} {'':>12} {'':>12} "
              f"{geometric_mean(est_speedups):>7.2f}x")
        print(f"{'geomean (representative)':<26} {'':>12} {'':>12} "
              f"{geometric_mean(representative):>7.2f}x")
        print(f"{'geomean (dcsr build)':<26} {'':>12} {'':>12} "
              f"{geometric_mean(build_speedups):>7.2f}x")
        print(f"\nengine estimate stage, 60 batches of 64 updates: the walk "
              f"launching vs reading the matcher's expansion (best of {REPEATS})")
        print(f"{'workload':<26} {'launching s':>12} {'reading s':>12} {'speedup':>8}")
        for name, launching, reading in engine_rows:
            print(f"{name:<26} {launching:>12.3f} {reading:>12.3f} "
                  f"{launching / reading:>7.2f}x")

    # CI smoke: the default sampler must never lose to the reference, must
    # deliver the headline >=3x at the paper's (large-budget) operating
    # point, and the single-DMA pack must stay >=2x across cache sizes.
    assert all(s > 1.0 for s in est_speedups), est_speedups
    assert geometric_mean(representative) >= 3.0, representative
    assert all(s > 1.0 for s in build_speedups), build_speedups
    assert geometric_mean(build_speedups) >= 2.0, build_speedups
