"""Wall-clock micro-benchmarks of the hot paths (pytest-benchmark proper).

Unlike the figure targets (which time one deterministic simulation pass),
these measure the real Python/NumPy throughput of the matching executor,
the frequency estimator, and the dynamic-store update path over several
rounds — the numbers a developer optimizing this library watches.
"""

import pytest

from repro.core.engine import GCSMEngine
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.matching import match_batch
from repro.graphs import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu import AccessCounters, ZeroCopyView, default_device
from repro.query import compile_delta_plans, query_by_name


@pytest.fixture(scope="module")
def workload():
    graph = powerlaw_graph(8_000, 10.0, max_degree=120, num_labels=4, seed=0)
    g0, batches = derive_stream(graph, num_updates=128, batch_size=128, seed=0)
    return g0, batches[0]


def test_match_batch_throughput(benchmark, workload):
    g0, batch = workload
    plans = compile_delta_plans(query_by_name("Q1"))
    dg = DynamicGraph(g0)
    dg.apply_batch(batch)

    def run():
        view = ZeroCopyView(dg, default_device(), AccessCounters())
        return match_batch(plans, batch, view)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.roots_processed > 0


def test_estimator_throughput(benchmark, workload):
    g0, batch = workload
    plans = compile_delta_plans(query_by_name("Q1"))
    dg = DynamicGraph(g0)
    dg.apply_batch(batch)
    estimator = FrontierFrequencyEstimator(dg, default_device(), seed=1, survival=1.0)

    res = benchmark.pedantic(
        lambda: estimator.estimate(plans, batch, num_walks=512),
        rounds=3, iterations=1,
    )
    assert res.sampled_vertices.size > 0


def test_update_and_reorganize_throughput(benchmark, workload):
    g0, batch = workload

    def run():
        dg = DynamicGraph(g0)
        dg.apply_batch(batch)
        return dg.reorganize()

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.lists_touched > 0


def test_engine_end_to_end_throughput(benchmark, workload):
    g0, batch = workload

    def run():
        engine = GCSMEngine(g0, query_by_name("Q1"), seed=2)
        return engine.process_batch(batch)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.match_stats.roots_processed > 0
