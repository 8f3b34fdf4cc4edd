"""Differential tests: frontier estimator vs the recursive reference.

The parity contract (see ``docs/frequency.md``) has three layers:

(a) **exact** — in the deterministic full-expansion regime (``survival``
    large enough that every child-continuation probability saturates to 1)
    the two samplers consume identical RNG streams (root draws only) and
    perform the same multiset of charges, so frequencies, FE counters, and
    ``nodes_visited`` agree exactly, and ``GCSMEngine`` end-to-end results
    are identical under either estimator;
(b) **statistical** — under the stochastic schedules both are unbiased:
    their seed-averaged estimates converge to the exact access counts ``C_v``
    measured by instrumenting the exact kernel;
(c) the DCSR-side contract (vectorized vs reference ``build``) lives in
    ``tests/test_dcsr.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import GCSMEngine
from repro.core.frequency import FrequencyEstimator
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.matching import match_batch
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.views import HostCPUView
from repro.gpu.device import default_device
from repro.query import QueryGraph, query_by_name
from repro.query.plan import compile_delta_plans
from repro.testing import RecursiveFrequencyEstimator, use_reference_kernels

DEVICE = default_device()

#: the production sampler and its parity oracle (``repro.testing``)
ESTIMATORS = {
    "frontier": FrontierFrequencyEstimator,
    "recursive": RecursiveFrequencyEstimator,
}


def make_estimator(name, graph, device, **kwargs):
    return ESTIMATORS[name](graph, device, **kwargs)


def with_estimator(engine, name: str):
    """The engine on the named sampler (matching kernel untouched)."""
    if name == "recursive":
        use_reference_kernels(engine, matcher=False)
    return engine


TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")

#: large enough that min(1, survival/|V|) == 1 for every candidate set
FULL_EXPANSION = 1e18


def estimator_fingerprint(result, num_vertices: int) -> dict:
    c = result.counters
    return {
        "freq": result.frequencies.tolist(),
        "walks": result.num_walks,
        "nodes": result.nodes_visited,
        "bytes": {ch.value: v for ch, v in c.bytes_by_channel.items()},
        "tx": {ch.value: v for ch, v in c.transactions_by_channel.items()},
        "compute": c.compute_ops,
        "hist": c.vertex_access_counts(num_vertices).tolist(),
        "hist_bytes": c.vertex_access_bytes(num_vertices).tolist(),
    }


def run_estimates(name, g0, batches, plans, *, survival, num_walks, seed=123):
    """Drive one estimator over a whole stream (deletions included)."""
    graph = DynamicGraph(g0)
    est = make_estimator(name, graph, DEVICE, seed=seed, survival=survival)
    prints = []
    for batch in batches:
        graph.apply_batch(batch)
        res = est.estimate(plans, batch, num_walks=num_walks)
        prints.append(estimator_fingerprint(res, graph.num_vertices))
        graph.reorganize()
    return prints


class TestFactory:
    def test_registry(self):
        """No production registry: the sampler is not a user option, and the
        shared base cannot estimate on its own."""
        import repro.core.frequency as production

        assert not hasattr(production, "make_estimator")
        assert not hasattr(production, "ESTIMATORS")
        graph = DynamicGraph(erdos_renyi(10, 2.0, num_labels=1, seed=0))
        for cls in ESTIMATORS.values():
            assert issubclass(cls, FrequencyEstimator)
        with pytest.raises(NotImplementedError):
            FrequencyEstimator(graph, DEVICE).estimate([], None)
        with pytest.raises(TypeError):
            GCSMEngine(erdos_renyi(10, 2.0, seed=0), query_by_name("Q1"),
                       estimator="recursive")

    def test_engine_uses_default(self):
        g = erdos_renyi(30, 3.0, num_labels=1, seed=1)
        engine = GCSMEngine(g, query_by_name("Q1"))
        assert isinstance(engine.estimator, FrontierFrequencyEstimator)
        rng = engine.estimator.rng
        rec = use_reference_kernels(engine)
        assert rec is engine
        assert isinstance(engine.estimator, RecursiveFrequencyEstimator)
        assert engine.estimator.rng is rng  # same seed derivation


class TestDeterministicExactParity:
    """Layer (a): exact equality in the full-expansion regime."""

    @pytest.mark.parametrize("query_name", ["Q1", "Q3", "Q5"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_streams(self, query_name, seed):
        g = powerlaw_graph(500, 6.0, max_degree=40, num_labels=3, seed=seed)
        g0, batches = derive_stream(
            g, num_updates=128, batch_size=32, insert_probability=0.5,
            seed=seed + 10,
        )
        plans = compile_delta_plans(query_by_name(query_name))
        rec = run_estimates(
            "recursive", g0, batches, plans,
            survival=FULL_EXPANSION, num_walks=400,
        )
        fro = run_estimates(
            "frontier", g0, batches, plans,
            survival=FULL_EXPANSION, num_walks=400,
        )
        assert rec == fro

    def test_unlabeled_dense_case(self):
        g = erdos_renyi(120, 8.0, num_labels=1, seed=5)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=24, seed=6)
        plans = compile_delta_plans(TRIANGLE)
        rec = run_estimates(
            "recursive", g0, batches[:4], plans,
            survival=FULL_EXPANSION, num_walks=600,
        )
        fro = run_estimates(
            "frontier", g0, batches[:4], plans,
            survival=FULL_EXPANSION, num_walks=600,
        )
        assert rec == fro

    def test_adaptive_inherited(self):
        """estimate_adaptive (inherited by the frontier class) stays exact."""
        g = erdos_renyi(80, 5.0, num_labels=2, seed=7)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=16, seed=8)
        plans = compile_delta_plans(query_by_name("Q1"))
        results = {}
        for name in ESTIMATORS:
            graph = DynamicGraph(g0)
            graph.apply_batch(batches[0])
            est = make_estimator(
                name, graph, DEVICE, seed=9, survival=FULL_EXPANSION
            )
            res = est.estimate_adaptive(
                plans, batches[0], initial_walks=64, max_walks=1024
            )
            results[name] = estimator_fingerprint(res, graph.num_vertices)
        assert results["frontier"] == results["recursive"]


class TestEngineEndToEnd:
    """Layer (a) through the whole pipeline: cache selection, match counts,
    and simulated breakdowns are identical under either estimator."""

    def batch_fingerprint(self, result) -> dict:
        bd = result.breakdown
        return {
            "delta": result.delta_count,
            "embeddings": result.match_stats.embeddings_found,
            "tree_nodes": result.match_stats.tree_nodes,
            "cached": result.cached_vertices.tolist(),
            "cache_bytes": result.cache_bytes,
            "hits": result.cache_hits,
            "misses": result.cache_misses,
            "update_ns": bd.update_ns,
            "estimate_ns": bd.estimate_ns,
            "pack_ns": bd.pack_ns,
            "match_ns": bd.match_ns,
            "reorg_ns": bd.reorg_ns,
            "match_compute": result.match_counters.compute_ops,
        }

    @pytest.mark.parametrize("query_name", ["Q1", "Q3"])
    def test_gcsm_engine_identical(self, query_name):
        g = powerlaw_graph(400, 6.0, max_degree=30, num_labels=3, seed=3)
        g0, batches = derive_stream(g, num_updates=96, batch_size=32, seed=4)
        prints = {}
        for name in ESTIMATORS:
            engine = with_estimator(
                GCSMEngine(
                    g0, query_by_name(query_name),
                    survival=FULL_EXPANSION, seed=11,
                ),
                name,
            )
            prints[name] = [
                self.batch_fingerprint(engine.process_batch(b)) for b in batches
            ]
        assert prints["frontier"] == prints["recursive"]

    def test_multigpu_engine_identical(self):
        g = powerlaw_graph(300, 5.0, max_degree=25, num_labels=2, seed=12)
        g0, batches = derive_stream(g, num_updates=64, batch_size=32, seed=13)
        prints = {}
        for name in ESTIMATORS:
            engine = with_estimator(
                GCSMEngine(
                    g0, query_by_name("Q1"), devices=2,
                    survival=FULL_EXPANSION, seed=14,
                ),
                name,
            )
            prints[name] = [
                self.batch_fingerprint(engine.process_batch(b)) for b in batches
            ]
        assert prints["frontier"] == prints["recursive"]


class TestStatisticalParity:
    """Layer (b): both samplers are unbiased under the stochastic schedules."""

    def _exact_and_setup(self, seed=3, n=30, batch=8):
        g = erdos_renyi(n, 5.0, num_labels=1, seed=seed)
        g0, batches = derive_stream(
            g, update_fraction=0.4, batch_size=batch, seed=seed
        )
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        plans = compile_delta_plans(TRIANGLE)
        counters = AccessCounters()
        match_batch(plans, batches[0], HostCPUView(dg, DEVICE, counters))
        exact = counters.vertex_access_counts(dg.num_vertices).astype(float)
        return dg, batches[0], plans, exact

    @pytest.mark.parametrize("survival", [None, 1.0])
    def test_frontier_unbiased_against_exact_counts(self, survival):
        dg, batch, plans, exact = self._exact_and_setup()
        acc = np.zeros(dg.num_vertices)
        runs = 60
        est = make_estimator("frontier", dg, DEVICE, seed=10, survival=survival)
        for _ in range(runs):
            acc += est.estimate(plans, batch, num_walks=600).frequencies
        mean = acc / runs
        heavy = exact >= np.percentile(exact[exact > 0], 70)
        rel = np.abs(mean[heavy] - exact[heavy]) / exact[heavy]
        assert float(np.median(rel)) < 0.35

    def test_means_agree_across_estimators(self):
        """Seed-averaged estimates of the two samplers agree on the heavy
        vertices (same sampling probabilities, different RNG consumption)."""
        dg, batch, plans, exact = self._exact_and_setup(seed=5)
        means = {}
        for name in ESTIMATORS:
            acc = np.zeros(dg.num_vertices)
            runs = 50
            for s in range(runs):
                est = make_estimator(
                    name, dg, DEVICE, seed=100 + s, survival=1.0
                )
                acc += est.estimate(plans, batch, num_walks=500).frequencies
            means[name] = acc / runs
        heavy = exact >= np.percentile(exact[exact > 0], 70)
        r, f = means["recursive"][heavy], means["frontier"][heavy]
        rel = np.abs(r - f) / np.maximum(1.0, (r + f) / 2)
        assert float(np.median(rel)) < 0.25
