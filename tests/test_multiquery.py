"""Tests for the multi-query engine (shared per-batch pipeline)."""

import numpy as np
import pytest

from repro.core.engine import GCSMEngine
from repro.core.multiquery import MultiQueryEngine
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.query import QueryGraph
from repro.testing.reference import count_embeddings

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
WEDGE = QueryGraph(3, [(0, 1), (1, 2)], [0, 1, 0], name="wedge")
SQUARE = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], name="square")


def small_case(seed=1):
    g = erdos_renyi(50, 5.0, num_labels=2, seed=seed)
    return derive_stream(g, update_fraction=0.4, batch_size=16, seed=seed)


class TestCorrectness:
    def test_per_query_deltas_match_oracle(self):
        g0, batches = small_case()
        engine = MultiQueryEngine(g0, [TRIANGLE, WEDGE, SQUARE], seed=2)
        prev = {q.name: count_embeddings(g0, q) for q in engine.query.queries}
        for batch in batches[:3]:
            result = engine.process_batch(batch)
            snap = engine.snapshot()
            for q in engine.query.queries:
                now = count_embeddings(snap, q)
                assert result.delta_counts[q.name] == now - prev[q.name], q.name
                prev[q.name] = now

    def test_matches_individual_engines(self):
        g0, batches = small_case(seed=3)
        multi = MultiQueryEngine(g0, [TRIANGLE, SQUARE], seed=4)
        singles = {q.name: GCSMEngine(g0, q, seed=4) for q in (TRIANGLE, SQUARE)}
        for batch in batches[:3]:
            mr = multi.process_batch(batch)
            for name, engine in singles.items():
                sr = engine.process_batch(batch)
                assert mr.delta_counts[name] == sr.delta_count

    def test_requires_unique_names(self):
        g0, _ = small_case()
        with pytest.raises(ValueError):
            MultiQueryEngine(g0, [TRIANGLE, TRIANGLE])

    def test_requires_queries(self):
        g0, _ = small_case()
        with pytest.raises(ValueError):
            MultiQueryEngine(g0, [])


class TestAmortization:
    def test_shared_phases_paid_once(self):
        """Per batch, the multi-query engine pays update/FE/pack/reorg once
        while N separate engines pay them N times."""
        g = powerlaw_graph(2_000, 8.0, max_degree=80, num_labels=2, seed=5)
        g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=5)
        queries = [TRIANGLE, WEDGE, SQUARE]
        multi = MultiQueryEngine(g0, queries, seed=6)
        mr = multi.process_batch(batches[0])
        shared_overhead = (
            mr.breakdown.update_ns + mr.breakdown.pack_ns + mr.breakdown.reorg_ns
        )

        separate_overhead = 0.0
        for q in queries:
            engine = GCSMEngine(g0, q, seed=6)
            sr = engine.process_batch(batches[0])
            separate_overhead += (
                sr.breakdown.update_ns + sr.breakdown.pack_ns + sr.breakdown.reorg_ns
            )
        # one shared pipeline's fixed costs land well below three engines'
        assert shared_overhead < 0.7 * separate_overhead

    def test_result_structure(self):
        g0, batches = small_case(seed=7)
        engine = MultiQueryEngine(g0, [TRIANGLE, WEDGE], seed=8)
        r = engine.process_batch(batches[0])
        assert set(r.delta_counts) == {"triangle", "wedge"}
        assert set(r.match_stats) == {"triangle", "wedge"}
        assert r.delta_count == sum(r.delta_counts.values())
        assert r.estimation is not None
        assert r.breakdown.total_ns > 0
        assert r.cache_hits + r.cache_misses > 0
        # one result type: everything benchmarks/e2e/api.RESULT_FIELDS reads
        # is on the rulebook result; the per-query extras only there
        from repro.core.engine import BatchResult

        assert isinstance(r, BatchResult)
        for name in ("delta_count", "delta_counts", "breakdown", "match_counters",
                     "match_stats", "estimation", "cached_vertices", "cache_bytes",
                     "cache_hits", "cache_misses", "conflicts", "prefilter",
                     "trie_stats"):
            assert hasattr(r, name), name
        single = GCSMEngine(g0, TRIANGLE, seed=8).process_batch(batches[0])
        assert not hasattr(single, "delta_counts")
        assert not hasattr(single, "trie_stats")

    def test_result_carries_the_batch_conflict_report(self):
        """One result type: a rulebook batch reports its CanonicalReport like
        any other (the private pipeline dropped it)."""
        from repro.core.engine import BatchResult
        from repro.graphs.stream import generate_adversarial_stream
        from repro.graphs.dynamic_graph import DynamicGraph

        g0 = erdos_renyi(50, 6.0, num_labels=2, seed=11)
        batches = generate_adversarial_stream(g0, num_batches=3, seed=12)
        engine = MultiQueryEngine(g0, [TRIANGLE, WEDGE], conflict_mode="coalesce")
        store = DynamicGraph(g0)
        anomalies = 0
        for batch in batches:
            r = engine.process_batch(batch)
            effective = store.apply_batch(batch, mode="coalesce")
            store.reorganize()
            assert isinstance(r, BatchResult)
            assert r.conflicts.input_size == len(batch)
            assert r.conflicts.output_size == len(effective)
            anomalies += r.conflicts.anomalies
        assert anomalies > 0  # the stream really was dirty

    def test_pooled_estimation_covers_all_queries(self):
        """The pooled frequency estimate must reflect accesses of every
        query, not just the first one."""
        g = powerlaw_graph(2_000, 8.0, max_degree=80, num_labels=2, seed=9)
        g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=9)
        multi = MultiQueryEngine(g0, [TRIANGLE, SQUARE], num_walks=4096, seed=10)
        r = multi.process_batch(batches[0])
        pooled_sampled = set(r.estimation.sampled_vertices.tolist())

        solo = GCSMEngine(g0, SQUARE, num_walks=2048, seed=10)
        sr = solo.process_batch(batches[0])
        square_sampled = set(sr.estimation.sampled_vertices.tolist())
        # substantial overlap with the second query's own sampled set
        if square_sampled:
            overlap = len(pooled_sampled & square_sampled) / len(square_sampled)
            assert overlap > 0.3
