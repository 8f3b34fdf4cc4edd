"""Edge cases and failure injection across the stack.

Deliberately hostile configurations: degenerate devices, starved budgets,
isolated vertices, patterns larger than the data graph, batches introducing
brand-new vertices mid-stream, and label alphabets with no matches.
"""

from repro.core.engine import GCSMEngine
from repro.core.baselines import make_system
from repro.graphs import StaticGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.gpu import DeviceConfig
from repro.query import QueryGraph
from repro.testing.reference import count_embeddings

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


class TestDegenerateDevices:
    def test_tiny_device_still_correct(self):
        """A device with almost no memory degrades to pure zero-copy but
        never changes results."""
        g = erdos_renyi(40, 5.0, num_labels=1, seed=1)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=12, seed=1)
        tiny = DeviceConfig(global_memory_bytes=64,
                            cache_buffer_bytes=32)
        normal_engine = GCSMEngine(g0, TRIANGLE, seed=2)
        tiny_engine = GCSMEngine(g0, TRIANGLE, device=tiny, seed=2)
        for batch in batches[:2]:
            a = normal_engine.process_batch(batch)
            b = tiny_engine.process_batch(batch)
            assert a.delta_count == b.delta_count
        assert tiny_engine.cache_budget_bytes == 32

    def test_slow_interconnect_slows_zero_copy_systems_only(self):
        g = erdos_renyi(200, 6.0, num_labels=1, seed=2)
        g0, batches = derive_stream(g, num_updates=32, batch_size=32, seed=2)
        fast = DeviceConfig(pcie_bandwidth_bpns=64.0)
        slow = DeviceConfig(pcie_bandwidth_bpns=1.0)
        zc_fast = make_system("ZC", g0, TRIANGLE, device=fast).process_batch(batches[0])
        zc_slow = make_system("ZC", g0, TRIANGLE, device=slow).process_batch(batches[0])
        assert zc_slow.breakdown.total_ns > zc_fast.breakdown.total_ns
        cpu_fast = make_system("CPU", g0, TRIANGLE, device=fast).process_batch(batches[0])
        cpu_slow = make_system("CPU", g0, TRIANGLE, device=slow).process_batch(batches[0])
        assert cpu_slow.breakdown.total_ns == cpu_fast.breakdown.total_ns


class TestHostileWorkloads:
    def test_query_larger_than_graph(self):
        g = StaticGraph.from_edges(3, [(0, 1), (1, 2)])
        big = QueryGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        engine = GCSMEngine(g, big, seed=1)
        engine.graph.apply_batch(UpdateBatch([(0, 2)], [1]))
        engine.graph.reorganize()
        # fresh engine over the settled snapshot
        engine = GCSMEngine(engine.snapshot(), big, seed=1)
        result = engine.process_batch(UpdateBatch([(0, 2)], [-1]))
        assert result.delta_count == 0

    def test_no_matching_labels_anywhere(self):
        g = erdos_renyi(30, 4.0, num_labels=2, seed=3)
        impossible = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [9, 9, 9])
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=8, seed=3)
        engine = GCSMEngine(g0, impossible, seed=4)
        for batch in batches[:2]:
            result = engine.process_batch(batch)
            assert result.delta_count == 0
            assert result.match_stats.roots_processed == 0
            # nothing sampled, nothing cached
            assert result.cached_vertices.size == 0

    def test_batch_introducing_new_vertices(self):
        g = erdos_renyi(20, 3.0, num_labels=1, seed=5)
        engine = GCSMEngine(g, TRIANGLE, seed=6)
        before = count_embeddings(engine.snapshot(), TRIANGLE)
        # connect three brand-new vertices into a triangle with an old one
        batch = UpdateBatch(
            [(20, 21), (21, 22), (20, 22), (0, 20)],
            [1, 1, 1, 1],
            new_vertex_labels={20: 0, 21: 0, 22: 0},
        )
        result = engine.process_batch(batch)
        after = count_embeddings(engine.snapshot(), TRIANGLE)
        assert engine.graph.num_vertices == 23
        assert result.delta_count == after - before
        assert after - before >= 6  # at least the new triangle's 6 embeddings

    def test_graph_with_isolated_vertices(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        g = StaticGraph.from_edges(10, edges)  # vertices 3..9 isolated
        engine = GCSMEngine(g, TRIANGLE, seed=7)
        result = engine.process_batch(UpdateBatch([(3, 4)], [1]))
        assert result.delta_count == 0

    def test_deleting_every_edge(self):
        g = StaticGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        engine = GCSMEngine(g, TRIANGLE, seed=8)
        batch = UpdateBatch([(0, 1), (1, 2), (0, 2), (2, 3)], [-1, -1, -1, -1])
        result = engine.process_batch(batch)
        assert result.delta_count == -6  # the single triangle, all 6 embeddings
        assert engine.snapshot().num_edges == 0

    def test_alternating_insert_delete_of_same_edge(self):
        g = StaticGraph.from_edges(3, [(0, 1), (1, 2)])
        engine = GCSMEngine(g, TRIANGLE, seed=9)
        total = 0
        for sign in (1, -1, 1, -1, 1):
            result = engine.process_batch(UpdateBatch([(0, 2)], [sign]))
            total += result.delta_count
        # net effect: edge present -> one triangle = 6 embeddings
        assert total == 6
        assert count_embeddings(engine.snapshot(), TRIANGLE) == 6


class TestEstimatorEdgeCases:
    def test_zero_walk_floor(self):
        g = erdos_renyi(30, 4.0, num_labels=1, seed=10)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=8, seed=10)
        engine = GCSMEngine(g0, TRIANGLE, num_walks=1, seed=11)
        result = engine.process_batch(batches[0])  # must not crash
        assert result.estimation.num_walks == 3  # the floor: one walk per ΔM plan

    def test_dense_tiny_graph(self):
        # complete graph: every walk survives everywhere
        n = 8
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = StaticGraph.from_edges(n, edges)
        g0, batches = derive_stream(g, update_fraction=0.2, batch_size=4, seed=12)
        engine = GCSMEngine(g0, TRIANGLE, seed=13)
        prev = count_embeddings(g0, TRIANGLE)
        for batch in batches:
            r = engine.process_batch(batch)
            now = count_embeddings(engine.snapshot(), TRIANGLE)
            assert r.delta_count == now - prev
            prev = now
