"""Tests for cache policies and the cached device view (paper Sec. V-C)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cache import (
    CachedDeviceView,
    DegreeCachePolicy,
    FrequencyCachePolicy,
    select_within_budget,
)
from repro.core.dcsr import DcsrCache, packed_size_bytes
from repro.graphs import DynamicGraph, StaticGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi
from repro.gpu import AccessCounters, Channel, default_device
from repro.testing import (
    neighbors_new, neighbors_old, select_within_budget_reference, stored_runs,
)
from tests.test_views_semantics import read_list


def settled_store(n=30, seed=0):
    return DynamicGraph(erdos_renyi(n, 4.0, seed=seed))


class TestSelectWithinBudget:
    def test_respects_budget_prefix(self):
        dg = settled_store()
        ranked = np.arange(10, dtype=np.int64)
        sizes = [packed_size_bytes(d) for d in dg.degrees_new()[:10].tolist()]
        budget = sizes[0] + sizes[1]
        chosen = select_within_budget(dg, ranked, budget)
        assert chosen.tolist() == [0, 1]

    def test_zero_budget(self):
        dg = settled_store()
        assert select_within_budget(dg, np.arange(5), 0).size == 0

    def test_large_budget_takes_all(self):
        dg = settled_store()
        chosen = select_within_budget(dg, np.arange(dg.num_vertices), 10**9)
        assert chosen.size == dg.num_vertices

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), budget_share=st.floats(0.0, 1.2))
    def test_cumsum_prefix_equals_scalar_scan(self, seed, budget_share):
        """The prefix before the first overflow is the scalar scan's
        selection (kept in ``repro.testing``), on an open batch — marks and
        an appended run count towards a list's packed size — over random
        rankings and budgets, including a first vertex that alone overflows."""
        rng = np.random.default_rng(seed)
        g = erdos_renyi(40, 5.0, seed=seed % 7)
        dg = DynamicGraph(g)
        existing = g.edge_array()[:6]
        fresh = np.array([[0, 39], [1, 38], [2, 37]])
        fresh = fresh[[int(v) not in g.neighbors(int(u)) for u, v in fresh]]
        dg.apply_batch(UpdateBatch(
            np.concatenate([existing, fresh]),
            np.concatenate([-np.ones(len(existing), np.int64), np.ones(len(fresh), np.int64)]),
        ))
        ranked = rng.permutation(dg.num_vertices)[: int(rng.integers(0, 41))]
        total = int(packed_size_bytes(dg.run_lengths(ranked)[1]).sum())
        for budget in (int(budget_share * total), 0, packed_size_bytes(0) - 1):
            expected = select_within_budget_reference(dg, ranked, budget)
            chosen = select_within_budget(dg, ranked, budget)
            assert chosen.dtype == expected.dtype
            assert chosen.tolist() == expected.tolist()


class TestPolicies:
    def test_frequency_policy_ranks_by_estimate(self):
        dg = settled_store()
        freq = np.zeros(dg.num_vertices)
        freq[7], freq[3], freq[11] = 100.0, 50.0, 10.0
        ranked = FrequencyCachePolicy().rank(dg, freq)
        assert ranked.tolist() == [7, 3, 11]

    def test_frequency_policy_requires_estimates(self):
        dg = settled_store()
        assert FrequencyCachePolicy().rank(dg, None).size == 0

    def test_degree_policy_ranks_by_degree(self):
        dg = settled_store(seed=4)
        ranked = DegreeCachePolicy().rank(dg, None)
        degs = dg.degrees_new()[ranked].tolist()
        assert degs == sorted(degs, reverse=True)
        # isolated vertices excluded
        assert all(d > 0 for d in degs)

    def test_policy_names(self):
        assert FrequencyCachePolicy().name == "frequency"
        assert DegreeCachePolicy().name == "degree"


class TestCachedDeviceView:
    def make(self, cached_vertices):
        g = StaticGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        dg = DynamicGraph(g)
        dg.apply_batch(UpdateBatch([(0, 2), (0, 4)], [1, -1]))
        counters = AccessCounters()
        cache = DcsrCache.build(dg, np.asarray(cached_vertices, dtype=np.int64))
        view = CachedDeviceView(dg, default_device(), counters, cache)
        return dg, view, counters

    def test_hit_reads_gpu_global(self):
        dg, view, counters = self.make([0, 2])
        assert read_list(view, 0, False).tolist() == [1, 2]  # (0,4) deleted, (0,2) inserted
        assert view.hits == 1 and view.misses == 0
        assert counters.bytes_by_channel[Channel.GPU_GLOBAL] > 0
        assert counters.bytes_by_channel[Channel.ZERO_COPY] == 0

    def test_miss_falls_back_to_zero_copy(self):
        dg, view, counters = self.make([0, 2])
        assert read_list(view, 3, True).tolist() == [2, 4]
        assert view.misses == 1
        assert counters.bytes_by_channel[Channel.ZERO_COPY] > 0

    def test_cached_old_version_decodes_marks(self):
        """The packed row keeps the deletion mark; a read of ``N`` decodes it."""
        dg, view, _ = self.make([0, 4])
        start, delta = view.cache.rowptr[0]
        assert view.cache.colidx[start:delta].tolist() == [1, -5]  # (0,4) marked
        assert read_list(view, 0, True).tolist() == [1, 4]  # deletion mark decoded back

    def test_hit_equals_store_for_all_vertices(self):
        """Each packed row holds its vertex's stored runs, which decode to
        the lists the store's read returns."""
        g = erdos_renyi(40, 5.0, seed=6)
        from repro.graphs.stream import derive_stream
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=12, seed=6)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        cache = DcsrCache.build(dg, np.arange(dg.num_vertices))
        view = CachedDeviceView(dg, default_device(), AccessCounters(), cache)
        for v in range(dg.num_vertices):
            base, delta = stored_runs(dg, v)
            row = cache.colidx[cache.rowptr[v, 0]:cache.rowptr[v + 1, 0]]
            assert row.tolist() == base.tolist() + delta.tolist()
            assert read_list(view, v, True).tolist() == neighbors_old(dg, v).tolist()
            assert read_list(view, v, False).tolist() == neighbors_new(dg, v).tolist()
        assert view.hits == 2 * dg.num_vertices and view.misses == 0

    def test_hit_rate(self):
        dg, view, _ = self.make([0])
        view.fetch_block(np.array([0, 1, 1]), np.array([2, 1, 1]))
        assert (view.hits, view.misses) == (1, 2)

    def test_probe_cost_charged(self):
        dg, view, counters = self.make([0, 2])
        before = counters.compute_ops
        read_list(view, 0, False)
        assert counters.compute_ops == before + view.cache.probe_cost_ops() > before
