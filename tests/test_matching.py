"""Tests for the incremental WCOJ executor.

The centerpiece is the hypothesis property test: for random labeled graphs
and random signed batches, the signed ΔM produced by the ΔM_i plans equals
the from-scratch difference ``count(G_{k+1}) − count(G_k)`` — validating the
IVM decomposition, the N/N′ versioning, deletion handling, and the dynamic
store in one go.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import match_batch, match_static
from repro.graphs import DynamicGraph, StaticGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.gpu import AccessCounters, HostCPUView, ZeroCopyView, default_device
from repro.query import QueryGraph, compile_delta_plans, compile_static_plan
from repro.testing.oracles import delta_roots, static_roots
from repro.testing.reference import count_embeddings

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
WEDGE = QueryGraph(3, [(0, 1), (1, 2)], name="wedge")
SQUARE = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], name="square")
TAILED = QueryGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 1, 1], name="tailed")
EDGE = QueryGraph(2, [(0, 1)], [0, 1], name="edge")

ALL_QUERIES = [TRIANGLE, WEDGE, SQUARE, TAILED, EDGE]


def make_view(dg):
    return HostCPUView(dg, default_device(), AccessCounters())


class TestStaticMatching:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_matches_reference_on_random_graphs(self, query):
        for seed in (0, 1, 2):
            g = erdos_renyi(30, 4.0, num_labels=2, seed=seed)
            dg = DynamicGraph(g)
            plan = compile_static_plan(query)
            stats = match_static(plan, make_view(dg))
            assert stats.signed_count == count_embeddings(g, query)
            assert stats.embeddings_found == stats.signed_count

    def test_empty_graph(self):
        dg = DynamicGraph(StaticGraph.from_edges(4, []))
        stats = match_static(compile_static_plan(TRIANGLE), make_view(dg))
        assert stats.signed_count == 0

    def test_sink_receives_valid_embeddings(self):
        g = erdos_renyi(25, 5.0, num_labels=1, seed=7)
        dg = DynamicGraph(g)
        seen = []
        stats = match_static(
            compile_static_plan(TRIANGLE), make_view(dg),
            sink=lambda emb, sign: seen.append((emb, sign)),
        )
        assert len(seen) == stats.embeddings_found
        for emb, sign in seen:
            assert sign == 1
            u, v, w = emb
            assert v in g.neighbors(u) and w in g.neighbors(v) and w in g.neighbors(u)
        # embeddings are distinct vertex mappings
        assert len({e for e, _ in seen}) == len(seen)


class TestRoots:
    def test_delta_roots_label_filtering(self):
        g = StaticGraph.from_edges(4, [(0, 1)], np.array([0, 1, 0, 1]))
        dg = DynamicGraph(g)
        batch = UpdateBatch([(2, 3), (0, 2)], [1, 1])
        plan = compile_delta_plans(EDGE)[0]  # root labels (0, 1)
        roots, signs = delta_roots(plan, batch, dg.labels)
        # (2,3) matches as 2->0,3->1; (0,2) never matches labels (0,0)
        assert roots.tolist() == [[2, 3]]
        assert signs.tolist() == [1]

    def test_delta_roots_both_orientations_when_labels_allow(self):
        g = StaticGraph.from_edges(4, [(0, 1)], np.array([1, 1, 1, 1]))
        dg = DynamicGraph(g)
        batch = UpdateBatch([(2, 3)], [-1])
        plan = compile_delta_plans(QueryGraph(2, [(0, 1)], [1, 1]))[0]
        roots, signs = delta_roots(plan, batch, dg.labels)
        assert sorted(map(tuple, roots.tolist())) == [(2, 3), (3, 2)]
        assert signs.tolist() == [-1, -1]

    def test_static_roots_wildcard(self):
        g = erdos_renyi(10, 3.0, num_labels=3, seed=1)
        plan = compile_static_plan(WEDGE)
        roots, signs = static_roots(plan, g.edge_array(), g.labels)
        assert roots.shape[0] == 2 * g.num_edges
        assert bool(np.all(signs == 1))


class TestSingleEdgeQuery:
    def test_insert_and_delete_counts(self):
        g = StaticGraph.from_edges(4, [(0, 1), (2, 3)], np.array([0, 1, 0, 1]))
        dg = DynamicGraph(g)
        batch = UpdateBatch([(0, 3), (2, 3)], [1, -1])
        dg.apply_batch(batch)
        stats = match_batch(compile_delta_plans(EDGE), batch, make_view(dg))
        # inserted (0,3): labels 0-1 -> one orientation matches (+1)
        # deleted (2,3): labels 0-1 -> one orientation matches (-1)
        assert stats.signed_count == 0
        assert stats.embeddings_found == 2


class TestFilters:
    def test_candidate_filter_prunes(self):
        g = erdos_renyi(30, 5.0, num_labels=1, seed=9)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=8, seed=9)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        plans = compile_delta_plans(TRIANGLE)
        all_vertices = np.arange(30, dtype=np.int64)
        full = match_batch(plans, batches[0], make_view(dg),
                           filters={0: all_vertices, 1: all_vertices, 2: all_vertices})
        unfiltered = match_batch(plans, batches[0], make_view(dg))
        assert full.signed_count == unfiltered.signed_count
        # empty filter kills everything
        none = match_batch(plans, batches[0], make_view(dg),
                           filters={1: np.empty(0, dtype=np.int64)})
        assert none.signed_count == 0
        assert none.embeddings_found == 0


class TestAccounting:
    def test_counters_populated(self):
        g = erdos_renyi(40, 5.0, num_labels=1, seed=11)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=16, seed=11)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        counters = AccessCounters()
        view = ZeroCopyView(dg, default_device(), counters)
        stats = match_batch(compile_delta_plans(TRIANGLE), batches[0], view)
        assert counters.compute_ops > 0
        assert counters.total_access_count > 0
        assert counters.output_embeddings == stats.embeddings_found
        assert stats.roots_processed > 0
        assert stats.tree_nodes >= stats.roots_processed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_delta_equals_snapshot_difference(seed):
    """ΔM from the incremental plans == count(G_{k+1}) − count(G_k)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 26))
    g = erdos_renyi(n, 4.0, num_labels=2, seed=int(rng.integers(0, 2**31)))
    g0, batches = derive_stream(
        g, update_fraction=0.5, batch_size=int(rng.integers(2, 9)),
        seed=int(rng.integers(0, 2**31)),
    )
    query = ALL_QUERIES[seed % len(ALL_QUERIES)]
    plans = compile_delta_plans(query)
    dg = DynamicGraph(g0)
    prev = count_embeddings(g0, query)
    for batch in batches[:3]:
        dg.apply_batch(batch)
        stats = match_batch(plans, batch, make_view(dg))
        now = count_embeddings(dg.snapshot(), query)
        assert stats.signed_count == now - prev, (query.name, seed)
        prev = now
        dg.reorganize()
