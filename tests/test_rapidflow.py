"""Tests for the RapidFlow-style CPU baseline (paper Fig. 14): the engine's
``indexed`` placement."""

import hashlib

import numpy as np
import pytest

from repro.core import rapidflow
from repro.core.baselines import make_system
from repro.core.rapidflow import IndexMemoryError
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.query import QueryGraph
from repro.testing.reference import count_embeddings

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
TAILED = QueryGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 1, 1], name="tailed")


def RapidFlowSystem(graph, query, **settings):
    return make_system("RapidFlow", graph, query, **settings)


class TestCandidateIndex:
    def test_candidates_filtered_by_label_and_degree(self):
        g = erdos_renyi(60, 5.0, num_labels=2, seed=1)
        sys = RapidFlowSystem(g, TAILED)
        degrees = sys.graph.degrees_new()
        labels = sys.graph.labels
        for u in range(TAILED.num_vertices):
            cand = sys.placement.candidates[u]
            assert bool(np.all(degrees[cand] >= TAILED.degree(u)))
            assert bool(np.all(labels[cand] == TAILED.label(u)))

    def test_index_bytes_positive_and_grows_with_graph(self):
        small = RapidFlowSystem(erdos_renyi(40, 4.0, seed=2), TRIANGLE)
        big = RapidFlowSystem(erdos_renyi(400, 4.0, seed=2), TRIANGLE)
        assert 0 < small.placement.index_bytes < big.placement.index_bytes

    def test_oom_on_large_graph(self, monkeypatch):
        """The paper's Sec. VI-C observation: index exhausts memory on the
        large graphs, so Fig. 14 only covers AZ and LJ."""
        g = powerlaw_graph(5000, 20.0, max_degree=300, num_labels=1, seed=3)
        monkeypatch.setattr(rapidflow, "DEFAULT_MEMORY_BUDGET_BYTES", 100_000)
        with pytest.raises(IndexMemoryError):
            RapidFlowSystem(g, TRIANGLE)

    def test_oom_during_maintenance(self):
        g = erdos_renyi(100, 4.0, num_labels=1, seed=4)
        g0, batches = derive_stream(g, update_fraction=0.5, batch_size=50, seed=4)
        sys = RapidFlowSystem(g0, TRIANGLE)
        # shrink the budget well below the index size after construction
        sys.placement.memory_budget_bytes = sys.placement.index_bytes // 2
        with pytest.raises(IndexMemoryError):
            sys.process_batch(batches[0])


class TestCorrectness:
    @pytest.mark.parametrize("query", [TRIANGLE, TAILED], ids=lambda q: q.name)
    def test_stream_matches_oracle(self, query):
        g = erdos_renyi(50, 5.0, num_labels=2, seed=5)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=12, seed=5)
        sys = RapidFlowSystem(g0, query)
        prev = count_embeddings(g0, query)
        for batch in batches[:4]:
            r = sys.process_batch(batch)
            now = count_embeddings(sys.snapshot(), query)
            assert r.delta_count == now - prev
            prev = now

    def test_index_maintained_across_batches(self):
        g = erdos_renyi(60, 5.0, num_labels=2, seed=6)
        g0, batches = derive_stream(g, update_fraction=0.5, batch_size=20, seed=6)
        sys = RapidFlowSystem(g0, TAILED)
        for batch in batches[:3]:
            sys.process_batch(batch)
        # post-hoc: candidates still consistent with the settled graph
        degrees = sys.graph.degrees_new()
        labels = sys.graph.labels
        for u in range(TAILED.num_vertices):
            cand = sys.placement.candidates[u]
            assert bool(np.all(labels[cand] == TAILED.label(u)))
            # union-degree maintenance may retain slightly stale entries but
            # must never *miss* a valid candidate (soundness)
            valid = np.nonzero(
                (degrees >= TAILED.degree(u)) & (labels == TAILED.label(u))
            )[0]
            assert set(valid.tolist()) <= set(cand.tolist())


class TestOrderOptimization:
    def test_orders_bind_scarce_vertices_early(self):
        # make label 1 very rare -> query vertices labeled 1 have small C(u)
        labels = np.zeros(60, dtype=np.int64)
        labels[:3] = 1
        g = erdos_renyi(60, 6.0, num_labels=1, seed=7)
        from repro.graphs import StaticGraph

        g = StaticGraph(g.indptr, g.indices, labels)
        query = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 0, 0, 1])
        sys = RapidFlowSystem(g, query)
        assert sys.placement.candidates[3].size < sys.placement.candidates[0].size
        for plan in sys.plans:
            order = plan.order
            # vertex 3 (scarce) appears as early as connectivity permits:
            # never later than any equally-connectable abundant vertex chosen
            # at its selection point; weak but meaningful check: it is not
            # always last unless it is a root-edge constraint issue
            if 3 not in order[:2]:
                assert order.index(3) <= len(order) - 1
        # at least one plan binds the scarce vertex before position 3
        assert any(p.order.index(3) < 3 for p in sys.plans if 3 not in p.order[:2])

    def test_plans_cover_all_edges(self):
        g = erdos_renyi(50, 5.0, num_labels=2, seed=8)
        sys = RapidFlowSystem(g, TAILED)
        assert len(sys.plans) == TAILED.num_edges
        for i, plan in enumerate(sys.plans):
            covered = [c.edge_index for lvl in plan.levels for c in lvl.constraints]
            covered.append(TAILED.edge_index(*plan.order[:2]))
            assert sorted(covered) == list(range(TAILED.num_edges))
            assert plan.delta_index == i

    #: candidate-aware orders and a digest of every plan's signature, order,
    #: root edge and delta index on AZ, recorded when RapidFlow compiled its
    #: plans with a private copy of the plan compiler's per-edge loop
    AZ_PLANS = {
        "Q1": (
            [(0, 1, 4, 3, 2), (1, 2, 4, 0, 3), (2, 3, 1, 0, 4), (0, 3, 4, 1, 2),
             (0, 4, 1, 3, 2), (1, 4, 0, 3, 2)],
            "0512a7d06c041725",
        ),
        "Q2": (
            [(0, 1, 4, 3, 2), (1, 2, 3, 4, 0), (2, 3, 1, 4, 0), (3, 4, 2, 1, 0),
             (0, 4, 1, 3, 2), (1, 3, 2, 4, 0)],
            "c33a86ef6350de9b",
        ),
        "Q3": (
            [(0, 1, 2, 3, 5, 4), (1, 2, 0, 3, 5, 4), (0, 2, 1, 3, 5, 4), (2, 3, 5, 4, 1, 0),
             (3, 4, 5, 2, 1, 0), (4, 5, 3, 2, 1, 0), (3, 5, 4, 2, 1, 0)],
            "a8c656b3cad61436",
        ),
        "Q4": (
            [(0, 1, 3, 4, 5, 2), (1, 2, 3, 0, 4, 5), (2, 3, 1, 0, 4, 5), (3, 4, 1, 0, 5, 2),
             (4, 5, 1, 0, 3, 2), (0, 5, 1, 4, 3, 2), (0, 3, 1, 4, 5, 2),
             (1, 4, 3, 0, 5, 2)],
            "8f2becefcd837f95",
        ),
        "Q5": (
            [(0, 1, 2, 4, 3, 6, 5), (1, 2, 0, 4, 3, 6, 5), (0, 2, 1, 4, 3, 6, 5),
             (2, 3, 4, 1, 0, 6, 5), (3, 4, 2, 1, 0, 6, 5), (2, 4, 3, 1, 0, 6, 5),
             (4, 5, 6, 2, 3, 1, 0), (4, 6, 5, 2, 3, 1, 0), (5, 6, 4, 2, 3, 1, 0)],
            "29fc5389f3a72032",
        ),
        "Q6": (
            [(0, 1, 3, 2, 4, 6, 5), (1, 2, 4, 3, 0, 6, 5), (2, 3, 4, 1, 0, 6, 5),
             (0, 3, 4, 2, 1, 6, 5), (2, 4, 3, 1, 0, 6, 5), (3, 4, 2, 1, 0, 6, 5),
             (4, 5, 6, 3, 2, 1, 0), (5, 6, 4, 3, 2, 1, 0), (4, 6, 5, 3, 2, 1, 0)],
            "845ab23984e470fc",
        ),
    }

    def test_plans_pinned_on_az(self):
        from repro.bench.harness import build_workload
        from repro.query import query_by_name
        from repro.query.plan import level_signature, root_signature

        g0, _ = build_workload("AZ", seed=0)
        for name, (orders, digest) in self.AZ_PLANS.items():
            plans = RapidFlowSystem(g0, query_by_name(name)).plans
            assert [p.order for p in plans] == orders, name
            sig = repr([((root_signature(p), tuple(map(level_signature, p.levels))),
                         p.order, p.order[:2], p.delta_index) for p in plans])
            assert hashlib.sha256(sig.encode()).hexdigest()[:16] == digest, name
