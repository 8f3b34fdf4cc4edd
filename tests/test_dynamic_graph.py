"""Unit + property tests for the dynamic CPU-side store (paper Sec. V-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import BatchConflictError, DynamicGraph, StaticGraph, UpdateBatch
from repro.testing import merge_runs_reference
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream


def base_graph():
    # path 0-1-2-3 plus chord 0-2
    return StaticGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)], np.array([0, 1, 0, 1]))


class TestInsertions:
    def test_insert_appends_to_delta(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 3)], [1]))
        assert dg.delta_neighbors(0).tolist() == [3]
        assert dg.delta_neighbors(3).tolist() == [0]
        assert dg.neighbors_old(0).tolist() == [1, 2]
        base, delta = dg.neighbors_new_parts(0)
        assert base.tolist() == [1, 2] and delta.tolist() == [3]
        assert dg.neighbors_new(0).tolist() == [1, 2, 3]

    def test_delta_run_sorted(self):
        dg = DynamicGraph(StaticGraph.empty(6))
        dg.apply_batch(UpdateBatch([(0, 5), (0, 2), (0, 4)], [1, 1, 1]))
        assert dg.delta_neighbors(0).tolist() == [2, 4, 5]

    def test_edge_count_updated(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 3), (1, 3)], [1, 1]))
        assert dg.num_edges == 6

    def test_new_vertices_grow_store(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(2, 6)], [1], new_vertex_labels={6: 7, 5: 3}))
        assert dg.num_vertices == 7
        assert dg.label(6) == 7
        assert dg.label(5) == 3
        assert dg.label(4) == 0  # implicit new vertex gets default label
        assert dg.neighbors_new(6).tolist() == [2]
        assert dg.host_address.shape[0] == 7
        assert dg.device_address.shape[0] == 7

    def test_amortized_doubling(self):
        dg = DynamicGraph(StaticGraph.empty(2))
        n = 64
        for i in range(n):
            dg.apply_batch(UpdateBatch([(0, i + 2)], [1], new_vertex_labels={}))
            dg.reorganize()
        # O(log n) reallocations for vertex 0, not O(n)
        assert dg.realloc_count <= 4 * int(np.log2(n) + 2)


class TestDeletions:
    def test_delete_marks_negative_in_base(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 2)], [-1]))
        # N still sees the deleted edge; N' does not
        assert dg.neighbors_old(0).tolist() == [1, 2]
        base, delta = dg.neighbors_new_parts(0)
        assert base.tolist() == [1] and delta.size == 0
        assert not dg.has_edge_new(0, 2)
        assert dg.has_edge_new(0, 1)

    def test_delete_vertex_zero_neighbor(self):
        # the -(v+1) encoding must represent deletion of neighbor 0
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 1)], [-1]))
        assert dg.neighbors_old(1).tolist() == [0, 2]
        base, _ = dg.neighbors_new_parts(1)
        assert base.tolist() == [2]

    def test_delete_missing_edge_rejected(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(ValueError):
            dg.apply_batch(UpdateBatch([(1, 3)], [-1]))

    def test_degrees_old_new(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 2), (0, 3)], [-1, 1]))
        assert dg.degree_old(0) == 2
        assert dg.degree_new(0) == 2  # -1 +1
        assert dg.degree_old(3) == 1
        assert dg.degree_new(3) == 2


class TestReorganize:
    def test_reorganize_restores_sorted_invariant(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 2), (0, 3)], [-1, 1]))
        snap = dg.snapshot()
        stats = dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == snap
        assert stats.lists_touched == 3  # vertices 0, 2, 3 (vertex 0 touched twice)
        assert stats.deletions_dropped == 2  # both directions of (0,2)
        assert stats.insertions_merged == 2

    def test_batch_lifecycle_enforced(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(ValueError):
            dg.reorganize()
        dg.apply_batch(UpdateBatch([(0, 3)], [1]))
        with pytest.raises(ValueError):
            dg.apply_batch(UpdateBatch([(1, 3)], [1]))
        dg.reorganize()
        dg.apply_batch(UpdateBatch([(1, 3)], [1]))
        dg.reorganize()
        assert dg.num_edges == 6

    def test_snapshot_old_requires_open_batch(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(ValueError):
            dg.snapshot_old()


class TestConflictHardening:
    """Regression tests for the three real-world stream crashes/corruptions:
    same-batch insert+delete, duplicate insert, double delete."""

    def test_same_batch_insert_then_delete_nets_away(self):
        # regression: this batch used to crash _mark_deleted (the inserted
        # edge lives in the unsorted ΔN run, not the sorted base run)
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 3), (0, 3)], [1, -1]), mode="coalesce")
        assert len(eff) == 0
        assert dg.num_edges == 4
        assert dg.snapshot() == base_graph()
        dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == base_graph()

    def test_delete_out_of_delta_run_directly(self):
        # white-box: the ΔN-run delete path itself (an effective batch can
        # legitimately delete an edge a previous batch left in ΔN)
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 3), (1, 3)], [1, 1]))
        dg._mark_deleted(0, 3)
        dg._mark_deleted(3, 0)
        dg._num_edges -= 1
        assert dg.neighbors_new(0).tolist() == [1, 2]
        assert dg.neighbors_new(3).tolist() == [1, 2]
        dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == base_graph().with_edges(np.array([[1, 3]]))

    def test_duplicate_insert_is_idempotent_under_coalesce(self):
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 1), (1, 3)], [1, 1]), mode="coalesce")
        assert eff.edges.tolist() == [[1, 3]]
        assert dg.num_edges == 5  # exact: the duplicate did not double-count
        assert dg.neighbors_new(0).tolist() == [1, 2]  # no duplicate entry
        dg.reorganize()
        dg.check_invariants()

    def test_duplicate_insert_rejected_under_strict(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(BatchConflictError):
            dg.apply_batch(UpdateBatch([(0, 1)], [1]), mode="strict")
        # store untouched and still settled: the next batch applies cleanly
        assert dg.num_edges == 4
        dg.apply_batch(UpdateBatch([(1, 3)], [1]), mode="strict")
        dg.reorganize()
        dg.check_invariants()

    def test_double_delete_deduped_under_coalesce(self):
        # regression: the second delete of (0, 2) used to crash on the
        # already-marked base entry
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 2), (2, 0)], [-1, -1]), mode="coalesce")
        assert len(eff) == 1
        assert dg.num_edges == 3
        dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == base_graph().without_edges(np.array([[0, 2]]))

    def test_double_delete_diagnosed_under_strict(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(BatchConflictError, match="updated more than once"):
            dg.apply_batch(UpdateBatch([(0, 2), (0, 2)], [-1, -1]), mode="strict")
        assert dg.num_edges == 4

    def test_ignore_mode_keeps_first_occurrence(self):
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 2), (0, 2)], [-1, 1]), mode="ignore")
        assert eff.signs.tolist() == [-1]
        assert dg.num_edges == 3
        dg.reorganize()
        dg.check_invariants()

    def test_last_canonical_report_exposed(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 1), (1, 3)], [1, 1]), mode="coalesce")
        rep = dg.last_canonical_report
        assert rep is not None
        assert rep.duplicate_inserts == 1 and rep.new_inserts == 1


class TestVectorizedMerge:
    def test_merge_matches_scalar_reference(self):
        from repro.utils import merge_sorted

        rng = np.random.default_rng(0)
        for _ in range(50):
            pool = rng.choice(200, size=int(rng.integers(0, 40)), replace=False)
            split = int(rng.integers(0, pool.size + 1))
            kept = np.sort(pool[:split]).astype(np.int64)
            delta = np.sort(pool[split:]).astype(np.int64)
            assert merge_sorted(kept, delta).tolist() == \
                merge_runs_reference(kept, delta).tolist()


class TestSnapshots:
    def test_snapshot_old_equals_initial(self):
        g = erdos_renyi(60, 4.0, seed=7)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=16, seed=7)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        assert dg.snapshot_old() == g0

    def test_replay_stream_matches_incremental_application(self):
        g = erdos_renyi(60, 4.0, seed=11)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=8, seed=11)
        dg = DynamicGraph(g0)
        expected = g0
        for batch in batches:
            expected = expected.with_edges(batch.insert_edges()).without_edges(batch.delete_edges())
            dg.apply_batch(batch)
            assert dg.snapshot() == expected
            dg.reorganize()
            dg.check_invariants()
            assert dg.snapshot() == expected
            assert dg.num_edges == expected.num_edges


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_random_batches_roundtrip(seed):
    """For random graphs and random signed batches, snapshot(old/new) always
    matches independent edge-set arithmetic and reorganize() is a no-op on
    the logical graph."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 25))
    g = erdos_renyi(n, 3.0, seed=int(rng.integers(0, 2**31)))
    dg = DynamicGraph(g)
    current = g
    for _ in range(3):
        edges = current.edge_array()
        dels = []
        if edges.shape[0]:
            k = int(rng.integers(0, min(4, edges.shape[0]) + 1))
            if k:
                dels = edges[rng.choice(edges.shape[0], size=k, replace=False)].tolist()
        ins = []
        for _ in range(int(rng.integers(0, 4))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and not current.has_edge(u, v):
                if (min(u, v), max(u, v)) not in {tuple(sorted(e)) for e in ins}:
                    ins.append((u, v))
        updates = [(e, -1) for e in dels] + [(e, 1) for e in ins]
        if not updates:
            continue
        batch = UpdateBatch([e for e, _ in updates], [s for _, s in updates])
        dg.apply_batch(batch)
        assert dg.snapshot_old() == current
        current = current.without_edges(np.array(dels).reshape(-1, 2)).with_edges(
            np.array(ins).reshape(-1, 2)
        )
        assert dg.snapshot() == current
        dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == current
