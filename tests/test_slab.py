"""The store as one slab: windows of one pool, one bulk read, one bulk write.

No per-vertex Python on the batch path (a call count that does not move with
the batch), a set model driven through window overflows and pool
replacements, the flat ``packed_runs`` block, the 4-byte slab behind a wide
read, and ``check_invariants`` shown to reject each corruption it exists for.
"""

import numpy as np
import pytest

from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.graphs import DynamicGraph, StaticGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi
from repro.testing import count_calls, neighbors_new, neighbors_old, stored_runs
from repro.utils import VERTEX_DTYPE
from tests.test_dynamic_graph import TestBulkWriteSide, adjacency

mixed_batch = TestBulkWriteSide.mixed_batch  # half deletes of present edges, half fresh inserts


class TestNoPerVertexPython:
    def test_batch_path_call_count_does_not_grow_with_the_batch(self):
        g = erdos_renyi(4000, 12.0, seed=3)
        counts = {}
        for size in (32, 1024):
            store = DynamicGraph(g)
            batch = mixed_batch(g, size, np.random.default_rng(size))
            pool, cap = store._pool, store._cap.copy()

            def batch_path():
                store.apply_batch(batch)
                touched = np.array(sorted(store.touched_vertices))
                store.operands(np.tile(touched, 2), np.repeat([True, False], touched.size))
                store.packed_runs(touched)
                store.reorganize()

            counts[size] = count_calls(batch_path)
            # both sizes took the same branches: windows hold their runs
            # exactly, so every list the batch inserts into moved, and the
            # pool's reserve took the moves (never replaced nor compacted)
            assert (store._cap > cap).any() and store._pool is pool
            store.check_invariants()
        # at the parent: >= 3 more per touched vertex
        assert counts[32] == counts[1024]

    def test_construction_call_count_does_not_grow_with_the_graph(self):
        small, large = (erdos_renyi(n, 6.0, seed=1) for n in (200, 2000))
        assert count_calls(lambda: DynamicGraph(small)) == count_calls(
            lambda: DynamicGraph(large)
        )


# ----------------------------------------------------------------------
# set model
# ----------------------------------------------------------------------
def lists_of(view, old):
    """Every list of ``view`` in one version, through the per-vertex slab
    decode of ``repro.testing``, through the bulk ``read`` and through a
    launch's ``operands``; the three must agree."""
    verts = np.arange(view.num_vertices)
    one = neighbors_old if old else neighbors_new
    scalar = [one(view, v).tolist() for v in verts.tolist()]
    block, lens = view.read(verts, old)
    bounds = np.cumsum(lens).tolist()
    assert [block[e - k : e].tolist() for e, k in zip(bounds, lens.tolist())] == scalar
    block, _, starts, lens = view.operands(verts, old)
    assert [block[s : s + k].tolist() for s, k in zip(starts.tolist(), lens.tolist())] == scalar
    return scalar


def run_slab_model(seed):
    """48 steps of apply / read / reorganize against a model made of Python
    sets; returns ``(windows outgrown, pools replaced, empty windows grown)``.
    The pool is never compacted, so its tail is checked against twice the
    live windows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 41))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {pairs[i] for i in rng.choice(len(pairs), size=min(len(pairs), 2 * n), replace=False)}
    store = DynamicGraph(StaticGraph.from_edges(n, sorted(edges), np.zeros(n, dtype=np.int64)))
    moves = replacements = emptied = 0
    before = edges  # the pre-batch edge set while a batch is open
    for _ in range(48):
        if store.batch_open:
            store.reorganize()
            before = edges
        else:
            grown = n + int(rng.integers(0, 3))  # new vertices arrive
            us, vs = rng.integers(0, grown, size=(2, int(rng.integers(1, 3 * n))))
            batch = UpdateBatch(
                np.stack([us, vs], axis=1)[us != vs],
                rng.choice([1, 1, 1, -1], size=int((us != vs).sum())),
            )
            before, pool, empty = set(edges), store._pool, np.flatnonzero(store._cap == 0)
            cap = store._cap.copy()
            effective = store.apply_batch(batch, mode="coalesce")
            moves += int(np.count_nonzero(store._cap[: cap.size] > cap))  # a move only grows
            replacements += store._pool is not pool
            emptied += int((store._cap[empty] > 0).sum())
            for (u, v), sign in zip(effective.edges.tolist(), effective.signs.tolist()):
                (edges.add if sign > 0 else edges.discard)((min(u, v), max(u, v)))
            n = store.num_vertices
        store.check_invariants()
        assert store._tail < 2 * store._cap.sum()  # dead windows never outweigh live ones
        assert lists_of(store, False) == adjacency(edges, n)
        if store.batch_open:
            assert lists_of(store, True) == adjacency(before, n)
    return np.array([moves, replacements, emptied])


def test_slab_model_against_python_sets():
    # together the runs must exercise the whole allocator: windows outgrown,
    # isolated vertices' empty windows among them, and the pool replaced
    overflows, replacements, emptied = sum(run_slab_model(seed) for seed in range(4)).tolist()
    assert overflows and replacements and emptied, (overflows, replacements, emptied)


class TestWindowsStartAsTheCsr:
    """A fresh store is its graph's CSR, narrowed: each window holds its run
    exactly, and only a list that receives inserts moves to a larger one."""

    def test_a_fresh_store_holds_the_csr_verbatim(self):
        # 3, 5, 6 and 8 are isolated
        g = StaticGraph.from_edges(9, [(0, 1), (0, 4), (1, 4), (2, 4), (4, 7)])
        store = DynamicGraph(g)
        assert store._pool[: g.indices.size].tolist() == g.indices.tolist()
        assert store._offset.tolist() == g.indptr[:-1].tolist()
        assert store._cap.tolist() == g.degrees().tolist()
        assert store._tail == g.indices.size
        store.check_invariants()

    def test_an_isolated_vertex_grows_out_of_its_empty_window(self):
        g = StaticGraph.from_edges(6, [(0, 1), (1, 2), (4, 5)])  # 3 isolated, window at 4's
        store = DynamicGraph(g)
        assert store._cap[3] == 0 and store._offset[3] == store._offset[4]
        edges = {(0, 1), (1, 2), (4, 5)}
        for batch in ([(3, 0)], [(3, 2), (3, 5)], [(3, 4), (1, 3)]):
            cap = store._cap[3]
            store.apply_batch(UpdateBatch(batch, [1] * len(batch)))
            store.check_invariants()
            assert store._cap[3] > cap  # 3's list moved to a larger window
            assert lists_of(store, True) == adjacency(edges, 6)
            edges |= {(min(e), max(e)) for e in batch}
            assert lists_of(store, False) == adjacency(edges, 6)
            store.reorganize()
            store.check_invariants()
            assert lists_of(store, False) == adjacency(edges, 6)
        assert store._cap[3] >= 5 and store._tail < 2 * store._cap.sum()

    def test_a_list_that_only_loses_edges_stays_in_place(self):
        g = erdos_renyi(50, 6.0, seed=5)
        store = DynamicGraph(g)
        offset, cap = store._offset.copy(), store._cap.copy()
        store.apply_batch(UpdateBatch(g.edge_array()[:10], -np.ones(10, dtype=np.int64)))
        store.reorganize()
        store.check_invariants()
        assert np.array_equal(store._offset, offset) and np.array_equal(store._cap, cap)


class TestPackedRuns:
    def test_block_is_the_raw_runs_end_to_end(self):
        g = erdos_renyi(60, 6.0, seed=4)
        store = DynamicGraph(g)
        store.apply_batch(mixed_batch(g, 40, np.random.default_rng(4)))
        for vs in (np.arange(60), np.array([], dtype=np.int64), np.array([59, 3, 3, 17])):
            base_len, total_len, block = store.packed_runs(vs)
            runs = [stored_runs(store, v) for v in vs.tolist()]
            assert block.tolist() == [x for pair in runs for run in pair for x in run.tolist()]
            assert total_len.tolist() == [base.size + delta.size for base, delta in runs]
            assert base_len.tolist() == [base.size for base, _ in runs]
        assert (block < 0).any()  # marks travel intact
        block[:] = 0  # a copy: the pool is not exposed
        store.check_invariants()


def check_handed_out_dtypes():
    """Every array the store hands out is ``VERTEX_DTYPE``, whatever the slab
    holds: both versions of lists with marks and ``ΔN`` runs, the raw runs,
    a launch's operands and their keys, and the exports."""
    g = erdos_renyi(60, 6.0, seed=4)
    store = DynamicGraph(g)
    store.apply_batch(mixed_batch(g, 40, np.random.default_rng(4)))
    assert store._marks.any() and (store._total_len > store._base_len).any()
    vs = np.arange(store.num_vertices)
    handed = {
        "read N": store.read(vs, True)[0],
        "read N'": store.read(vs, False)[0],
        "read mixed": store.read(vs, vs % 2 == 0)[0],
        "packed_runs": store.packed_runs(vs)[2],
        "csr_new": store.csr_new()[1],
        "edges_new_array": store.edges_new_array(),
        "snapshot": store.snapshot().indices,
    }
    block, keys, _, _ = store.operands(np.tile(vs, 2), np.repeat([True, False], vs.size))
    handed.update(operands=block, operand_keys=keys)
    narrow = {name: str(a.dtype) for name, a in handed.items() if a.dtype != VERTEX_DTYPE}
    assert not narrow, narrow


class TestFourByteSlab:
    """The slab holds what the cost model prices; every reader gets ids wide
    enough for key arithmetic; an id the slab cannot hold never reaches it."""

    def test_a_slab_entry_is_the_bytes_of_a_priced_neighbour(self):
        store = DynamicGraph(erdos_renyi(30, 4.0, seed=0))
        assert store._pool.itemsize == BYTES_PER_NEIGHBOR

    def test_every_array_handed_out_is_wide(self):
        check_handed_out_dtypes()

    def test_an_id_past_the_slab_is_refused_before_any_write(self, monkeypatch):
        store = DynamicGraph(erdos_renyi(20, 3.0, seed=1))
        pool, tables = store._pool.copy(), store._tables.copy()

        def grow(*_):  # a table growth sized by the id would take gigabytes
            raise AssertionError("reached a table growth")

        monkeypatch.setattr(DynamicGraph, "_grow_vertices", grow)
        with pytest.raises(ValueError, match="overflow"):
            store.apply_batch(UpdateBatch([(0, 2**31 - 1)], [1]))
        assert store._pool.tobytes() == pool.tobytes()
        assert store._tables.tobytes() == tables.tobytes()
        assert not store.batch_open


class TestInvariantsBite:
    """Each corruption ``check_invariants`` exists for is rejected, and the
    message names the vertex."""

    @staticmethod
    def open_store():
        # path 0-1-2-3-4 plus chord 0-2; the batch deletes (1, 2), inserts (1, 3), (1, 4)
        g = StaticGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        store = DynamicGraph(g)
        store.apply_batch(UpdateBatch([(1, 2), (1, 3), (1, 4)], [-1, 1, 1]))
        store.check_invariants()
        return store

    def rejects(self, store, message):
        with pytest.raises(ValueError, match=message):
            store.check_invariants()

    def test_unsorted_base_run(self):
        store = self.open_store()
        base, _ = stored_runs(store, 2)
        base[:2] = base[1::-1].copy()
        self.rejects(store, "base run of 2 not strictly sorted")

    def test_unsorted_delta_run(self):
        store = self.open_store()
        stored_runs(store, 1)[1][:] = [4, 3]
        self.rejects(store, "delta run of 1 not strictly sorted")

    def test_delta_entry_duplicating_a_base_neighbour(self):
        store = self.open_store()
        stored_runs(store, 1)[1][0] = 0  # 0 survives in the base run of 1
        self.rejects(store, "delta run of 1 duplicates base neighbors")

    def test_marks_off_by_one(self):
        store = self.open_store()
        store._marks[2] += 1
        self.rejects(store, "deletion-mark count of 2 out of step")

    def test_mark_left_after_reorganize(self):
        store = self.open_store()
        store.reorganize()
        store.check_invariants()
        run, _ = stored_runs(store, 3)
        run[0] = -(run[0] + 1)  # order-preserving under decode, like a real mark
        store._marks[3] = 1
        self.rejects(store, "closed batch but deletion mark at 3")

    def test_num_edges_off_by_one(self):
        store = self.open_store()
        store._num_edges += 1
        self.rejects(store, "num_edges=7 inconsistent with adjacency")

    def test_two_live_windows_overlapping(self):
        store = self.open_store()
        store._offset[4] = store._offset[3] + 1
        self.rejects(store, "window of 4 overlaps another live window")

    def test_window_past_the_tail(self):
        store = self.open_store()
        store._offset[0] = store._tail - 1
        self.rejects(store, "run lengths of 0 out of bounds")
