"""The store as one slab: windows of one pool, one bulk read, one bulk write.

No per-vertex Python on the batch path (a call count that does not move with
the batch), a set model driven through window overflows, moves under live
freezes, pool replacements and compactions, the frozen-epoch rule across
compactions, the flat ``packed_runs`` block, and ``check_invariants`` shown
to reject each corruption it exists for.
"""

import numpy as np
import pytest

from repro.graphs import DynamicGraph, StaticGraph, UpdateBatch
from repro.graphs import dynamic_graph as store_module
from repro.graphs.generators import erdos_renyi
from repro.testing import count_calls
from tests.test_dynamic_graph import TestBulkWriteSide, adjacency

mixed_batch = TestBulkWriteSide.mixed_batch  # half deletes of present edges, half fresh inserts


class TestNoPerVertexPython:
    @pytest.mark.parametrize("held", [False, True], ids=["in-place", "freeze-held"])
    def test_batch_path_call_count_does_not_grow_with_the_batch(self, held):
        g = erdos_renyi(4000, 12.0, seed=3)
        counts = {}
        for size in (32, 1024):
            store = DynamicGraph(g)
            batch = mixed_batch(g, size, np.random.default_rng(size))
            if held:
                store.freeze()  # every touched list now moves before it is written
            pool = store._pool

            def batch_path():
                store.apply_batch(batch)
                touched = np.array(sorted(store.touched_vertices))
                store.gather(np.tile(touched, 2), np.repeat([True, False], touched.size))
                store.packed_runs(touched)
                store.reorganize()
                store.freeze()

            counts[size] = count_calls(batch_path)
            # both sizes took the same branches: no window overflowed, the
            # pool was neither replaced nor compacted
            assert store.realloc_count == 0 and store._pool is pool
            assert (store._dead > 0) == held
            store.check_invariants()
        # at the parent: >= 3 more per touched vertex
        assert counts[32] == counts[1024]

    def test_construction_call_count_does_not_grow_with_the_graph(self):
        small, large = (erdos_renyi(n, 6.0, seed=1) for n in (200, 2000))
        assert count_calls(lambda: DynamicGraph(small)) == count_calls(
            lambda: DynamicGraph(large)
        )

    def test_update_path_builds_no_epoch(self, monkeypatch):
        # at the parent the store probed a settled arena and merged in an
        # open one: two O(n) table builds per batch on a bare store
        g = erdos_renyi(300, 8.0, seed=2)
        store = DynamicGraph(g)
        builds = []
        real = store_module._Epoch.build
        monkeypatch.setattr(
            store_module._Epoch, "build",
            lambda self, *tables: (builds.append(1), real(self, *tables))[1],
        )
        for seed in range(3):
            store.apply_batch(mixed_batch(store.snapshot(), 64, np.random.default_rng(seed)))
            store.reorganize()
        assert not builds
        store.degrees_new()  # the instrument works: a reader does build one
        assert builds == [1]


# ----------------------------------------------------------------------
# set model
# ----------------------------------------------------------------------
def lists_of(view, old):
    """Every list of ``view`` in one version, through the scalar accessors
    and through ``gather`` + ``arena``; the two must agree."""
    verts = np.arange(view.num_vertices)
    one = view.neighbors_old if old else view.neighbors_new
    scalar = [one(v).tolist() for v in verts.tolist()]
    starts, lens = view.gather(verts, old)
    flat = view.arena
    assert [flat[s : s + k].tolist() for s, k in zip(starts.tolist(), lens.tolist())] == scalar
    return scalar


class SlabEvents:
    """Counts what the allocator did, from outside: wraps ``_move`` and
    ``_lay_out`` of one store."""

    def __init__(self, store, monkeypatch):
        self.moves_under_freeze = self.replacements = self.compactions = 0
        move, lay_out = store._move, store._lay_out

        def counting_move(vertices, cap, keep):
            pool = store._pool
            self.moves_under_freeze += bool(store._seen(vertices).any())
            move(vertices, cap, keep)
            self.replacements += store._pool is not pool

        def counting_lay_out(block):
            self.compactions += 1
            lay_out(block)

        monkeypatch.setattr(store, "_move", counting_move)
        monkeypatch.setattr(store, "_lay_out", counting_lay_out)


def run_slab_model(seed, freeze_rate, monkeypatch):
    """48 steps of apply / gather / reorganize / freeze / release against a
    model made of Python sets; returns the allocator events it caused."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 41))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {pairs[i] for i in rng.choice(len(pairs), size=min(len(pairs), 2 * n), replace=False)}
    store = DynamicGraph(StaticGraph.from_edges(n, sorted(edges), np.zeros(n, dtype=np.int64)))
    events = SlabEvents(store, monkeypatch)
    held = []  # (view, N of every vertex, N' of every vertex)
    before = edges  # the pre-batch edge set while a batch is open

    def check():
        store.check_invariants()
        assert lists_of(store, False) == adjacency(edges, n)
        if store.batch_open:
            assert lists_of(store, True) == adjacency(before, n)
        for view, want_old, want_new in held:
            assert lists_of(view, True) == want_old and lists_of(view, False) == want_new

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
            before = set(edges)
            effective = store.apply_batch(batch, mode="coalesce")
            for (u, v), sign in zip(effective.edges.tolist(), effective.signs.tolist()):
                (edges.add if sign > 0 else edges.discard)((min(u, v), max(u, v)))
            n = store.num_vertices
        check()
        if rng.random() < freeze_rate:
            held.append((store.freeze(), adjacency(before, n), adjacency(edges, n)))
            check()
        while held and (len(held) > 3 or rng.random() < 0.15):
            held.pop(int(rng.integers(0, len(held))))[0].release()
            check()
    for view, _, _ in held:
        view.release()
    assert store._active_freezes == 0
    return np.array([store.realloc_count, events.moves_under_freeze,
                     events.replacements, events.compactions])


def test_slab_model_against_python_sets(monkeypatch):
    # the runs differ in how eagerly they freeze: the quiet ones grow in
    # place until the pool is replaced, the eager ones move lists until it
    # compacts; together they must exercise the whole allocator
    totals = sum(
        run_slab_model(seed, rate, monkeypatch)
        for seed, rate in enumerate((0.0, 0.2, 0.5, 0.9))
    )
    overflows, moves_under_freeze, replacements, compactions = totals.tolist()
    assert overflows and moves_under_freeze and replacements and compactions, totals


class TestFrozenEpochRule:
    def test_view_of_an_open_batch_survives_two_compactions(self, monkeypatch):
        g = erdos_renyi(40, 5.0, seed=7)
        store = DynamicGraph(g)
        events = SlabEvents(store, monkeypatch)
        rng = np.random.default_rng(7)
        store.apply_batch(mixed_batch(g, 24, rng))
        want = {old: lists_of(store, old) for old in (True, False)}
        assert want[True] != want[False]
        frozen = store.freeze()
        store.reorganize()
        pools = {id(store._pool)}
        while events.compactions < 2:
            # a fresh freeze every batch: every touched list moves, twice
            with store.freeze():
                store.apply_batch(mixed_batch(store.snapshot(), 24, rng))
            with store.freeze():
                store.reorganize()
            pools.add(id(store._pool))
            store.check_invariants()
        assert len(pools) >= 3 and frozen._pool is not store._pool
        # read through a cold arena of its own: the view's pool and tables
        frozen._epoch = store_module._Epoch()
        assert {old: lists_of(frozen, old) for old in (True, False)} == want
        assert frozen.batch_open and not store.batch_open
        frozen.release()
        assert store._active_freezes == 0


class TestPackedRuns:
    def test_block_is_the_raw_runs_end_to_end(self):
        g = erdos_renyi(60, 6.0, seed=4)
        store = DynamicGraph(g)
        store.apply_batch(mixed_batch(g, 40, np.random.default_rng(4)))
        for vs in (np.arange(60), np.array([], dtype=np.int64), np.array([59, 3, 3, 17])):
            base_len, total_len, block = store.packed_runs(vs)
            raw = [store.packed_run_raw(v) for v in vs.tolist()]
            assert block.tolist() == [x for run in raw for x in run.tolist()]
            assert total_len.tolist() == [run.size for run in raw]
            assert base_len.tolist() == [store.base_run_raw(v).size for v in vs.tolist()]
        assert (block < 0).any()  # marks travel intact
        block[:] = 0  # a copy: the pool is not exposed
        store.check_invariants()


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
        store.base_run_raw(2)[:2] = store.base_run_raw(2)[1::-1].copy()
        self.rejects(store, "base run of 2 not strictly sorted")

    def test_unsorted_delta_run(self):
        store = self.open_store()
        store.delta_neighbors(1)[:] = [4, 3]
        self.rejects(store, "delta run of 1 not strictly sorted")

    def test_delta_entry_duplicating_a_base_neighbour(self):
        store = self.open_store()
        store.delta_neighbors(1)[0] = 0  # 0 survives in the base run of 1
        self.rejects(store, "delta run of 1 duplicates base neighbors")

    def test_marks_off_by_one(self):
        store = self.open_store()
        store._marks[2] += 1
        self.rejects(store, "deletion-mark count of 2 out of step")

    def test_mark_left_after_reorganize(self):
        store = self.open_store()
        store.reorganize()
        store.check_invariants()
        run = store.base_run_raw(3)
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
