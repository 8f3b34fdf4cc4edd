"""The store's versioned length tables and a launch's one operand read.

Exactness (``DynamicGraph.operands`` serves the same lists the per-vertex
slab decode of ``repro.testing`` does, on dirty streams, each distinct list
once), the tables kept exact by every mutation, and the same reads serving a
fleet's shards and the pipelined schedule alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import make_system
from repro.core.engine import GCSMEngine
from repro.graphs.datasets import DATASETS
from repro.graphs.dynamic_graph import DynamicGraph, keyed_contains, rank_keys
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import UpdateBatch, derive_stream, generate_adversarial_stream
from repro.gpu.counters import AccessCounters
from repro.gpu.device import default_device
from repro.gpu.memory import HostMemoryLayout
from repro.gpu.views import UnifiedMemoryView
from repro.query import QueryGraph
from repro.query.catalog import query_by_name
from repro.query.plan import EdgeVersion
from repro.testing import (
    neighbors_new, neighbors_old, segmented_contains, stored_runs, versioned_runs,
)
from repro.testing.kernels import _merge_runs
from repro.testing.validation import _counters_equal

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


def degrees_old(graph):
    """Pre-batch degrees: the base runs' lengths."""
    return graph.run_lengths(np.arange(graph.num_vertices))[0]


def inserts(*edges):
    return UpdateBatch(np.array(edges), np.ones(len(edges), dtype=np.int64))


def deletes(*edges):
    return UpdateBatch(np.array(edges), -np.ones(len(edges), dtype=np.int64))


def expected_list(graph, v, version):
    return _merge_runs(versioned_runs(graph, v, version))


def assert_operands_exact(graph):
    """Every vertex, both versions, each asked twice: every operand's segment
    == the merged store runs and its keys the segment's rank keys; the block
    holds each distinct list once."""
    verts = np.arange(graph.num_vertices, dtype=np.int64)
    n = verts.size
    for version in (EdgeVersion.OLD, EdgeVersion.NEW):
        block, keys, starts, lens = graph.operands(np.tile(verts, 2), version is EdgeVersion.OLD)
        assert keys.size == block.size == int(lens[:n].sum())  # one int64 per element
        assert np.array_equal(starts[:n], starts[n:]) and np.array_equal(lens[:n], lens[n:])
        for v in verts.tolist():
            want = expected_list(graph, v, version)
            got = block[starts[v] : starts[v] + lens[v]]
            assert got.tolist() == want.tolist(), (v, version)
            ranked = keys[starts[v] : starts[v] + lens[v]]
            assert ranked.tolist() == (starts[v] * graph.num_vertices + got).tolist()
    assert degrees_old(graph).tolist() == [neighbors_old(graph, v).size for v in verts.tolist()]
    assert graph.degrees_new().tolist() == [neighbors_new(graph, v).size for v in verts.tolist()]


def both_versions(vertices):
    """``(vertices, old)`` asking every vertex's ``N``, then its ``N'``."""
    return np.tile(vertices, 2), np.repeat([True, False], vertices.size)


class TestArenaExactness:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), mode=st.sampled_from(["coalesce", "ignore"]))
    def test_matches_merged_runs_on_adversarial_streams(self, seed, mode):
        g0 = erdos_renyi(24, 4.0, num_labels=2, seed=seed)
        graph = DynamicGraph(g0)
        assert_operands_exact(graph)  # the settled store: everything untouched
        for batch in generate_adversarial_stream(
            g0, num_batches=3, batch_size=12, seed=seed
        ):
            graph.apply_batch(batch, mode=mode)
            assert_operands_exact(graph)
            graph.check_invariants()
            graph.reorganize()
            assert_operands_exact(graph)

    def test_hand_built_corner_cases(self):
        # triangle 0-1-2, 3 isolated; the batch deletes inside a base run (1 is
        # touched by a delete only), inserts beside it, and creates 4 and 5
        g0 = erdos_renyi(4, 0.0, num_labels=1, seed=0)
        graph = DynamicGraph(g0)
        graph.apply_batch(inserts((0, 1), (1, 2), (0, 2)))
        graph.reorganize()
        batch = UpdateBatch(
            np.array([(0, 1), (0, 3), (4, 5), (2, 4)]), np.array([-1, 1, 1, 1])
        )
        graph.apply_batch(batch)
        assert graph.num_vertices == 6
        assert_operands_exact(graph)
        _, _, starts, _ = graph.operands(*both_versions(np.arange(6)))
        assert graph.touched_vertices == {0, 1, 2, 3, 4, 5}
        assert (starts[:6] != starts[6:]).all()  # every list changed: one slot per version
        assert degrees_old(graph).tolist() == [2, 2, 2, 0, 0, 0]
        assert graph.degrees_new().tolist() == [2, 1, 3, 1, 2, 1]

    def test_same_batch_insert_and_delete_nets_out(self):
        g0 = erdos_renyi(12, 3.0, num_labels=1, seed=4)
        graph = DynamicGraph(g0)
        u, v = (int(x) for x in g0.edge_array()[0])
        batch = UpdateBatch(
            np.array([(u, v), (u, v), (u, v)]), np.array([-1, 1, -1])
        )
        graph.apply_batch(batch, mode="coalesce")
        assert_operands_exact(graph)
        assert graph.degrees_new()[u] == degrees_old(graph)[u] - 1

    def test_untouched_vertices_share_one_slot(self):
        g0 = erdos_renyi(30, 4.0, num_labels=1, seed=2)
        graph = DynamicGraph(g0)
        u, v = (int(x) for x in g0.edge_array()[0])
        graph.apply_batch(deletes((u, v)))
        block, _, starts, lens = graph.operands(*both_versions(np.arange(30)))
        (s_old, s_new), (lens_old, lens_new) = starts.reshape(2, 30), lens.reshape(2, 30)
        untouched = np.ones(30, dtype=bool)
        untouched[[u, v]] = False
        assert np.array_equal(s_old[untouched], s_new[untouched])
        assert np.array_equal(lens_old[untouched], lens_new[untouched])
        assert s_old[u] != s_new[u] and s_old[v] != s_new[v]
        # the NEW asks added the two touched lists and nothing else
        assert block.size - int(lens_old.sum()) == int(lens_new[u] + lens_new[v])

    def test_per_element_versions_in_one_gather(self):
        g0 = erdos_renyi(30, 4.0, num_labels=2, seed=8)
        graph = DynamicGraph(g0)
        batch = generate_adversarial_stream(g0, num_batches=1, batch_size=12, seed=8)[0]
        graph.apply_batch(batch, mode="coalesce")
        # every vertex in both versions, interleaved, in one read: an
        # untouched vertex asked for twice must still get one shared slot
        verts = np.repeat(np.arange(graph.num_vertices), 2)
        old = np.tile([True, False], graph.num_vertices)
        block, _, starts, lens = graph.operands(verts, old)
        for v, o, s, n in zip(verts.tolist(), old.tolist(), starts.tolist(), lens.tolist()):
            version = EdgeVersion.OLD if o else EdgeVersion.NEW
            assert block[s : s + n].tolist() == expected_list(graph, v, version).tolist()
        untouched = sorted(set(range(graph.num_vertices)) - graph.touched_vertices)
        assert untouched and all(starts[2 * v] == starts[2 * v + 1] for v in untouched)
        assert block.size == int(
            degrees_old(graph).sum() + graph.degrees_new()[sorted(graph.touched_vertices)].sum()
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_load_lays_out_what_np_unique_laid_out(self, seed, monkeypatch):
        """``operands`` dedupes a launch's ``(vertex, version)`` keys with
        ``sorted_unique``; with ``np.unique`` in its place (the spelling it
        replaced) the same asks — keys repeated inside one ask, touched and
        untouched vertices in both versions — read the same block, keys and
        segments, element for element."""
        from repro.graphs import dynamic_graph

        g0 = erdos_renyi(40, 5.0, num_labels=2, seed=seed)
        batch = generate_adversarial_stream(g0, num_batches=1, batch_size=14, seed=seed)[0]
        rng = np.random.default_rng(seed)
        asks = [
            (rng.integers(0, 40, size=k), rng.random(k) < 0.5)
            for k in (1, 7, 64, 200, 64)
        ]
        answers = []
        for dedupe in (dynamic_graph.sorted_unique, np.unique):
            monkeypatch.setattr(dynamic_graph, "sorted_unique", dedupe)
            graph = DynamicGraph(g0)
            graph.apply_batch(batch, mode="coalesce")
            assert 0 < len(graph.touched_vertices) < 40
            answers.append([graph.operands(verts, old) for verts, old in asks])
            assert_operands_exact(graph)
        for ours, theirs in zip(*answers):
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    def test_degree_tables_are_read_only_views_of_the_live_tables(self):
        """A handed-out degree table is the store's own, read-only: it follows
        every mutation in place, so a holder copies what it must keep."""
        g0 = erdos_renyi(20, 4.0, num_labels=1, seed=1)
        graph = DynamicGraph(g0)
        with pytest.raises(ValueError):
            graph.degrees_new()[0] = 99
        held = graph.degrees_new()
        kept = held.copy()
        u, v = (int(x) for x in g0.edge_array()[0])
        graph.apply_batch(deletes((u, v)))
        assert np.shares_memory(graph.degrees_new(), held)
        assert held[u] == kept[u] - 1 and degrees_old(graph)[u] == kept[u]  # moved in place
        graph.reorganize()
        assert degrees_old(graph)[u] == held[u] == kept[u] - 1
        assert np.array_equal(kept, g0.degrees())  # the copy did not move
        assert_operands_exact(graph)

    def test_degree_tables_follow_new_vertices(self):
        graph = DynamicGraph(erdos_renyi(6, 2.0, num_labels=1, seed=2))
        assert_operands_exact(graph)  # read before the store grows
        graph.apply_batch(inserts((0, 9), (9, 7)))
        assert graph.degrees_new().size == degrees_old(graph).size == 10
        assert graph.degrees_new()[6:].tolist() == [0, 1, 0, 2]
        assert degrees_old(graph)[6:].tolist() == [0, 0, 0, 0]
        assert_operands_exact(graph)
        graph.reorganize()
        assert degrees_old(graph)[6:].tolist() == [0, 1, 0, 2]
        assert_operands_exact(graph)


def stream_batch(kind, graph, rng):
    """One batch of a churn, delete-heavy or new-vertex stream on ``graph``."""
    n = graph.num_vertices
    if kind == "churn":
        return generate_adversarial_stream(
            graph.snapshot(), num_batches=1, batch_size=10, seed=rng
        )[0]
    if kind == "delete_heavy":  # most of the top vertex's list, plus a few others
        hub = int(np.argmax(graph.degrees_new()))
        nbrs = neighbors_new(graph, hub)
        drop = nbrs[rng.random(nbrs.size) < 0.7]
        edges = graph.edges_new_array()
        others = edges[rng.random(len(edges)) < 0.1]
        pairs = np.concatenate([np.stack([np.full(drop.size, hub), drop], axis=1), others])
        return UpdateBatch(pairs, -np.ones(len(pairs), dtype=np.int64))
    # new vertices: a fresh star that may overtake the maximum, plus inserts
    fresh = n + int(rng.integers(1, 4))
    leaves = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    pairs = np.stack([np.full(leaves.size, fresh), leaves], axis=1)
    return UpdateBatch(pairs, np.ones(len(pairs), dtype=np.int64))


class TestStoreOwnsItsTables:
    """The read side's tables live as long as the store: every mutation
    keeps them — and ``max_degree`` — exact at the vertices it touched, and
    a read after it serves the lists it left."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kinds=st.lists(st.sampled_from(["churn", "delete_heavy", "new_vertices"]),
                       min_size=1, max_size=5),
        built=st.booleans(),
    )
    def test_max_degree_is_exact_after_every_mutation(self, seed, kinds, built):
        rng = np.random.default_rng(seed)
        graph = DynamicGraph(erdos_renyi(14, 3.0, num_labels=2, seed=seed))

        def check():
            scalar = [neighbors_new(graph, v).size for v in range(graph.num_vertices)]
            assert graph.max_degree() == max(scalar, default=0)  # before any table read
            if built:
                assert graph.degrees_new().tolist() == scalar
                assert graph.max_degree() == int(graph.degrees_new().max())

        if built:
            graph.degrees_new()  # tables kept from here on, else never built
        for kind in kinds:
            graph.apply_batch(stream_batch(kind, graph, rng), mode="coalesce")
            check()
            if built:
                assert_operands_exact(graph)
            graph.reorganize()
            check()
            if built:
                assert_operands_exact(graph)

    def test_the_top_vertex_losing_edges_recounts(self):
        g0 = erdos_renyi(12, 0.0, num_labels=1, seed=0)
        graph = DynamicGraph(g0)
        graph.apply_batch(inserts(*[(0, v) for v in range(1, 7)], (1, 2), (2, 3)))
        graph.reorganize()
        assert graph.max_degree() == 6
        graph.degrees_new()
        graph.apply_batch(deletes((0, 1), (0, 2), (0, 3), (0, 4)))
        assert graph.max_degree() == 2 == int(graph.degrees_new().max())
        graph.reorganize()
        graph.apply_batch(inserts((5, 9), (5, 10), (5, 11)))
        assert graph.max_degree() == 4 == graph.degrees_new()[5]

    def test_reorganize_leaves_no_stale_start(self):
        g0 = erdos_renyi(40, 4.0, num_labels=2, seed=5)
        graph = DynamicGraph(g0)
        assert_operands_exact(graph)  # the settled store: every list read
        for batch in generate_adversarial_stream(g0, num_batches=3, batch_size=12, seed=5):
            graph.apply_batch(batch, mode="coalesce")
            graph.check_invariants()
            assert_operands_exact(graph)  # the batch's lists, not the settled ones
            graph.reorganize()
            graph.check_invariants()
            assert_operands_exact(graph)

class TestArenaConcurrency:
    """Every reader of a batch reads the same lists: a fleet's shards and
    the pipelined schedule."""

    def test_fleet_and_pipelined_equal_serial_single_device(self):
        g0 = erdos_renyi(400, 12.0, num_labels=1, seed=11)
        batches = generate_adversarial_stream(g0, num_batches=3, batch_size=64, seed=11)

        def run(**settings):
            # no estimation pass: each shard's launches read their own
            # operands, one after another
            engine = GCSMEngine(g0, TRIANGLE, seed=0, policy="degree", **settings)
            return engine.process_stream(batches)

        serial = run()
        fleet_serial = run(devices=4)
        assert any(r.delta_count for r in serial)
        for results, counters_of in (
            (run(schedule="pipelined"), serial),
            (run(devices=4, schedule="pipelined"), fleet_serial),
        ):
            for got, ref, cref in zip(results, serial, counters_of):
                assert got.delta_count == ref.delta_count
                assert got.match_stats == ref.match_stats
                assert _counters_equal(got.match_counters, cref.match_counters)


class TestRankKeys:
    """One ``searchsorted`` over a keyed block == the per-segment binary
    search it replaced (``repro.testing.segmented_contains``)."""

    NUM_VERTICES = 12  # small alphabet: a vertex recurs across segments

    @settings(max_examples=300, deadline=None)
    @given(
        segments=st.lists(
            st.lists(st.integers(0, NUM_VERTICES - 1), max_size=5, unique=True).map(sorted),
            min_size=1, max_size=8,
        ),
        data=st.data(),
    )
    def test_keyed_probe_equals_segmented_search(self, segments, data):
        lengths = np.array([len(s) for s in segments], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths  # empty segments share offsets
        flat = np.array([v for s in segments for v in s], dtype=np.int64)
        keys = rank_keys(starts, lengths, flat, self.NUM_VERTICES)
        assert np.all(keys[1:] > keys[:-1])
        # every segment probed with every vertex: its own elements, and the
        # first / last elements of the segments on either side
        seg = np.repeat(np.arange(len(segments)), self.NUM_VERTICES)
        queries = np.tile(np.arange(self.NUM_VERTICES), len(segments))
        pick = data.draw(st.permutations(range(seg.size)))  # order-free
        seg, queries = seg[list(pick)], queries[list(pick)]
        got = keyed_contains(keys, self.NUM_VERTICES, starts[seg], lengths[seg], queries)
        want = segmented_contains(flat, starts[seg], lengths[seg], queries)
        assert got.tolist() == want.tolist()
        assert got.tolist() == [int(q) in segments[s] for s, q in zip(seg, queries)]

    def test_empty_list_does_not_report_its_neighbours_elements(self):
        # segments [], [3, 5]: both start at offset 0, so key equality alone
        # finds 3 and 5 "in" the empty list
        starts, lengths = np.array([0, 0]), np.array([0, 2])
        keys = rank_keys(starts, lengths, np.array([3, 5]), 8)
        probe = keyed_contains(keys, 8, starts[[0, 0, 1, 1]], lengths[[0, 0, 1, 1]],
                               np.array([3, 5, 3, 4]))
        assert probe.tolist() == [False, False, True, False]

    def test_key_headroom_is_checked_before_loading(self, monkeypatch):
        graph = DynamicGraph(erdos_renyi(20, 4.0, num_labels=1, seed=5))
        monkeypatch.setattr(
            DynamicGraph, "num_vertices", property(lambda self: 2**61), raising=True
        )
        with pytest.raises(ValueError, match="int64 rank keys"):
            graph.operands(np.array([0, 1]), True)


class TestUnifiedMemoryLayout:
    def test_layout_comes_from_the_length_table(self):
        g = DATASETS["AZ"].build(0)
        g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=1)
        graph = DynamicGraph(g0)
        graph.apply_batch(batches[0])
        reference = HostMemoryLayout(np.array(
            [sum(run.size for run in stored_runs(graph, v)) for v in range(graph.num_vertices)],
            dtype=np.int64,
        ))
        view = UnifiedMemoryView(graph, default_device(), AccessCounters())
        assert np.array_equal(view.layout.offsets, reference.offsets)

    def test_um_counters_on_az_q1_unchanged(self):
        g = DATASETS["AZ"].build(0)
        g0, batches = derive_stream(g, num_updates=3 * 64, batch_size=64, seed=1)
        system = make_system("UM", g0, query_by_name("Q1"), seed=0)
        seen = []
        for batch in batches:
            s = system.process_batch(batch).match_counters.summary()
            seen.append((int(s["um_faults"]), int(s["um_hits"]), int(s["accesses"])))
        # measured at the commit before the table-built layout
        assert seen == [(61, 360, 435), (62, 383, 442), (58, 257, 314)]
