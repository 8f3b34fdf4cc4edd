"""Tests for dynamic-stream derivation (paper Sec. VI-A methodology)."""

import numpy as np
import pytest

from repro.graphs import BatchConflictError, DynamicGraph, StaticGraph, UpdateBatch, derive_stream
from repro.graphs.generators import erdos_renyi
from repro.testing import contains_edges, labelled_roots


def plus(g, edges):
    """``g`` with the undirected ``edges`` added."""
    return StaticGraph.from_edges(g.num_vertices, np.concatenate([g.edge_array(), edges]),
                                  g.labels.copy())


class TestUpdateBatch:
    def test_basic_partition(self):
        b = UpdateBatch([(0, 1), (2, 3), (4, 5)], [1, -1, 1])
        assert len(b) == 3
        assert b.insert_edges().tolist() == [[0, 1], [4, 5]]
        assert b.delete_edges().tolist() == [[2, 3]]

    def test_empty_batch(self):
        b = UpdateBatch(np.empty((0, 2)), np.empty(0))
        assert len(b) == 0
        edges, signs = b.directed_updates()
        assert edges.shape == (0, 2) and signs.shape == (0,)

    def test_directed_updates_both_orientations(self):
        b = UpdateBatch([(0, 1)], [-1])
        edges, signs = b.directed_updates()
        assert edges.tolist() == [[0, 1], [1, 0]]
        assert signs.tolist() == [-1, -1]

    def test_directed_updates_are_one_read_only_pair(self):
        # computed once per batch: the estimator's and the matcher's roots are
        # masks of the same two arrays, so a caller writing into them must
        # raise, not rewrite what the other stage is about to read
        b = UpdateBatch([(0, 1), (2, 3)], [1, -1])
        edges, signs = b.directed_updates()
        again = b.directed_updates()
        assert again[0] is edges and again[1] is signs
        with pytest.raises(ValueError, match="read-only"):
            edges[0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            signs[:] = 1
        with pytest.raises(ValueError, match="read-only"):
            edges.sort(axis=0)
        assert b.directed_updates()[0].tolist() == [[0, 1], [2, 3], [1, 0], [3, 2]]
        assert b.edges.flags.writeable  # the batch's own arrays are untouched
        with pytest.raises(AttributeError):
            b.scratch = 1  # still a __slots__ class

    def test_labelled_roots_match_label_pairs(self):
        # the root oracle's label-pair mask over the directed updates, in
        # their order (a negative label is a wildcard), under any labels array
        b = UpdateBatch([(0, 1), (2, 3), (1, 2)], [1, -1, 1])
        labels = np.array([0, 1, 0, 1])
        roots, signs = labelled_roots(b, labels, (0, 1))
        assert roots.tolist() == [[0, 1], [2, 3], [2, 1]] and signs.tolist() == [1, -1, 1]
        assert labelled_roots(b, labels, (-1, 1))[0].tolist() == [[0, 1], [2, 3], [2, 1]]
        assert labelled_roots(b, labels, (1, -1))[0].tolist() == [[1, 2], [1, 0], [3, 2]]
        assert labelled_roots(b, labels, (-1, -1))[0].shape == (6, 2)
        assert labelled_roots(b, labels, (1, 1))[0].shape == (0, 2)
        relabelled = labelled_roots(b, np.array([1, 0, 1, 0]), (0, 1))[0]
        assert relabelled.tolist() == [[1, 2], [1, 0], [3, 2]]
        empty = UpdateBatch(np.empty((0, 2), dtype=np.int64), [])
        assert labelled_roots(empty, labels, (0, 1))[0].shape == (0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateBatch([(0, 1)], [2])
        with pytest.raises(ValueError):
            UpdateBatch([(1, 1)], [1])
        with pytest.raises(ValueError):
            UpdateBatch([(0, 1), (1, 2)], [1])

    def test_fractional_vertex_id_rejected(self):
        # an int64 cast would have made this the insert of (0, 2)
        with pytest.raises(ValueError, match="vertex id 0.7 is not a whole number"):
            UpdateBatch([(0.7, 2.2)], [1])
        assert UpdateBatch([(0.0, 2.0)], [1]).edges.tolist() == [[0, 2]]

    @pytest.mark.parametrize("edges", [[(-1, 2)], [(0, 1), (3, -4)]])
    def test_negative_vertex_id_rejected(self, edges):
        # a store indexes its per-vertex arrays by id: -1 would wrap to the
        # last vertex's list and read back as vertex 0's deletion mark
        with pytest.raises(ValueError, match="negative vertex id in batch"):
            UpdateBatch(edges, [1] * len(edges))


class TestCanonicalize:
    """Intra-batch netting + classification against the current store, as
    ``DynamicGraph.apply_batch`` does it and ``last_canonical_report`` tells."""

    def graph(self):
        # path 0-1-2-3 plus chord 0-2
        return DynamicGraph(StaticGraph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (0, 2)], np.array([0, 1, 0, 1])
        ))

    def apply(self, batch, mode):
        """``(effective, report)`` of ``batch`` applied to a fresh store."""
        store = self.graph()
        return store.apply_batch(batch, mode=mode), store.last_canonical_report

    def test_clean_batch_passes_through_untouched(self):
        b = UpdateBatch([(0, 3), (1, 2)], [1, -1])
        eff, rep = self.apply(b, "strict")
        assert eff is b  # identity, not a copy
        assert rep.new_inserts == 1 and rep.valid_deletes == 1
        assert rep.anomalies == 0
        assert rep.input_size == rep.output_size == 2

    def test_coalesce_nets_insert_then_delete(self):
        b = UpdateBatch([(0, 3), (0, 3)], [1, -1])
        eff, rep = self.apply(b, "coalesce")
        assert len(eff) == 0
        assert rep.intra_batch_dropped == 1
        assert rep.phantom_deletes == 1  # the surviving delete hits no edge
        assert rep.output_size == 0

    def test_netting_is_orientation_insensitive(self):
        b = UpdateBatch([(0, 3), (3, 0)], [1, -1])
        eff, _ = self.apply(b, "coalesce")
        assert len(eff) == 0

    def test_coalesce_drops_duplicate_insert(self):
        b = UpdateBatch([(0, 1), (1, 3)], [1, 1])
        eff, rep = self.apply(b, "coalesce")
        assert eff.edges.tolist() == [[1, 3]]
        assert rep.duplicate_inserts == 1 and rep.new_inserts == 1

    def test_coalesce_drops_phantom_delete(self):
        # (1, 3) absent; (0, 9) references a vertex the store has never seen
        b = UpdateBatch([(1, 3), (0, 9), (0, 2)], [-1, -1, -1])
        eff, rep = self.apply(b, "coalesce")
        assert eff.edges.tolist() == [[0, 2]]
        assert rep.phantom_deletes == 2 and rep.valid_deletes == 1

    def test_coalesce_dedupes_double_delete(self):
        b = UpdateBatch([(0, 2), (2, 0)], [-1, -1])
        eff, rep = self.apply(b, "coalesce")
        assert len(eff) == 1
        assert rep.valid_deletes == 1 and rep.intra_batch_dropped == 1

    def test_ignore_keeps_first_occurrence(self):
        # delete-then-insert of a present edge: coalesce nets to a no-op
        # (final state present), ignore keeps the first op (the delete)
        b = UpdateBatch([(0, 2), (0, 2)], [-1, 1])
        eff_c, _ = self.apply(b, "coalesce")
        assert len(eff_c) == 0
        eff_i, _ = self.apply(b, "ignore")
        assert eff_i.edges.tolist() == [[0, 2]]
        assert eff_i.signs.tolist() == [-1]

    def test_strict_raises_with_batch_diagnostic(self):
        b = UpdateBatch([(0, 1), (1, 3), (1, 3), (2, 3)], [1, 1, -1, -1])
        store = self.graph()
        with pytest.raises(BatchConflictError) as exc:
            store.apply_batch(b, mode="strict")
        msg = str(exc.value)
        assert "updated more than once" in msg
        assert "insert(s) of existing edges" in msg and "(0, 1)" in msg
        assert exc.value.report.duplicate_inserts == 1
        assert exc.value.report.intra_batch_dropped == 1
        assert store.last_canonical_report is None and not store.batch_open

    def test_strict_accepts_clean_batches(self):
        b = UpdateBatch([(1, 3)], [1])
        eff, _ = self.apply(b, "strict")
        assert eff is b

    def test_labels_and_order_preserved(self):
        b = UpdateBatch([(2, 5), (0, 1), (0, 4)], [1, 1, 1],
                        new_vertex_labels={4: 3, 5: 2})
        eff, _ = self.apply(b, "coalesce")
        # dup (0, 1) dropped; survivors keep stream order and orientation
        assert eff.edges.tolist() == [[2, 5], [0, 4]]
        assert eff.new_vertex_labels == {4: 3, 5: 2}

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            self.graph().apply_batch(UpdateBatch([(0, 3)], [1]), mode="merge")

    def test_report_merge_and_describe(self):
        b = UpdateBatch([(0, 1), (1, 3)], [1, 1])
        _, rep = self.apply(b, "coalesce")
        agg = type(rep)(mode="aggregate")
        agg.merge(rep)
        agg.merge(rep)
        assert agg.duplicate_inserts == 2 and agg.new_inserts == 2


class TestDeriveStream:
    def test_requires_exactly_one_size_spec(self):
        g = erdos_renyi(30, 4.0, seed=0)
        with pytest.raises(ValueError):
            derive_stream(g, seed=0)
        with pytest.raises(ValueError):
            derive_stream(g, num_updates=5, update_fraction=0.1, seed=0)

    def test_update_count_and_batching(self):
        g = erdos_renyi(100, 6.0, seed=1)
        g0, batches = derive_stream(g, num_updates=50, batch_size=16, seed=1)
        assert sum(len(b) for b in batches) == 50
        assert [len(b) for b in batches] == [16, 16, 16, 2]

    def test_insertions_removed_from_initial(self):
        g = erdos_renyi(100, 6.0, seed=2)
        g0, batches = derive_stream(g, update_fraction=0.2, batch_size=1000, seed=2)
        all_ins = np.concatenate([b.insert_edges() for b in batches])
        all_del = np.concatenate([b.delete_edges() for b in batches])
        for u, v in all_ins.tolist():
            assert v not in g0.neighbors(u)
        for u, v in all_del.tolist():
            assert v in g0.neighbors(u)
        assert g0.num_edges == g.num_edges - all_ins.shape[0]

    def test_replay_reaches_expected_final_graph(self):
        g = erdos_renyi(80, 5.0, seed=3)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=7, seed=3)
        final = g0
        for b in batches:
            final = plus(final, b.insert_edges()).without_edges(b.delete_edges())
        # final graph = original minus the edges selected for deletion
        all_del = np.concatenate([b.delete_edges() for b in batches])
        assert final == g.without_edges(all_del)

    def test_insert_probability_extremes(self):
        g = erdos_renyi(100, 6.0, seed=4)
        _, batches = derive_stream(g, num_updates=40, batch_size=40,
                                   insert_probability=1.0, seed=4)
        assert all(b.delete_edges().shape[0] == 0 for b in batches)
        _, batches = derive_stream(g, num_updates=40, batch_size=40,
                                   insert_probability=0.0, seed=4)
        assert all(b.insert_edges().shape[0] == 0 for b in batches)

    def test_deterministic_given_seed(self):
        g = erdos_renyi(100, 6.0, seed=5)
        a0, ab = derive_stream(g, num_updates=30, batch_size=10, seed=42)
        b0, bb = derive_stream(g, num_updates=30, batch_size=10, seed=42)
        assert a0 == b0
        for x, y in zip(ab, bb):
            assert x.edges.tolist() == y.edges.tolist()
            assert x.signs.tolist() == y.signs.tolist()

    def test_too_many_updates_rejected(self):
        g = erdos_renyi(20, 2.0, seed=6)
        with pytest.raises(ValueError):
            derive_stream(g, num_updates=10 * g.num_edges, batch_size=8, seed=6)


class TestInsertOnlyStream:
    def test_all_inserts(self):
        g = erdos_renyi(60, 4.0, seed=8)
        g0, batches = derive_stream(g, num_updates=20, batch_size=6, insert_probability=1.0,
                                    seed=8)
        assert sum(len(b) for b in batches) == 20
        assert all(b.delete_edges().shape[0] == 0 for b in batches)
        final = g0
        for b in batches:
            final = plus(final, b.insert_edges())
        assert final == g


class TestLocalizedStream:
    def _hot_touch_fraction(self, weight, seed=9):
        from repro.graphs.stream import derive_localized_stream
        import numpy as np

        g = erdos_renyi(400, 6.0, seed=seed)
        rng = np.random.default_rng(seed)
        g0, batches = derive_localized_stream(
            g, num_updates=200, batch_size=50, hotspot_fraction=0.05,
            hotspot_weight=weight, seed=seed,
        )
        # recompute the hot set exactly as the deriver does
        hot = rng.choice(g.num_vertices, size=int(g.num_vertices * 0.05),
                         replace=False)
        is_hot = np.zeros(g.num_vertices, dtype=bool)
        is_hot[hot] = True
        edges = np.concatenate([b.edges for b in batches])
        return float((is_hot[edges[:, 0]] | is_hot[edges[:, 1]]).mean())

    def test_hotspots_concentrate_updates(self):
        uniform = self._hot_touch_fraction(weight=1.0)
        skewed = self._hot_touch_fraction(weight=25.0)
        assert skewed > 1.5 * uniform

    def test_structure_matches_uniform_deriver(self):
        from repro.graphs.stream import derive_localized_stream

        g = erdos_renyi(100, 6.0, seed=10)
        g0, batches = derive_localized_stream(
            g, num_updates=60, batch_size=16, seed=10,
        )
        assert sum(len(b) for b in batches) == 60
        for b in batches:
            for u, v in b.delete_edges().tolist():
                assert v in g0.neighbors(u)
            for u, v in b.insert_edges().tolist():
                assert v not in g0.neighbors(u)

    def test_validation(self):
        from repro.graphs.stream import derive_localized_stream

        g = erdos_renyi(50, 4.0, seed=11)
        with pytest.raises(ValueError):
            derive_localized_stream(g, num_updates=10, batch_size=4,
                                    hotspot_fraction=0.0)
        with pytest.raises(ValueError):
            derive_localized_stream(g, num_updates=10, batch_size=4,
                                    hotspot_weight=0.5)
        with pytest.raises(ValueError):
            derive_localized_stream(g, num_updates=10**6, batch_size=4)

    def test_degree_bias_hits_hubs(self):
        from repro.graphs.generators import powerlaw_graph
        from repro.graphs.stream import derive_localized_stream
        import numpy as np

        g = powerlaw_graph(2000, 8.0, max_degree=200, seed=12)
        degs = g.degrees()
        hubs = set(np.argsort(-degs)[:20].tolist())

        def hub_touch(bias):
            _, batches = derive_localized_stream(
                g, num_updates=300, batch_size=100, hotspot_fraction=0.01,
                hotspot_weight=100.0, hotspot_bias=bias, seed=13,
            )
            edges = np.concatenate([b.edges for b in batches])
            return sum(1 for u, v in edges.tolist() if u in hubs or v in hubs)

        assert hub_touch("degree") > hub_touch("uniform")

    def test_degree_bias_with_fewer_active_vertices_than_hot(self):
        """Four of ten vertices have an edge and ``hotspot_fraction`` asks for
        eight hot ones: the popularity draw takes the four (it raised
        ``Fewer non-zero entries in p than size`` before)."""
        from repro.graphs.stream import derive_localized_stream

        g = StaticGraph.from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        g0, batches = derive_localized_stream(
            g, num_updates=4, batch_size=2, hotspot_fraction=0.8,
            hotspot_bias="degree", seed=0,
        )
        assert [len(b) for b in batches] == [2, 2]
        for b in batches:
            assert contains_edges(g, b.edges[:, 0], b.edges[:, 1]).all()
            assert contains_edges(g0, *b.delete_edges().T).all()
            assert not contains_edges(g0, *b.insert_edges().T).any()

    def test_bad_bias_rejected(self):
        from repro.graphs.stream import derive_localized_stream

        g = erdos_renyi(50, 4.0, seed=14)
        with pytest.raises(ValueError):
            derive_localized_stream(g, num_updates=10, batch_size=4,
                                    hotspot_bias="fame")


class TestLocalizedStreamPins:
    """``G_0``, every batch and the generator state after, for both hotspot
    biases: the hot-set and weight draws come before the signs, the
    permutation and the cut, and moving any of them changes these digests."""

    @staticmethod
    def digest(*arrays):
        import hashlib

        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=np.int64)
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("bias, insert_probability, pinned", [
        ("uniform", 0.5, (11, "60db2b28dc0ac32a")),
        ("degree", 0.5, (11, "1cae00039eeadfb2")),
        ("degree", 0.8, (11, "57b441a9d56bf783")),
    ])
    def test_both_biases_draw_as_recorded(self, bias, insert_probability, pinned):
        from repro.graphs.generators import powerlaw_graph
        from repro.graphs.stream import derive_localized_stream

        g = powerlaw_graph(3000, 8.0, max_degree=200, num_labels=4, seed=21)
        rng = np.random.default_rng(5)
        g0, batches = derive_localized_stream(
            g, num_updates=700, batch_size=64, hotspot_fraction=0.02,
            hotspot_weight=20.0, hotspot_bias=bias,
            insert_probability=insert_probability, seed=rng,
        )
        arrays = [g0.indptr, g0.indices, g0.labels]
        for b in batches:
            arrays += [b.edges, b.signs]
        after = rng.integers(0, 2**62, size=4)
        assert (len(batches), self.digest(*arrays, after)) == pinned
