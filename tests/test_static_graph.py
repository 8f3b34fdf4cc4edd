"""Unit tests for repro.graphs.static_graph."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.prefilter import InvariantIndex
from repro.graphs import DynamicGraph, StaticGraph
from repro.graphs.generators import erdos_renyi, powerlaw_graph, road_network
from repro.testing import contains_edges, sorted_edge_keys, without_edges_reference


def small_graph():
    #   0 - 1
    #   | \ |
    #   3   2
    return StaticGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)], np.array([0, 1, 1, 2]))


class TestConstruction:
    def test_counts(self):
        g = small_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 4

    def test_neighbors_sorted(self):
        g = small_graph()
        assert g.neighbors(0).tolist() == [1, 2, 3]
        assert g.neighbors(1).tolist() == [0, 2]
        assert g.neighbors(3).tolist() == [0]

    def test_degrees(self):
        g = small_graph()
        assert g.degrees().tolist() == [3, 2, 2, 1]
        assert g.max_degree() == 3

    def test_labels(self):
        g = small_graph()
        assert g.label(2) == 1
        assert g.labels.tolist() == [0, 1, 1, 2]

    def test_default_labels_zero(self):
        g = StaticGraph.from_edges(3, [(0, 1)])
        assert g.labels.tolist() == [0, 0, 0]

    def test_duplicate_edges_dropped(self):
        g = StaticGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_dropped(self):
        g = StaticGraph.from_edges(3, [(0, 0), (1, 2)])
        assert g.num_edges == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StaticGraph.from_edges(2, [(0, 5)])

    def test_fractional_vertex_ids_rejected(self):
        # int64 casts would have truncated these to the edge (0, 2)
        with pytest.raises(ValueError, match="vertex id 0.6 is not a whole number"):
            StaticGraph.from_edges(3, [(0.6, 2.7)])
        with pytest.raises(ValueError, match="vertex id nan is not a whole number"):
            StaticGraph.from_edges(3, np.array([[0.0, np.nan]]))
        # ... and this CSR to the edge (0, 1)
        with pytest.raises(ValueError, match="vertex id 1.9 is not a whole number"):
            StaticGraph([0, 1, 2], [1.9, 0.4])
        with pytest.raises(ValueError, match="vertex id 0.5 is not a whole number"):
            small_graph().without_edges([(0.5, 1)])

    def test_whole_float_vertex_ids_accepted(self):
        g = StaticGraph.from_edges(3, [(0.0, 2.0), (1, 2)])
        assert g == StaticGraph.from_edges(3, [(0, 2), (1, 2)])
        assert StaticGraph([0, 1, 2], [1.0, 0.0]) == StaticGraph.from_edges(2, [(0, 1)])
        assert g.indices.dtype == np.int64

    def test_int64_edges_are_read_in_place(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64)
        before = edges.copy()
        g = StaticGraph.from_edges(3, edges)
        assert g.num_edges == 3 and np.array_equal(edges, before)
        with_loop = np.array([[0, 1], [1, 1], [2, 0]], dtype=np.int64)
        assert StaticGraph.from_edges(3, with_loop) == StaticGraph.from_edges(3, [(0, 1), (0, 2)])
        assert with_loop.tolist() == [[0, 1], [1, 1], [2, 0]]

    def test_empty_graph(self):
        g = StaticGraph.from_edges(5, [])
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_zero_vertex_graph(self):
        g = StaticGraph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.max_degree() == 0


class TestQueries:
    def test_has_edge(self):
        g = small_graph()
        assert 1 in g.neighbors(0)
        assert 0 in g.neighbors(1)
        assert 3 not in g.neighbors(1)
        assert 3 not in g.neighbors(3)

    def test_edge_array_canonical(self):
        g = small_graph()
        edges = g.edge_array()
        assert edges.shape == (4, 2)
        assert bool(np.all(edges[:, 0] < edges[:, 1]))
        assert set(map(tuple, edges.tolist())) == {(0, 1), (0, 2), (0, 3), (1, 2)}

    def test_size_bytes_positive_and_monotone(self):
        small = StaticGraph.from_edges(4, [(0, 1)])
        big = small_graph()
        assert 0 < small.size_bytes() < big.size_bytes()


def check_without(g, removal):
    """``g.without_edges(removal)`` equals the rebuild oracle, is a valid CSR
    and leaves ``g`` as it was."""
    before = StaticGraph(g.indptr.copy(), g.indices.copy(), g.labels.copy())
    out = g.without_edges(removal)
    assert out == without_edges_reference(g, removal)
    assert StaticGraph(out.indptr, out.indices, out.labels) == out  # a valid CSR
    assert out.labels is not g.labels and g == before


def without_case(seed):
    """``(g, removal)`` drawn as :meth:`TestDerivedGraphs.
    test_without_equals_the_rebuild_oracle` draws them, from a seeded
    generator: a fixed case for a gate that must repeat."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 41))
    edges = rng.integers(0, max(n, 1), size=(int(rng.integers(0, 251)) if n else 0, 2))
    g = StaticGraph.from_edges(n, edges, rng.integers(0, 4, size=n))
    present = g.edge_array()
    picks = np.empty((0, 2), dtype=np.int64)
    if present.size:
        picks = present[rng.integers(0, present.shape[0], size=int(rng.integers(0, 81)))]
    flip = rng.random(picks.shape[0]) < 0.5
    picks[flip] = picks[flip, ::-1]
    stray = rng.integers(-3, n + 4, size=(int(rng.integers(0, 31)), 2))
    self_pairs = np.repeat(rng.integers(0, max(n, 1), size=(int(rng.integers(0, 5)), 1)), 2, axis=1)
    return g, rng.permutation(np.concatenate([picks, stray, self_pairs]))


class TestDerivedGraphs:
    def test_without_edges(self):
        g = small_graph()
        g2 = g.without_edges(np.array([[1, 0], [0, 3]]))
        assert g2.num_edges == 2
        assert 1 not in g2.neighbors(0)
        assert 3 not in g2.neighbors(0)
        assert 2 in g2.neighbors(0)
        # labels preserved
        assert g2.labels.tolist() == g.labels.tolist()

    def test_with_then_without_roundtrip(self):
        g = small_graph()
        extra = np.array([[1, 3]])
        grown = StaticGraph.from_edges(4, np.concatenate([g.edge_array(), extra]), g.labels)
        assert grown.without_edges(extra) == g

    def test_without_noop_on_empty(self):
        g = small_graph()
        assert g.without_edges(np.empty((0, 2), dtype=np.int64)) == g

    def test_without_ignores_endpoints_outside_the_graph(self):
        # n = 4: the key of (0, 6) is 6 = 1 * 4 + 2, the key of edge (1, 2)
        g = small_graph()
        assert g.without_edges(np.array([[0, 6], [6, 0], [-1, 2], [2, 1]])) == \
            g.without_edges(np.array([[1, 2]]))

    @staticmethod
    def without_by_isin(g, edges):
        """``without_edges`` as it was spelled with ``np.isin``."""
        n, keys = g.num_vertices, sorted_edge_keys(g)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edges = edges[(edges.min(axis=1) >= 0) & (edges.max(axis=1) < n)]
        removed = edges.min(axis=1) * n + edges.max(axis=1)
        left = keys[~np.isin(keys, removed)]
        return StaticGraph.from_edges(n, np.stack(np.divmod(left, max(n, 1)), axis=1), g.labels)

    @pytest.mark.parametrize("seed", range(4))
    def test_without_equals_the_isin_spelling(self, seed):
        """The removed keys probe the sorted key array: absent edges (also
        past the largest key), either orientation, duplicates in the list,
        out-of-range endpoints, all of it and none of it."""
        g = erdos_renyi(60, 5.0, seed=seed)
        rng = np.random.default_rng(seed)
        present = g.edge_array()
        some = present[rng.choice(present.shape[0], 40, replace=False)]
        absent = rng.integers(0, 60, size=(40, 2))
        mixed = np.concatenate([some, some[:10, ::-1], absent, [[58, 59], [59, 59], [0, 60], [-1, 3]]])
        for removal in (mixed, some, absent, present, present[:1], np.empty((0, 2), dtype=np.int64)):
            out = g.without_edges(removal)
            assert out == self.without_by_isin(g, removal)
            assert out.labels is not g.labels
        assert g.without_edges(np.concatenate([present, present[::-1]])).num_edges == 0
        assert g.without_edges(absent[~contains_edges(g, absent[:, 0], absent[:, 1])]) == g

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40))
    def test_without_equals_the_rebuild_oracle(self, data, n):
        """One mask over the CSR is the key subtraction and CSR rebuild it
        replaced: duplicate removals, both orientations, absent edges, self
        pairs and endpoints outside the graph, in any order."""
        vertex = st.integers(0, max(n - 1, 0))
        g = StaticGraph.from_edges(
            n,
            np.array(data.draw(st.lists(st.tuples(vertex, vertex), max_size=250)),
                     dtype=np.int64).reshape(-1, 2),
            np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                     dtype=np.int64),
        )
        present = g.edge_array()
        picks = data.draw(st.lists(
            st.tuples(st.integers(0, max(present.shape[0] - 1, 0)), st.booleans()), max_size=80,
        )) if present.size else []
        removal = [present[i][::-1] if flip else present[i] for i, flip in picks]
        removal += data.draw(st.lists(
            st.tuples(st.integers(-3, n + 3), st.integers(-3, n + 3)), max_size=30
        ))
        removal += [(v, v) for v in data.draw(st.lists(vertex, max_size=4))]
        removal = np.array(removal, dtype=np.int64).reshape(-1, 2)
        check_without(g, removal[data.draw(st.permutations(range(removal.shape[0])))])

    def test_without_on_the_empty_graph(self):
        for n in (0, 3):
            empty = StaticGraph.from_edges(n, [])
            assert empty.without_edges(np.array([[0, 1], [2, 1]])) == empty
            assert empty.without_edges(np.empty((0, 2), dtype=np.int64)) == empty

    def test_contains_edges_is_has_edge_for_many(self):
        g = erdos_renyi(40, 4.0, seed=9)
        us, vs = (a.ravel() for a in np.meshgrid(np.arange(40), np.arange(40)))
        want = [v in g.neighbors(u) for u, v in zip(us.tolist(), vs.tolist())]
        assert contains_edges(g, us, vs).tolist() == want
        assert sorted_edge_keys(g).tolist() == sorted(
            u * 40 + v for u, v in g.edge_array().tolist()
        )
        empty = StaticGraph.from_edges(3, [])
        assert contains_edges(empty, np.array([0]), np.array([1])).tolist() == [False]

    def test_equality(self):
        assert small_graph() == small_graph()
        g2 = StaticGraph.from_edges(4, [(0, 1)], np.array([0, 1, 1, 2]))
        assert small_graph() != g2


class TestValidation:
    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            StaticGraph(np.array([1, 2]), np.array([0]))

    def test_unsorted_neighbors_rejected(self):
        with pytest.raises(ValueError):
            StaticGraph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]), None)

    @pytest.mark.parametrize(
        "indptr, indices, message",
        [
            # 0: [1, 3], 1: [0, 2, 2], 2: [1], 3: [0] — the repeat sits in row 1
            ([0, 2, 5, 6, 7], [1, 3, 0, 2, 2, 1, 0], "duplicate neighbor at 1"),
            # row 2 lists itself
            ([0, 1, 2, 4], [1, 0, 1, 2], "self loop at 2"),
            # row 1 descends (rows 0 and 2 are fine)
            ([0, 1, 3, 4], [1, 2, 0, 1], "neighbors of 1 not sorted"),
            # the first vertex: 0: [2, 1] / [1, 1] / [0, 1]
            ([0, 2, 3, 4], [2, 1, 0, 0], "neighbors of 0 not sorted"),
            ([0, 2, 3], [1, 1, 0], "duplicate neighbor at 0"),
            ([0, 2, 3], [0, 1, 0], "self loop at 0"),
            # the last vertex, its run opening below the one before it ends
            ([0, 1, 2, 4], [2, 2, 1, 0], "neighbors of 2 not sorted"),
            ([0, 1, 1, 3], [2, 0, 0], "duplicate neighbor at 2"),
            ([0, 1, 2, 3], [1, 0, 2], "self loop at 2"),
            # isolated vertices first: 0: [], 1: [], 2: [4, 3] / [3, 3] / [2, 3]
            ([0, 0, 0, 2, 3, 4], [4, 3, 2, 2], "neighbors of 2 not sorted"),
            ([0, 0, 0, 2, 3, 4], [3, 3, 2, 2], "duplicate neighbor at 2"),
            ([0, 0, 0, 2, 3, 4], [2, 3, 2, 2], "self loop at 2"),
            # isolated vertices last: 0: [1], 1: [2, 0] / [0, 0] / [0, 1], 2: [], 3: []
            ([0, 1, 3, 3, 3], [1, 2, 0], "neighbors of 1 not sorted"),
            ([0, 1, 3, 3, 3], [1, 0, 0], "duplicate neighbor at 1"),
            ([0, 1, 3, 3, 3], [1, 0, 1], "self loop at 1"),
            # an isolated vertex between the offender and the run before it
            ([0, 1, 1, 3, 4], [3, 3, 1, 2], "neighbors of 2 not sorted"),
            ([0, 1, 1, 2], [2, 2], "self loop at 2"),
        ],
    )
    def test_each_failure_names_its_vertex(self, indptr, indices, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StaticGraph(np.array(indptr), np.array(indices))

    def test_run_boundaries_are_not_descents(self):
        # empty rows at the start, in the middle and at the end, and a run
        # ending in a larger id (5) than the next one begins with (1)
        #   0: []  1: [4, 5]  2: []  3: []  4: [1, 5]  5: [1, 4]  6: []
        g = StaticGraph(
            np.array([0, 0, 2, 2, 2, 4, 6, 6]), np.array([4, 5, 1, 5, 1, 4])
        )
        assert g.num_edges == 3
        assert g == StaticGraph.from_edges(7, [(1, 4), (1, 5), (4, 5)])
        # the zero-vertex graph and an edgeless one have nothing to scan
        assert StaticGraph(np.array([0]), np.empty(0)).num_vertices == 0
        assert StaticGraph.from_edges(0, []).num_edges == 0
        assert StaticGraph.from_edges(3, np.empty((0, 2))).degrees().tolist() == [0, 0, 0]

    def test_random_graph_validates(self):
        g = erdos_renyi(200, 5.0, seed=3)
        # constructor validation already ran; spot-check symmetry
        for u in range(0, 200, 17):
            for v in g.neighbors(u).tolist():
                assert u in g.neighbors(v)


class TestSetUpMemory:
    """A builder allocates its output plus at most one graph-sized scratch
    buffer: both orientations are written into the one ``2m`` buffer that
    becomes ``indices``, validation marks one byte an entry, and the store's
    pool is filled through a one-byte mask of its windows.  Measured by
    tracemalloc over entry on a power-law graph of 200 k edges, where
    builders that materialised graph-sized temporaries peaked at 5.9x to
    7.3x what they return."""

    @staticmethod
    def peak(build):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = build()
            return out, tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    @staticmethod
    def csr_bytes(g):
        return g.indptr.nbytes + g.indices.nbytes

    @pytest.fixture(scope="class")
    def graph(self):
        g = powerlaw_graph(20_000, 20.0, exponent=2.2, max_degree=200, seed=0)
        assert 190_000 <= g.num_edges <= 200_000
        return g

    def test_builders_peak_within_three_times_their_output(self, graph):
        n, keys, edges = graph.num_vertices, sorted_edge_keys(graph), graph.edge_array()
        removed = edges[::7].copy()
        outputs = {}
        for name, build in {
            "_from_edge_keys": lambda: StaticGraph._from_edge_keys(n, keys, graph.labels),
            "from_edges": lambda: StaticGraph.from_edges(n, edges, graph.labels),
            "without_edges": lambda: graph.without_edges(removed),
        }.items():
            outputs[name], peak = self.peak(build)
            ratio = peak / self.csr_bytes(outputs[name])
            assert ratio <= 3, (name, round(ratio, 2))
        assert outputs["_from_edge_keys"] == outputs["from_edges"] == graph
        assert outputs["without_edges"].num_edges == graph.num_edges - removed.shape[0]

    def test_road_network_peaks_within_three_times_its_output(self):
        """The CA analog's lattice: the edge keys are drawn as arrays, not a
        list of tuples (the per-cell loop peaked at 9.9x)."""
        road_network(3, 3, extra_edge_fraction=1.0)  # lazy imports are not the builder's
        g, peak = self.peak(lambda: road_network(
            130, 160, diagonal_fraction=0.35, extra_edge_fraction=0.08, seed=0
        ))
        ratio = peak / self.csr_bytes(g)
        assert ratio <= 3, round(ratio, 2)

    def test_the_store_fills_its_pool_without_an_index_per_entry(self, graph):
        store, peak = self.peak(lambda: DynamicGraph(graph))
        scratch = 2 * graph.num_edges * 8  # one 2m int64 buffer
        assert peak <= store._pool.nbytes + store._tables.nbytes + scratch
        assert store.snapshot() == graph

    def test_the_index_is_counted_without_an_edge_list(self, graph):
        """The pre-filter index is counted from the store's runs in bounded
        blocks: 17.7x its output while it scattered the whole edge list."""
        store = DynamicGraph(graph)
        index, peak = self.peak(lambda: InvariantIndex(store))
        out = sum(getattr(index, name).nbytes
                  for name in ("label_counts", "deg_label", "deg_total", "pair_counts"))
        assert peak <= 3 * out, round(peak / out, 2)

    def test_the_edge_export_is_written_in_blocks(self, graph):
        """``edges_new_array`` fills its ``(m, 2)`` output block by block:
        4.2x its output as one read of the whole store."""
        store = DynamicGraph(graph)
        edges, peak = self.peak(store.edges_new_array)
        assert peak <= 2 * edges.nbytes, round(peak / edges.nbytes, 2)
        assert np.array_equal(edges, graph.edge_array())
