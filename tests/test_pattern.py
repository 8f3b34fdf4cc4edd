"""Tests for QueryGraph and the query catalog."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import make_system
from repro.graphs.generators import erdos_renyi
from repro.query import QUERIES, QueryGraph, WILDCARD_LABEL, motifs, query_by_name
from repro.query.catalog import QUERY_ORDER
from repro.query.generator import random_query


def triangle(labels=None):
    return QueryGraph(3, [(0, 1), (1, 2), (0, 2)], labels, name="triangle")


class TestQueryGraph:
    def test_basic_properties(self):
        q = triangle([0, 1, 2])
        assert q.num_vertices == 3
        assert q.num_edges == 3
        assert q.degree(0) == 2
        assert q.neighbors(1) == {0, 2}
        assert q.label(2) == 2
        assert q.is_labeled()

    def test_wildcard_default(self):
        q = triangle()
        assert not q.is_labeled()
        assert q.label(0) == WILDCARD_LABEL

    def test_edge_index_stable_and_symmetric(self):
        q = QueryGraph(4, [(0, 1), (2, 1), (2, 3)])
        assert q.edge_index(0, 1) == 0
        assert q.edge_index(1, 2) == 1
        assert q.edge_index(2, 1) == 1
        assert q.edge_index(3, 2) == 2
        with pytest.raises(KeyError):
            q.edge_index(0, 3)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            QueryGraph(4, [(0, 1), (2, 3)])

    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(ValueError):
            QueryGraph(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(ValueError):
            QueryGraph(3, [(0, 0), (0, 1), (1, 2)])

    def test_networkx_roundtrip(self):
        q = QUERIES["Q3"]
        q2 = QueryGraph.from_networkx(q.to_networkx(), name="Q3")
        assert q2.num_vertices == q.num_vertices
        assert set(q2.edges) == set(q.edges)
        assert q2.labels == q.labels

    def test_diameter(self):
        assert triangle().diameter() == 1
        path = QueryGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert path.diameter() == 3

    def test_equality_and_hash(self):
        assert triangle([0, 1, 2]) == triangle([0, 1, 2])
        assert triangle([0, 1, 2]) != triangle([0, 1, 1])
        assert len({triangle([0, 1, 2]), triangle([0, 1, 2])}) == 1


class TestDiameter:
    """``diameter()`` is a BFS over the pattern's own adjacency, and VSGM's
    hop radius; ``networkx.diameter`` is the reference it must equal."""

    def test_catalog_queries_and_the_vsgm_radius(self):
        g = erdos_renyi(30, 4.0, num_labels=3, seed=1)
        for name in QUERY_ORDER:
            q = QUERIES[name]
            assert q.diameter() == nx.diameter(q.to_networkx())
            assert make_system("VSGM", g, q).placement.hops == q.diameter()
        assert [QUERIES[n].diameter() for n in QUERY_ORDER] == [2, 2, 3, 3, 3, 3]

    @pytest.mark.parametrize("size", range(2, 8))
    def test_every_motif(self, size):
        ms = motifs(size)
        assert [q.diameter() for q in ms] == [nx.diameter(q.to_networkx()) for q in ms]

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=9),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_queries(self, n, density, seed):
        q = random_query(n, density=density, seed=seed)
        assert q.diameter() == nx.diameter(q.to_networkx())


class TestCatalog:
    def test_six_queries_sizes(self):
        assert QUERY_ORDER == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
        sizes = [QUERIES[n].num_vertices for n in QUERY_ORDER]
        assert sizes == [5, 5, 6, 6, 7, 7]  # paper: "size-5 to size-7"
        assert all(QUERIES[n].is_labeled() for n in QUERY_ORDER)

    def test_query_by_name(self):
        assert query_by_name("Q2") is QUERIES["Q2"]
        with pytest.raises(KeyError):
            query_by_name("Q9")

    def test_motif_counts_exact(self):
        # known counts of connected graphs by size
        assert len(motifs(3)) == 2
        assert len(motifs(4)) == 6
        assert len(motifs(5)) == 21

    def test_motifs_wildcard_and_connected(self):
        for q in (q for size in (3, 4, 5) for q in motifs(size)):
            assert not q.is_labeled()
            assert nx.is_connected(q.to_networkx())

    def test_motifs_pairwise_nonisomorphic(self):
        for size in (3, 4, 5):
            ms = motifs(size)
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    assert not nx.is_isomorphic(ms[i].to_networkx(), ms[j].to_networkx())

    def test_motif_size_bounds(self):
        with pytest.raises(ValueError):
            motifs(1)
        with pytest.raises(ValueError):
            motifs(8)
