"""Tests for the brute-force reference matcher (the oracle itself)."""

import networkx as nx
import numpy as np

from repro.graphs import StaticGraph
from repro.graphs.generators import erdos_renyi
from repro.query import QueryGraph
from repro.query.symmetry import automorphism_count
from repro.testing.reference import count_embeddings, find_embeddings


def triangle_query(labels=None):
    return QueryGraph(3, [(0, 1), (1, 2), (0, 2)], labels)


class TestCountEmbeddings:
    def test_single_triangle(self):
        g = StaticGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        # unlabeled triangle: 3! = 6 embeddings of one subgraph
        assert count_embeddings(g, triangle_query()) == 6

    def test_labeled_triangle(self):
        g = StaticGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], np.array([0, 1, 1]))
        q = triangle_query([0, 1, 1])
        # query vertex 0 -> data 0; vertices 1,2 -> data 1,2 in 2 orders
        assert count_embeddings(g, q) == 2

    def test_no_match_wrong_labels(self):
        g = StaticGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], np.array([0, 0, 0]))
        assert count_embeddings(g, triangle_query([0, 1, 1])) == 0

    def test_matches_networkx_triangle_count(self):
        g = erdos_renyi(40, 5.0, num_labels=1, seed=3)
        nxg = nx.Graph(list(map(tuple, g.edge_array().tolist())))
        nxg.add_nodes_from(range(g.num_vertices))
        tri = sum(nx.triangles(nxg).values()) // 3
        assert count_embeddings(g, triangle_query()) == 6 * tri

    def test_embeddings_divided_by_automorphisms(self):
        q = QueryGraph(3, [(0, 1), (1, 2)])  # path, |Aut| = 2
        g = StaticGraph.from_edges(3, [(0, 1), (1, 2)])
        assert count_embeddings(g, q) == 2  # one path, 2 automorphic images
        assert count_embeddings(g, q) // automorphism_count(q) == 1

    def test_count_matches_find(self):
        g = erdos_renyi(25, 4.0, num_labels=2, seed=4)
        for edges, labels in [
            ([(0, 1), (1, 2), (0, 2)], [0, 1, 1]),
            ([(0, 1), (1, 2), (2, 3)], None),
            ([(0, 1), (1, 2), (2, 3), (0, 3)], None),
        ]:
            q = QueryGraph(max(max(e) for e in edges) + 1, edges, labels)
            found = find_embeddings(g, q)
            assert len(found) == count_embeddings(g, q)
            # all found embeddings are valid and distinct
            assert len(set(found)) == len(found)
            for emb in found:
                assert len(set(emb)) == len(emb)  # injective
                for u, v in q.edges:
                    assert emb[v] in g.neighbors(emb[u])

    def test_find_limit(self):
        g = erdos_renyi(30, 6.0, num_labels=1, seed=5)
        q = triangle_query()
        limited = find_embeddings(g, q, limit=4)
        assert len(limited) == 4

    def test_empty_graph(self):
        g = StaticGraph.from_edges(5, [])
        assert count_embeddings(g, triangle_query()) == 0
        assert find_embeddings(g, triangle_query()) == []
