"""Tests for random query generation."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.query.generator import random_query
from repro.query.pattern import WILDCARD_LABEL


class TestRandomQuery:
    def test_deterministic(self):
        assert random_query(5, seed=3) == random_query(5, seed=3)
        assert random_query(5, seed=3) != random_query(5, seed=4)

    def test_exact_edge_count(self):
        q = random_query(6, 9, seed=1)
        assert q.num_edges == 9

    def test_wildcard_by_default(self):
        q = random_query(4, seed=2)
        assert all(l == WILDCARD_LABEL for l in q.labels)

    def test_labels_in_range(self):
        q = random_query(5, num_labels=3, seed=5)
        assert all(0 <= l < 3 for l in q.labels)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            random_query(1)
        with pytest.raises(ValueError):
            random_query(4, 2)  # below spanning tree
        with pytest.raises(ValueError):
            random_query(4, 7)  # above complete graph


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_always_connected_simple(n, density, seed):
    q = random_query(n, density=density, seed=seed)
    g = q.to_networkx()
    assert nx.is_connected(g)
    assert g.number_of_nodes() == n
    assert q.num_edges >= n - 1
    # QueryGraph constructor already rejects loops/duplicates; spot-check
    assert all(u != v for u, v in q.edges)


@pytest.mark.parametrize("count, seed, pinned", [
    (24, 0, "07f346883e761da0"),  # the repo benchmark's az_rulebook24
    (8, 0, "fc70127cd8cd6b52"),
    (12, 4, "ec5968ec676dcf42"),
    (100, 3, "d01d7ec9e358c6ea"),
])
def test_rulebook_suite_draws_as_recorded(count, seed, pinned):
    """Names, structure and labels of each member, recorded when the family
    count, skeleton sizes and perturbation bound were still keywords."""
    import hashlib

    from repro.query.generator import rulebook_suite

    queries = rulebook_suite(count, num_labels=3, seed=seed)
    shape = repr([(q.name, q.num_vertices, q.edges, q.labels) for q in queries])
    assert hashlib.sha256(shape.encode()).hexdigest()[:16] == pinned
