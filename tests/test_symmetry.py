"""Tests for automorphism enumeration and canonical-embedding filtering."""

from itertools import permutations

from repro.query import QUERIES, QueryGraph, automorphism_count, automorphisms


def orbit(query, embedding):
    """The embeddings of the same matched subgraph: ``embedding`` composed
    with every automorphism of ``query``."""
    return {tuple(embedding[a[u]] for u in range(len(embedding))) for a in automorphisms(query)}


def test_triangle_unlabeled_has_six_automorphisms():
    q = QueryGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert automorphism_count(q) == 6


def test_triangle_distinct_labels_is_rigid():
    q = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2])
    assert automorphism_count(q) == 1


def test_path_symmetry():
    q = QueryGraph(3, [(0, 1), (1, 2)])
    assert automorphism_count(q) == 2  # flip the endpoints


def test_labels_break_path_symmetry():
    q = QueryGraph(3, [(0, 1), (1, 2)], [0, 1, 2])
    assert automorphism_count(q) == 1


def test_identity_always_present():
    for q in QUERIES.values():
        assert tuple(range(q.num_vertices)) in automorphisms(q)


def test_automorphisms_form_group():
    q = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # 4-cycle: dihedral, order 8
    autos = set(automorphisms(q))
    assert len(autos) == 8
    for a in autos:
        for b in autos:
            composed = tuple(a[b[i]] for i in range(4))
            assert composed in autos


def test_canonical_embedding_selects_one_per_orbit():
    q = QueryGraph(3, [(0, 1), (1, 2), (0, 2)])  # unlabeled triangle
    data_vertices = (7, 3, 9)
    canon = [perm for perm in permutations(data_vertices) if perm == min(orbit(q, perm))]
    assert len(canon) == 1
    assert canon[0] == (3, 7, 9)


def test_canonical_embedding_rigid_pattern_keeps_all():
    q = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2])
    assert orbit(q, (9, 3, 7)) == {(9, 3, 7)}
    assert orbit(q, (3, 9, 7)) == {(3, 9, 7)}


def test_catalog_automorphism_counts():
    # labeled catalog queries are mostly rigid; Q4's alternating labels keep
    # a 4-element symmetry group
    counts = {name: automorphism_count(q) for name, q in QUERIES.items()}
    assert counts["Q1"] == 1
    assert counts["Q4"] == 4
    assert all(c >= 1 for c in counts.values())


# ----------------------------------------------------------------------
# cross-pattern canonical forms (rulebook dedupe)
# ----------------------------------------------------------------------
def test_canonical_form_equal_iff_isomorphic():
    from repro.query.symmetry import canonical_form

    base = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 0, 1], name="sq")
    # same square, vertices renumbered
    twisted = QueryGraph(4, [(0, 2), (1, 2), (0, 3), (1, 3)], [0, 0, 1, 1], name="tw")
    other_labels = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 1, 0])
    assert canonical_form(base) == canonical_form(twisted)
    assert canonical_form(base) != canonical_form(other_labels)
    assert canonical_form(base) != canonical_form(QUERIES["Q1"])


def test_find_isomorphism_maps_edges_and_labels():
    from repro.query.symmetry import find_isomorphism

    base = QUERIES["Q2"]
    perm = (3, 1, 4, 0, 2)
    edges = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in base.edges
    )
    labels = [0] * base.num_vertices
    for u in range(base.num_vertices):
        labels[perm[u]] = base.labels[u]
    alias = QueryGraph(base.num_vertices, edges, labels, name="Q2alias")
    iso = find_isomorphism(base, alias)
    assert iso is not None
    for u, v in base.edges:
        assert alias.has_edge(iso[u], iso[v])
        assert alias.label(iso[u]) == base.label(u)
    # non-isomorphic pair
    assert find_isomorphism(base, QUERIES["Q1"]) is None


def test_find_isomorphism_is_deterministic_smallest():
    from repro.query.symmetry import find_isomorphism

    tri = QueryGraph(3, [(0, 1), (1, 2), (0, 2)])  # unlabeled, 6 isomorphisms
    assert find_isomorphism(tri, tri) == (0, 1, 2)
