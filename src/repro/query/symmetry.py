"""Pattern automorphisms and duplicate-subgraph handling.

The matching engine counts *embeddings* (injective label-preserving
homomorphisms).  Every distinct matched subgraph is discovered once per
automorphism of the pattern, so ``embeddings / |Aut(Q)|`` gives the count of
distinct subgraphs — the quantity the paper's motif-counting experiments
(Fig. 11) report.  Patterns are tiny (n ≤ 7), so plain permutation search is
both simple and fast; results are memoized per pattern.

The same permutation machinery also yields **cross-pattern** canonical
forms: :func:`canonical_form` maps every pattern to the lexicographically
minimal relabeling of its ``(labels, edges)`` pair, so two patterns are
label-preserving isomorphic iff their canonical forms are equal.  The
multi-query engine uses this to dedupe rulebooks — isomorphic standing
patterns have identical ΔM on every batch (embedding counts are
isomorphism invariants), so only one representative per class needs to be
matched.  :func:`find_isomorphism` recovers an explicit vertex mapping for
remapping the representative's embeddings back to each alias.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from repro.query.pattern import QueryGraph

__all__ = [
    "automorphisms",
    "automorphism_count",
    "canonical_form",
    "find_isomorphism",
]


@lru_cache(maxsize=256)
def _automorphisms_cached(key: tuple) -> tuple[tuple[int, ...], ...]:
    num_vertices, edges, labels = key
    edge_set = set(edges)
    degs = [0] * num_vertices
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    autos: list[tuple[int, ...]] = []
    for perm in permutations(range(num_vertices)):
        ok = True
        for u in range(num_vertices):
            if degs[perm[u]] != degs[u] or labels[perm[u]] != labels[u]:
                ok = False
                break
        if not ok:
            continue
        for u, v in edges:
            a, b = perm[u], perm[v]
            if ((a, b) if a < b else (b, a)) not in edge_set:
                ok = False
                break
        if ok:
            autos.append(perm)
    return tuple(autos)


def automorphisms(query: QueryGraph) -> tuple[tuple[int, ...], ...]:
    """All label-preserving automorphisms of ``query`` (identity included)."""
    return _automorphisms_cached((query.num_vertices, query.edges, query.labels))


def automorphism_count(query: QueryGraph) -> int:
    """``|Aut(Q)|`` — divide embedding counts by this for subgraph counts."""
    return len(automorphisms(query))


def _graph_key(query: QueryGraph) -> tuple:
    return (query.num_vertices, query.edges, query.labels)


@lru_cache(maxsize=512)
def _canonical_form_cached(key: tuple) -> tuple:
    num_vertices, edges, labels = key
    best: tuple | None = None
    for perm in permutations(range(num_vertices)):
        new_labels = tuple(labels[u] for u in _inverse(perm))
        new_edges = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges
        ))
        candidate = (new_labels, new_edges)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return (num_vertices, *best)


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for u, p in enumerate(perm):
        inv[p] = u
    return tuple(inv)


def canonical_form(query: QueryGraph) -> tuple:
    """Hashable canonical key, equal iff patterns are label-isomorphic.

    The key is ``(n, labels, edges)`` minimized lexicographically over all
    vertex relabelings (brute force over ``n!`` permutations — patterns are
    tiny, and results are memoized per pattern).  Vertex names and edge
    insertion order are quotiented out; labels are respected, so a
    label-permuted copy of a pattern with *different* vertex labels is not
    conflated with the original.
    """
    return _canonical_form_cached(_graph_key(query))


def find_isomorphism(
    source: QueryGraph, target: QueryGraph
) -> tuple[int, ...] | None:
    """A label-preserving isomorphism ``σ`` with ``σ[u]`` = target vertex for
    source vertex ``u``, or ``None`` if the patterns are not isomorphic.

    Deterministic: returns the lexicographically smallest such mapping, so
    alias→representative remappings are stable across runs.
    """
    if (
        source.num_vertices != target.num_vertices
        or source.num_edges != target.num_edges
        or sorted(source.labels) != sorted(target.labels)
    ):
        return None
    target_edges = set(target.edges)
    for perm in permutations(range(source.num_vertices)):
        ok = all(
            target.labels[perm[u]] == source.labels[u]
            for u in range(source.num_vertices)
        )
        if not ok:
            continue
        for u, v in source.edges:
            a, b = perm[u], perm[v]
            if ((a, b) if a < b else (b, a)) not in target_edges:
                ok = False
                break
        if ok:
            return perm
    return None

