"""Brute-force reference matcher (correctness oracle).

A plain backtracking subgraph-isomorphism enumerator over
:class:`~repro.graphs.static_graph.StaticGraph`, independent of the plan
compiler and the view machinery.  It defines the ground truth the entire
incremental pipeline is validated against: for any batch,

    signed ΔM  ==  count(G_{k+1}) − count(G_k)

where both counts come from this module.  Counts are *embeddings*
(injective label-preserving homomorphisms); divide by ``|Aut(Q)|`` for
distinct subgraphs.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.attributes import edge_weights
from repro.graphs.static_graph import StaticGraph
from repro.query.pattern import WILDCARD_LABEL, QueryGraph

__all__ = ["count_embeddings", "find_embeddings"]


def _label_ok(query: QueryGraph, u: int, data_label: int) -> bool:
    ql = query.label(u)
    return ql == WILDCARD_LABEL or ql == data_label


def _predicate_ok(
    query: QueryGraph, assignment: dict[int, int], u: int, v: int
) -> bool:
    """Check every predicated query edge (u, w) with w already assigned.

    Each query edge is validated exactly once per embedding: when its later
    endpoint (in the matching order) is bound.
    """
    for w in query.neighbors(u):
        if w in assignment:
            bounds = query.predicate_for_index(query.edge_index(u, w))
            if bounds is not None:
                wt = float(edge_weights(assignment[w], v))
                if not (bounds[0] <= wt <= bounds[1]):
                    return False
    return True


def _order_by_connectivity(query: QueryGraph) -> list[int]:
    """Connected matching order starting from a max-degree vertex."""
    start = max(range(query.num_vertices), key=query.degree)
    order = [start]
    seen = {start}
    while len(order) < query.num_vertices:
        best = max(
            (u for u in range(query.num_vertices) if u not in seen
             and query.neighbors(u) & seen),
            key=lambda u: (len(query.neighbors(u) & seen), query.degree(u)),
        )
        order.append(best)
        seen.add(best)
    return order


def find_embeddings(
    graph: StaticGraph, query: QueryGraph, *, limit: int | None = None,
) -> list[tuple[int, ...]]:
    """Enumerate embeddings as tuples indexed by query vertex.

    ``limit`` caps the number returned (handy for existence checks).
    """
    check_preds = query.has_predicates()
    order = _order_by_connectivity(query)
    n = query.num_vertices
    assignment: dict[int, int] = {}
    used: set[int] = set()
    out: list[tuple[int, ...]] = []

    def candidates(u: int) -> np.ndarray:
        anchors = [w for w in query.neighbors(u) if w in assignment]
        if not anchors:
            return np.arange(graph.num_vertices)
        cand = graph.neighbors(assignment[anchors[0]])
        for w in anchors[1:]:
            cand = np.intersect1d(cand, graph.neighbors(assignment[w]), assume_unique=True)
        return cand

    def backtrack(depth: int) -> bool:
        if depth == n:
            out.append(tuple(assignment[u] for u in range(n)))
            return limit is not None and len(out) >= limit
        u = order[depth]
        for v in candidates(u).tolist():
            if v in used:
                continue
            if not _label_ok(query, u, graph.label(v)):
                continue
            if check_preds and not _predicate_ok(query, assignment, u, v):
                continue
            assignment[u] = v
            used.add(v)
            if backtrack(depth + 1):
                return True
            used.remove(v)
            del assignment[u]
        return False

    backtrack(0)
    return out


def count_embeddings(graph: StaticGraph, query: QueryGraph) -> int:
    """Number of embeddings of ``query`` in ``graph``."""
    check_preds = query.has_predicates()
    order = _order_by_connectivity(query)
    n = query.num_vertices
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(depth: int) -> int:
        if depth == n:
            return 1
        u = order[depth]
        anchors = [w for w in query.neighbors(u) if w in assignment]
        if anchors:
            cand = graph.neighbors(assignment[anchors[0]])
            for w in anchors[1:]:
                cand = np.intersect1d(cand, graph.neighbors(assignment[w]),
                                      assume_unique=True)
        else:
            cand = np.arange(graph.num_vertices)
        total = 0
        for v in cand.tolist():
            if v in used:
                continue
            if not _label_ok(query, u, graph.label(v)):
                continue
            if check_preds and not _predicate_ok(query, assignment, u, v):
                continue
            assignment[u] = v
            used.add(v)
            total += backtrack(depth + 1)
            used.remove(v)
            del assignment[u]
        return total

    return backtrack(0)
