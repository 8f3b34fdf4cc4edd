"""WCOJ matching-plan compilation (paper Fig. 2).

Subgraph matching is executed vertex-at-a-time: a *matching order* fixes a
sequence of query vertices; levels 0 and 1 are bound by iterating a root
edge relation, and every later level binds one query vertex by intersecting
the neighbor lists of its already-bound query neighbors.  That is exactly
the nested-loop shape of paper Fig. 2 (and of STMatch, whose kernel the
paper adapts).

Two plan families are compiled here:

* :func:`compile_static_plan` — one plan matching ``Q`` on a single graph
  snapshot (Fig. 2a).  All constraints read the ``CURRENT`` adjacency.
* :func:`compile_delta_plans` — ``m`` plans, one ΔM_i per query edge
  (Fig. 2b–f).  Plan ``i`` roots at query edge ``e_i`` (iterated over the
  signed batch ΔE), and every other query edge ``e_j`` reads the **old**
  adjacency ``N`` when ``j < i`` and the **updated** adjacency ``N'`` when
  ``j > i``.  This old/new split is the incremental-view-maintenance
  decomposition of paper Eq. (1): it is what makes the union of the m plans
  produce each delta embedding exactly once, including under mixed
  insert/delete batches.

The compiler is deliberately independent of the execution backend: the same
``MatchPlan`` drives the simulated-GPU executor, the CPU baseline, and the
reference oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from repro.query.pattern import QueryGraph
from repro.utils import require

__all__ = [
    "EdgeVersion",
    "Constraint",
    "LevelPlan",
    "MatchPlan",
    "compile_static_plan",
    "compile_delta_plans",
    "greedy_matching_order",
    "level_signature",
    "root_signature",
]


class EdgeVersion(enum.Enum):
    """Which adjacency snapshot a constraint reads (paper Fig. 2's N vs N')."""

    CURRENT = "current"  # static matching on one snapshot
    OLD = "old"  # N  — pre-batch lists (R_j, j < i)
    NEW = "new"  # N' — post-batch lists (R'_j, j > i)


@dataclass(frozen=True)
class Constraint:
    """One backward edge check at a level.

    ``position`` indexes the matching order: the candidate for this level
    must appear in the (versioned) neighbor list of the data vertex bound at
    that position.  ``edge_index`` records which query edge this constraint
    realizes (provenance for the old/new versioning and for tests).
    ``predicate`` carries the query edge's weight interval, if any: the
    executors keep only candidates whose edge weight to the anchor falls in
    the closed ``(lo, hi)`` interval (predicate pushdown).
    """

    position: int
    version: EdgeVersion
    edge_index: int
    predicate: tuple[float, float] | None = None


@dataclass(frozen=True)
class LevelPlan:
    """Binding step for one query vertex beyond the root edge."""

    query_vertex: int
    label: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        require(len(self.constraints) >= 1, "level must have at least one constraint")


@dataclass(frozen=True)
class MatchPlan:
    """A complete vertex-at-a-time plan.

    ``order`` is the matching order over query vertices; ``order[0]`` and
    ``order[1]`` are the endpoints of the root edge.  ``delta_index`` is the
    query-edge index ``i`` for a ΔM_i plan and ``None`` for a static plan.
    ``levels[k]`` describes the binding of ``order[k + 2]``.
    """

    query: QueryGraph
    order: tuple[int, ...]
    levels: tuple[LevelPlan, ...]
    delta_index: int | None = None
    #: weight interval the root data edge must satisfy (predicate pushdown
    #: into root generation); None when the root query edge is unconstrained
    root_predicate: tuple[float, float] | None = None

    @property
    def depth(self) -> int:
        return len(self.order)

    @cached_property
    def inverse_order(self) -> tuple[int, ...]:
        """``inverse_order[u]`` is the matching-order position that binds
        query vertex ``u`` — the column permutation from an execution row
        (bound order) to an embedding (query numbering)."""
        inverse = [0] * len(self.order)
        for pos, u in enumerate(self.order):
            inverse[u] = pos
        return tuple(inverse)

    def root_labels(self) -> tuple[int, int]:
        """Labels required of the two root-edge endpoints (order[0], order[1])."""
        return self.query.label(self.order[0]), self.query.label(self.order[1])


# ----------------------------------------------------------------------
# Prefix-alignable execution signatures.
#
# Plan execution is *structural*: given the same frontier rows, a level's
# expansion depends only on its required label and on which already-bound
# positions constrain it through which adjacency version — never on the
# query's private vertex numbering or on the constraints' edge-index
# provenance.  The signatures below capture exactly that structure, so two
# plans (from different queries) whose signature sequences share a prefix
# produce bit-identical frontiers, candidate sets, and access charges over
# that prefix.  The multi-query execution trie groups the rulebook's plans
# by these prefixes and expands each shared level once.
# ----------------------------------------------------------------------
def level_signature(level: LevelPlan) -> tuple:
    """Execution identity of one binding level.

    ``(label, ((position, version), ...))`` — everything the frontier
    executor's candidate expansion reads.  ``query_vertex`` and constraint
    ``edge_index`` are deliberately excluded: they are provenance, not
    behavior.  Weight predicates *are* behavior, so a level carrying any
    appends its per-constraint intervals; predicate-free levels keep the
    historical two-tuple shape (signature stability across releases).
    """
    sig = (
        level.label,
        tuple((c.position, c.version.value) for c in level.constraints),
    )
    if any(c.predicate is not None for c in level.constraints):
        sig = sig + (tuple(c.predicate for c in level.constraints),)
    return sig


def root_signature(plan: MatchPlan) -> tuple:
    """Execution identity of a plan's root-edge iteration.

    Delta roots are the directed batch updates filtered by the two root
    endpoint labels (and the root edge's weight predicate, when present),
    so plans with equal root signatures iterate identical ``(roots,
    signs)`` arrays for any batch.  Predicate-free plans keep the
    historical label-pair shape.
    """
    if plan.root_predicate is not None:
        return plan.root_labels() + (plan.root_predicate,)
    return plan.root_labels()


def greedy_matching_order(
    query: QueryGraph,
    first: int,
    second: int,
    rank: Callable[[int, int], tuple] | None = None,
) -> tuple[int, ...]:
    """Connectivity-greedy matching order starting from a root edge.

    After binding the root endpoints, repeatedly picks the unbound query
    vertex with the most bound neighbors (maximizing intersection pruning),
    breaking ties by larger query degree then smaller vertex id — the same
    heuristic family STMatch/GraphPi use.  Every chosen vertex has at least
    one bound neighbor (patterns are connected), so every level of the
    resulting plan has at least one constraint.

    ``rank(u, connectivity)``, when given, replaces that key (the largest
    is bound next); it must keep ``connectivity`` first and end in a unique
    tie-break.
    """
    require(query.has_edge(first, second), "root vertices must share a query edge")
    order = [first, second]
    bound = {first, second}
    while len(order) < query.num_vertices:
        best = None
        best_key = None
        for u in range(query.num_vertices):
            if u in bound:
                continue
            connectivity = len(query.neighbors(u) & bound)
            if connectivity == 0:
                continue
            key = (rank(u, connectivity) if rank is not None
                   else (connectivity, query.degree(u), -u))
            if best_key is None or key > best_key:
                best, best_key = u, key
        assert best is not None, "pattern connectivity violated"
        order.append(best)
        bound.add(best)
    return tuple(order)


def _build_levels(
    query: QueryGraph,
    order: Sequence[int],
    version_of_edge,
) -> tuple[LevelPlan, ...]:
    position = {u: p for p, u in enumerate(order)}
    levels: list[LevelPlan] = []
    for p in range(2, len(order)):
        u = order[p]
        constraints = []
        for w in sorted(query.neighbors(u), key=lambda w: position[w]):
            if position[w] < p:
                j = query.edge_index(u, w)
                constraints.append(Constraint(
                    position[w], version_of_edge(j), j,
                    query.predicate_for_index(j),
                ))
        levels.append(LevelPlan(u, query.label(u), tuple(constraints)))
    return tuple(levels)


def _root_edge_choice(query: QueryGraph) -> tuple[int, int]:
    """Root-edge heuristic for static plans: the edge maximizing the degree
    sum of its endpoints (densest anchor, strongest early pruning)."""
    best = max(
        query.edges,
        key=lambda e: (query.degree(e[0]) + query.degree(e[1]),
                       -(e[0] + e[1])),
    )
    return best


def compile_static_plan(query: QueryGraph, root_edge: tuple[int, int] | None = None) -> MatchPlan:
    """Compile the Fig. 2a plan: match ``Q`` against one graph snapshot.

    The root edge is iterated over all directed data edges; every level
    constraint reads the ``CURRENT`` adjacency.  Each embedding is found
    exactly once because the root edge binds to exactly one directed data
    edge per embedding.
    """
    if root_edge is None:
        root_edge = _root_edge_choice(query)
    u_a, u_b = root_edge
    order = greedy_matching_order(query, u_a, u_b)
    levels = _build_levels(query, order, lambda j: EdgeVersion.CURRENT)
    return MatchPlan(
        query=query,
        order=order,
        levels=levels,
        delta_index=None,
        root_predicate=query.predicate_for_index(query.edge_index(u_a, u_b)),
    )


def compile_delta_plans(
    query: QueryGraph,
    order_of: Callable[[QueryGraph, int, int], tuple[int, ...]] = greedy_matching_order,
) -> list[MatchPlan]:
    """Compile the m incremental plans ΔM_1..ΔM_m (paper Fig. 2b–f).

    Plan ``i`` (0-based ``delta_index``) roots at query edge ``e_i``; other
    query edges read OLD when their global index is below ``i`` and NEW when
    above.  Executing all plans against a signed batch and summing the
    per-embedding signs yields exactly ``ΔM = M(G_{k+1}) − M(G_k)``.
    ``order_of(query, u_a, u_b)`` gives each plan's matching order.
    """
    plans: list[MatchPlan] = []
    for i, (u_a, u_b) in enumerate(query.edges):
        order = order_of(query, u_a, u_b)

        def version(j: int, i: int = i) -> EdgeVersion:
            require(j != i, "root edge must not appear as a constraint")
            return EdgeVersion.OLD if j < i else EdgeVersion.NEW

        levels = _build_levels(query, order, version)
        plans.append(
            MatchPlan(
                query=query,
                order=order,
                levels=levels,
                delta_index=i,
                root_predicate=query.predicate_for_index(i),
            )
        )
    return plans
