"""The driver's one root pass equals the per-group pipeline it replaced.

:func:`repro.core.matching.trie_roots` routes every live root group's roots
at once: one ``(groups, 2b)`` mask over the batch's directed updates, the
prefilter keep-masks scattered into its label bits group-major, candidate
filters and root predicates applied as columns, one ``nonzero``.
:func:`repro.testing.trie_roots_reference` is the pipeline it replaced, one
``route_roots`` per root group.  On fixed seeded batches the two return the
same ``(roots, signs, processed, dropped, skipped)``, array for array —
with wildcard labels and root predicates of different bounds side by side,
prefilter keep-masks, RapidFlow-style candidate filters, ``batch=None``
(the settled snapshot's edges), no live group and a live group with no
roots.
"""

from __future__ import annotations

import numpy as np

import repro.core.matching as matching
from repro.core.querytrie import ExecutionTrie, solo_trie
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_delta_plans
from repro.testing import delta_roots, trie_roots_reference

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="tri")  # wildcard labels
TAILED = QueryGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 1, 1], name="tailed")
#: label 7 is on no data vertex: a root group that never has a root
ABSENT = QueryGraph(2, [(0, 1)], [7, 0], name="absent")
QUERIES = [
    TRIANGLE,
    TRIANGLE.with_edge_predicates({e: (0.0, 0.4) for e in TRIANGLE.edges}, name="tri-low"),
    TAILED,
    TAILED.with_edge_predicates({e: (0.3, 0.9) for e in TAILED.edges}, name="tailed-high"),
    ABSENT,
]
SEEDS = range(6)


def rulebook_trie() -> ExecutionTrie:
    return ExecutionTrie({q.name: compile_delta_plans(q) for q in QUERIES})


def open_batch(seed: int) -> tuple[DynamicGraph, object]:
    """A store holding one open batch of a seeded stream."""
    g = erdos_renyi(60, 5.0, num_labels=3, seed=seed)
    g0, batches = derive_stream(g, num_updates=48, batch_size=48, seed=seed + 1)
    graph = DynamicGraph(g0)
    return graph, graph.apply_batch(batches[0])


def keep_masks(trie, batch, graph, rng) -> list[np.ndarray]:
    """A random keep-mask per root group over its label-matched updates."""
    return [
        rng.random(delta_roots(node.members[0].plan, batch, graph.labels)[0].shape[0]) < 0.6
        for node in trie.levels[0].nodes
    ]


def check_routing(trie, batch, graph, live, **routing) -> tuple:
    """The one pass and the per-group pipeline agree; returns the pass."""
    got = matching.trie_roots(trie, batch, graph, live, **routing)
    want = trie_roots_reference(trie, batch, graph, live, **routing)
    for name, a, b in zip(("roots", "signs", "processed", "dropped", "skipped"), got, want):
        assert a.shape == b.shape and np.array_equal(a, b), name
    return got


def routing_cases():
    """Every covered shape on every seed: ``(trie, batch, graph, live, routing)``."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        graph, batch = open_batch(seed)
        trie = rulebook_trie()
        groups = np.arange(len(trie.levels[0].nodes))
        masks = keep_masks(trie, batch, graph, rng)
        subset = np.flatnonzero(rng.random(groups.size) < 0.5)
        yield trie, batch, graph, groups, {}
        yield trie, batch, graph, groups, {"prefilter": masks}
        yield trie, batch, graph, subset, {"prefilter": masks}
        yield trie, batch, graph, groups[:0], {"prefilter": masks}
        yield trie, None, graph, groups, {}
        solo = solo_trie(compile_delta_plans(TAILED))
        filters = {u: np.flatnonzero(rng.random(graph.num_vertices) < 0.7) for u in (0, 2)}
        every = np.arange(len(solo.levels[0].nodes))
        yield solo, batch, graph, every, {"filters": filters}
        yield solo, batch, graph, every, {"filters": filters,
                                          "prefilter": keep_masks(solo, batch, graph, rng)}


def routing_gate() -> None:
    """:func:`check_routing` over the fixed cases, which between them route
    roots, certify some away, predicate-filter some and leave a live group
    without roots."""
    routed = dropped = empty = filtered = 0
    for trie, batch, graph, live, routing in routing_cases():
        roots, _, processed, gone, skipped = check_routing(trie, batch, graph, live, **routing)
        routed += roots.shape[0]
        dropped += gone.shape[0]
        empty += int((processed[live] + skipped[live] == 0).sum())
        if batch is not None and not routing:  # roots a predicate kept out
            for line, node in enumerate(trie.levels[0].nodes):
                if node.members[0].plan.root_predicate is not None:
                    labelled = delta_roots(node.members[0].plan, batch, graph.labels)[0]
                    filtered += labelled.shape[0] - int(processed[line])
    assert routed and dropped and empty and filtered


class TestOnePassRouting:
    def test_the_root_table_holds_each_group(self):
        trie = rulebook_trie()
        table = trie.root_table
        for line, node in enumerate(trie.levels[0].nodes):
            plan = node.members[0].plan
            assert tuple(table.pair[line]) == plan.root_labels()
            assert tuple(table.query_vertex[line]) == plan.order[:2]
            assert tuple(table.bounds[line]) == (plan.root_predicate or (-np.inf, np.inf))
        assert table.predicated and (table.pair < 0).any()  # predicates and wildcards

    def test_equals_the_per_group_pipeline(self):
        routing_gate()

    def test_no_live_group_routes_nothing(self):
        graph, batch = open_batch(0)
        trie = rulebook_trie()
        roots, signs, processed, dropped, skipped = check_routing(
            trie, batch, graph, np.empty(0, dtype=np.int64),
            prefilter=keep_masks(trie, batch, graph, np.random.default_rng(0)),
        )
        assert roots.shape == dropped.shape == (0, 2) and signs.size == 0
        assert not processed.any() and not skipped.any()

    def test_static_roots_are_every_edge_both_ways(self):
        graph, _ = open_batch(1)
        trie = solo_trie(compile_delta_plans(TRIANGLE))  # wildcard: every directed edge
        roots, signs, processed, _, _ = check_routing(trie, None, graph, np.array([0]))
        assert roots.shape[0] == 2 * graph.num_edges == processed[0]
        assert (signs == 1).all()
