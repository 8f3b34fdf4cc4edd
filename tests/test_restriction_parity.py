"""A shard settles a slice of the one expansion: the restriction, against the oracle.

A fleet expands a batch once and every shard settles the rows its roots grew
(``settle(expansion, view, root_mask=…)``).  For each shard of a random owner
map that slice must be what the recursive oracle
(``repro.testing.match_batch_recursive(root_mask=…)``) records for the
shard's roots alone: ``MatchStats`` (``roots_skipped`` included), the
counters' totals and both histograms, the per-query counters charged from
the settled ``Attribution``, the sink emission order and the multiset of
``fetch_block`` accesses.  The oracle descends root by root, so the access
*sequence* is checked against the kernel launched over the shard's roots
alone (the shard folded into its certify mask), written out node by node.
Across the cover the slices sum to the unrestricted settle.

On a rulebook the oracle runs each representative's own plans; under the
pre-filter a root group is certified for all its members at once (coarser
than a query's own masks), so there ΔM, embeddings and sinks are compared
per query and the rest against the per-shard launch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import MatchStats, delta_roots, expand, settle
from repro.core.multiquery import Rulebook
from repro.core.prefilter import InvariantIndex
from repro.core.querytrie import solo_trie
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu.counters import AccessCounters
from repro.gpu.device import BYTES_PER_NEIGHBOR, default_device
from repro.gpu.views import HostCPUView
from repro.query import QueryGraph, query_by_name
from repro.query.generator import rulebook_suite
from repro.query.plan import compile_delta_plans
from repro.testing import match_batch_recursive
from repro.testing.trace import TracingView

DEVICE = default_device()
QUERIES = {
    "Q1": query_by_name("Q1"),
    "Q3": query_by_name("Q3"),
    "Q1w": QueryGraph(5, query_by_name("Q1").edges, name="Q1w").with_edge_predicates(
        {(0, 1): (0.2, 0.5), (1, 4): (0.2, 0.5)}
    ),
}
RULEBOOK = Rulebook(rulebook_suite(8, num_labels=3, seed=0))


def shard_masks(trie, batch, graph, own, masks):
    """A shard folded into each root group's keep-mask: the kernel launched
    over the shard's roots alone (its other roots certified away), under the
    pre-filter's group masks where there are some."""
    out = []
    for group, node in enumerate(trie.levels[0].nodes):
        keep = own(delta_roots(node.members[0].plan, batch, graph.labels)[0])
        out.append(keep if masks is None else keep & masks[group])
    return out


class Settled(NamedTuple):
    stats: dict
    counters: AccessCounters
    charged: dict
    emitted: list
    accesses: tuple


def prints(counters: AccessCounters, n: int) -> tuple:
    return (counters.summary(), counters.vertex_access_counts(n).tolist(),
            counters.vertex_access_bytes(n).tolist())


def traced(graph):
    counters = AccessCounters()
    return counters, TracingView(HostCPUView(graph, DEVICE, counters))


def accesses(view) -> tuple:
    trace = view.trace()
    return trace.vertices.tolist(), trace.nbytes.tolist()


def settle_slice(expansion, graph, own, names) -> Settled:
    counters, view = traced(graph)
    emitted = []
    sinks = {name: (lambda emb, s, name=name: emitted.append((name, emb, s))) for name in names}
    stats, attribution = settle(expansion, view, sinks=sinks or None, root_mask=own)
    charged = defaultdict(AccessCounters)
    attribution.charge(charged)
    return Settled(stats, counters, charged, emitted, accesses(view))


def oracle(plans, batch, graph, own, decision, name, sinks):
    counters, view = traced(graph)
    emitted = []
    sink = (lambda emb, s: emitted.append((name, emb, s))) if sinks else None
    stats = match_batch_recursive(plans, batch, view, sink=sink, root_mask=own,
                                  prefilter=decision)
    return stats, counters, emitted, accesses(view)


def issue_order(expansion) -> tuple:
    """A run's accesses as a node-by-node execution issues them: trie
    pre-order, a node's reads in its launch's log order — written as a loop
    over the nodes, not as :func:`settle`'s stable sort."""
    if not expansion.logs:
        return [], []
    node, vertex, length = map(np.concatenate, zip(*expansion.logs))
    pick = np.concatenate([np.flatnonzero(node == n) for n in sorted(set(node.tolist()))])
    return vertex[pick].tolist(), (length[pick] * BYTES_PER_NEIGHBOR).tolist()


def assert_cover(whole: Settled, parts: list[Settled], n: int) -> None:
    """The slices of a cover sum to the unrestricted settle."""
    stats = {name: MatchStats() for name in whole.stats}
    counters, charged = AccessCounters(), defaultdict(AccessCounters)
    for part in parts:
        for name, one in part.stats.items():
            stats[name].merge(one)
        counters.merge(part.counters)
        for name, one in part.charged.items():
            charged[name].merge(one)
    assert stats == whole.stats
    assert prints(counters, n) == prints(whole.counters, n)
    assert {q: prints(c, n) for q, c in charged.items()} == {
        q: prints(c, n) for q, c in whole.charged.items()
    }
    assert sorted(e for part in parts for e in part.emitted) == sorted(whole.emitted)


def query_batch(graph, plans, batch, decision, owner, shards, sinks) -> MatchStats:
    trie = solo_trie(plans)
    names = [None] if sinks else []
    masks = None if decision is None else decision.masks
    expansion = expand(trie, batch, graph, sinks=frozenset(names), prefilter=masks)
    n, parts = graph.num_vertices, []
    for shard in range(shards):
        def own(roots, shard=shard):
            return owner[roots[:, 0]] == shard

        got = settle_slice(expansion, graph, own, names)
        stats, counters, emitted, seen = oracle(plans, batch, graph, own, decision, None, sinks)
        assert got.stats[None] == stats
        assert prints(got.counters, n) == prints(counters, n) == prints(got.charged[None], n)
        assert got.emitted == emitted
        assert sorted(zip(*got.accesses)) == sorted(zip(*seen))
        launch = expand(trie, batch, graph, prefilter=shard_masks(trie, batch, graph, own, masks))
        assert got.accesses == issue_order(launch)
        parts.append(got)
    whole = settle_slice(expansion, graph, None, names)
    assert_cover(whole, parts, n)
    return whole.stats[None]


def rulebook_batch(graph, batch, decision, owner, shards, sinks) -> MatchStats:
    routing = Rulebook._routing(decision)
    reps = [q.name for q in RULEBOOK.representatives if q.name not in routing["skip"]]
    names = reps if sinks else []
    expansion = expand(RULEBOOK.trie, batch, graph, sinks=frozenset(names), **routing)
    n, parts = graph.num_vertices, []
    for shard in range(shards):
        def own(roots, shard=shard):
            return owner[roots[:, 0]] == shard

        got = settle_slice(expansion, graph, own, names)
        for q in reps:
            stats, counters, emitted, _ = oracle(
                RULEBOOK.plans[q], batch, graph, own,
                None if decision is None else decision.by_query[q], q, sinks,
            )
            assert [e for e in got.emitted if e[0] == q] == emitted
            mine = got.stats[q]
            assert (mine.signed_count, mine.embeddings_found) == (
                stats.signed_count, stats.embeddings_found)
            if decision is None:
                assert mine == stats
                assert prints(got.charged[q], n) == prints(counters, n)
        certify = shard_masks(RULEBOOK.trie, batch, graph, own, routing["prefilter"])
        launch = expand(RULEBOOK.trie, batch, graph, skip=routing["skip"], prefilter=certify)
        assert got.accesses == issue_order(launch)
        assert prints(got.counters, n) == prints(settle_slice(launch, graph, None, []).counters, n)
        parts.append(got)
    whole = settle_slice(expansion, graph, None, names)
    assert_cover(whole, parts, n)
    total = MatchStats()
    for one in whole.stats.values():
        total.merge(one)
    return total


def run(seed, shards, case, prefilter, sinks) -> MatchStats:
    """Every batch of a small stream, sliced over a random owner map; the
    unrestricted totals."""
    g = powerlaw_graph(300, 7.0, max_degree=40, num_labels=3, seed=seed)
    g0, batches = derive_stream(g, num_updates=64, batch_size=32, seed=seed + 1)
    graph = DynamicGraph(g0)
    index = InvariantIndex(graph) if prefilter else None
    owner = np.random.default_rng(seed).integers(0, shards, size=graph.num_vertices)
    plans = None if case == "rulebook8" else compile_delta_plans(QUERIES[case])
    total = MatchStats()
    for raw in batches:
        batch = graph.apply_batch(raw)
        decision = None
        if index is not None:
            index.apply_batch(batch)
            decision = (RULEBOOK.evaluate(index, batch) if plans is None
                        else index.evaluate(plans, batch))
        if plans is None:
            total.merge(rulebook_batch(graph, batch, decision, owner, shards, sinks))
        else:
            total.merge(query_batch(graph, plans, batch, decision, owner, shards, sinks))
        graph.reorganize()
        if index is not None:
            index.close_batch()
    return total


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.sampled_from([2, 3, 4]),
    case=st.sampled_from([*QUERIES, "rulebook8"]),
    prefilter=st.booleans(),
    sinks=st.booleans(),
)
def test_a_shards_slice_equals_the_oracle(seed, shards, case, prefilter, sinks):
    run(seed, shards, case, prefilter, sinks)


def test_the_slices_are_not_vacuous():
    """Matches found, roots certified away and every case sliced at least
    once on fixed seeds — the hypothesis test above has work to check."""
    for case in [*QUERIES, "rulebook8"]:
        total = run(5, 3, case, prefilter=True, sinks=True)
        assert total.embeddings_found > 0 and total.roots_skipped > 0, case
