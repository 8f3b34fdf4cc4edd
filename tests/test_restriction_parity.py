"""A fleet settles a batch once, keyed by shard: each shard's slice, against the oracle.

A fleet expands a batch once and settles it once, every root keyed by the
shard owning its first endpoint (``ShardedDeviceView.readers``) and every
access by its root's shard.  For each shard of a random owner map the split
the fleet's view records must be what the recursive oracle
(``repro.testing.match_batch_recursive(root_mask=…)``) records for the
shard's roots alone — the roots it counts, the counters' totals, the
multiset of ``fetch_block`` accesses — and the sinks see the
oracle's emissions shard by shard.  The oracle's restriction is written
here (``owner[roots[:, 0]] == shard``), not read from the view.  The oracle
descends root by root, so the access *sequence* of a shard is checked
against the kernel launched over the shard's roots alone (the shard folded
into its certify mask), written out node by node.  Across the cover the
slices sum to the whole: the stats, the view's counters and the per-query
counters charged from the settled ``Attribution`` (totals and both
histograms).

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

from repro.core.dcsr import DcsrCache
from repro.core.matching import MatchStats, expand, settle
from repro.core.multiquery import Rulebook
from repro.core.prefilter import InvariantIndex
from repro.core.querytrie import solo_trie
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu.counters import AccessCounters
from repro.gpu.device import BYTES_PER_NEIGHBOR, default_device
from repro.gpu.views import HostCPUView
from repro.multigpu.shard import ShardedDeviceView
from repro.query import QueryGraph, query_by_name
from repro.query.generator import rulebook_suite
from repro.query.plan import compile_delta_plans
from repro.testing import delta_roots, match_batch_recursive
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


class HostFleetView(ShardedDeviceView):
    """The fleet's view keyed by shard, every access a host read — as the
    oracle's host view records it — with each classified block traced
    alongside its readers."""

    def __init__(self, graph, owner, shards):
        empty = DcsrCache.build(graph, np.empty(0, dtype=np.int64))
        super().__init__(graph, DEVICE, AccessCounters(), empty,
                         np.ones(shards, dtype=np.int64), owner)
        self.traced = []

    def classify(self, vertices, lengths, reader):
        self.traced.append((vertices, lengths * BYTES_PER_NEIGHBOR, reader))
        return HostCPUView.classify(self, vertices, lengths)

    def accesses(self, shard: int) -> tuple:
        """The accesses shard ``shard`` read, in settle order."""
        if not self.traced:
            return [], []
        vertices, nbytes, reader = map(np.concatenate, zip(*self.traced))
        return vertices[reader == shard].tolist(), nbytes[reader == shard].tolist()


def totals(counters: AccessCounters) -> dict:
    """A counters' totals: what a shard's split holds (no histogram)."""
    return {k: v for k, v in counters.summary().items() if k != "accesses"}


def prints(counters: AccessCounters, n: int) -> tuple:
    return (counters.summary(), counters.vertex_access_counts(n).tolist(),
            counters.vertex_access_bytes(n).tolist())


def traced(graph):
    counters = AccessCounters()
    return counters, TracingView(HostCPUView(graph, DEVICE, counters))


def accesses(view) -> tuple:
    trace = view.trace()
    return trace.vertices.tolist(), trace.nbytes.tolist()


class Fleet(NamedTuple):
    """One keyed settle: its stats, the fleet's view, the per-query counters
    charged from its ``Attribution`` and what the sinks saw, in order."""

    stats: dict
    view: HostFleetView
    charged: dict
    emitted: list


def settle_fleet(expansion, graph, owner, shards, names) -> Fleet:
    view = HostFleetView(graph, owner, shards)
    emitted = []
    sinks = {name: (lambda emb, s, name=name: emitted.append((name, emb, s))) for name in names}
    stats, attribution = settle(expansion, view, sinks=sinks or None)
    charged = defaultdict(AccessCounters)
    attribution.charge(charged)
    return Fleet(stats, view, charged, emitted)


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


def owned(owner, shard):
    """The oracle's restriction: the roots whose first endpoint ``shard`` owns."""
    return lambda roots: owner[roots[:, 0]] == shard


def assert_cover(fleet: Fleet, n: int) -> None:
    """The shards' splits sum to the whole block the view recorded, and the
    per-query counters charged from the one settle to it too."""
    counters = AccessCounters()
    for one in fleet.view.shard_counters:
        counters.merge(one)
    assert totals(counters) == totals(fleet.view.counters)
    whole = AccessCounters()
    for one in fleet.charged.values():
        whole.merge(one)
    if len(fleet.charged) == 1:  # one query: its counters are the view's
        assert prints(whole, n) == prints(fleet.view.counters, n)


def query_batch(graph, plans, batch, decision, owner, shards, sinks) -> MatchStats:
    trie = solo_trie(plans)
    names = [None] if sinks else []
    masks = None if decision is None else decision.masks
    expansion = expand(trie, batch, graph, sinks=frozenset(names), prefilter=masks)
    fleet = settle_fleet(expansion, graph, owner, shards, names)
    n, total, counters, emitted = graph.num_vertices, MatchStats(), AccessCounters(), []
    for shard in range(shards):
        own = owned(owner, shard)
        stats, theirs, seen, reads = oracle(plans, batch, graph, own, decision, None, sinks)
        assert fleet.view.shard_roots[shard] == stats.roots_processed
        assert totals(fleet.view.shard_counters[shard]) == totals(theirs)
        assert sorted(zip(*fleet.view.accesses(shard))) == sorted(zip(*reads))
        launch = expand(trie, batch, graph, prefilter=shard_masks(trie, batch, graph, own, masks))
        assert fleet.view.accesses(shard) == issue_order(launch)
        total.merge(stats)
        counters.merge(theirs)
        emitted += seen
    assert fleet.stats[None] == total
    assert prints(fleet.charged[None], n) == prints(counters, n)
    assert fleet.emitted == emitted  # shard by shard, each in plan order
    assert_cover(fleet, n)
    return total


def rulebook_batch(graph, batch, decision, owner, shards, sinks) -> MatchStats:
    routing = Rulebook._routing(decision)
    reps = [q.name for q in RULEBOOK.representatives if q.name not in routing["skip"]]
    names = reps if sinks else []
    expansion = expand(RULEBOOK.trie, batch, graph, sinks=frozenset(names), **routing)
    fleet = settle_fleet(expansion, graph, owner, shards, names)
    n, emitted = graph.num_vertices, []
    by_query = {q: [MatchStats(), AccessCounters()] for q in reps}
    for shard in range(shards):
        own = owned(owner, shard)
        for q in reps:
            stats, counters, seen, _ = oracle(
                RULEBOOK.plans[q], batch, graph, own,
                None if decision is None else decision.by_query[q], q, sinks,
            )
            by_query[q][0].merge(stats)
            by_query[q][1].merge(counters)
            emitted += seen
        certify = shard_masks(RULEBOOK.trie, batch, graph, own, routing["prefilter"])
        launch = expand(RULEBOOK.trie, batch, graph, skip=routing["skip"], prefilter=certify)
        assert fleet.view.accesses(shard) == issue_order(launch)
        counters, view = traced(graph)
        alone = settle(launch, view)[0]
        assert totals(fleet.view.shard_counters[shard]) == totals(counters)
        assert fleet.view.shard_roots[shard] == sum(s.roots_processed for s in alone.values())
    for q, (stats, counters) in by_query.items():
        mine = fleet.stats[q]
        assert [e for e in fleet.emitted if e[0] == q] == [e for e in emitted if e[0] == q]
        assert (mine.signed_count, mine.embeddings_found) == (
            stats.signed_count, stats.embeddings_found)
        if decision is None:
            assert mine == stats
            assert prints(fleet.charged[q], n) == prints(counters, n)
    assert_cover(fleet, n)
    total = MatchStats()
    for one in fleet.stats.values():
        total.merge(one)
    return total


def run(seed, shards, case, prefilter, sinks) -> MatchStats:
    """Every batch of a small stream, settled once over a random owner map;
    the totals."""
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
