"""The fused launch: a trie of plans advances in one frontier, settled once.

Contracts of the one match driver (``match_trie``, under ``match_batch``
and the rulebook alike) that only show when plans differ or the view is
order-sensitive:

* every per-plan feature — ragged constraint counts, wildcard labels,
  candidate filters, edge predicates, empty root sets, plans of different
  depths, a fleet settling once by shard — is served per row by the
  one fused path, bit-identical (counters, ``MatchStats``, histograms, sink
  order) to the recursive oracle;
* the batch's accesses reach the view in trie pre-order — the order running
  the plans one after another (a rulebook: node by node) would issue them —
  which the LRU pager of ``UnifiedMemoryView`` observes as soon as it evicts.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import repro.core.frontier as frontier
from repro.core.dcsr import DcsrCache
from repro.core.matching import expand, match_batch, match_static, match_trie, settle
from repro.core.multiquery import MultiQueryEngine, Rulebook
from repro.graphs import datasets
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu.counters import AccessCounters
from repro.gpu.device import default_device
from repro.gpu.views import HostCPUView, UnifiedMemoryView, ZeroCopyView
from repro.query import query_by_name
from repro.query.generator import rulebook_suite
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_delta_plans, compile_static_plan
from repro.testing import (
    match_batch_recursive,
    match_static_recursive,
    sharded_view,
    use_reference_kernels,
)
from repro.testing.trace import TracingView
from repro.testing.validation import verify_rulebook
from tests.test_frontier_parity import fingerprint

DEVICE = default_device()
#: a pager of four pages: every batch evicts
TIGHT = replace(
    DEVICE,
    um_cache_fraction=4.5 * DEVICE.um_page_bytes / DEVICE.global_memory_bytes
)


def both_kernels(g0, batches, plans, make_view=None, with_sink=True, **options):
    """Per batch, ``(fingerprint, sink trace)`` of the fused kernel and of
    the recursive oracle on the same stream."""
    make_view = make_view or (lambda graph, c: HostCPUView(graph, DEVICE, c))
    runs = []
    for kernel in (match_batch, match_batch_recursive):
        graph = DynamicGraph(g0)
        out = []
        for batch in batches:
            graph.apply_batch(batch)
            counters = AccessCounters()
            emitted: list = []
            if with_sink:
                options["sink"] = lambda e, s, emitted=emitted: emitted.append((e, s))
            stats = kernel(plans, batch, make_view(graph, counters), **options)
            graph.reorganize()
            out.append((fingerprint(counters, stats, graph.num_vertices), emitted))
        runs.append(out)
    return runs


def stream(seed, num_labels=3, n=500):
    g = powerlaw_graph(n, 6.0, max_degree=40, num_labels=num_labels, seed=seed)
    return derive_stream(g, num_updates=96, batch_size=32, seed=seed + 1)


class TestFusedPathsMatchTheOracle:
    def test_ragged_constraint_counts_at_one_level(self):
        plans = compile_delta_plans(query_by_name("Q1"))
        widths = {len(p.levels[0].constraints) for p in plans}
        assert widths == {1, 2}  # the case: rows of one launch differ in K
        fused, oracle = both_kernels(*stream(3), plans)
        assert fused == oracle
        assert any(f["embeddings"] for f, _ in fused)

    def test_wildcard_plan_beside_labelled_ones(self):
        query = QueryGraph(
            4, [(0, 1), (1, 2), (2, 3), (0, 2)], labels=[0, -1, 1, -1], name="mixed"
        )
        plans = compile_delta_plans(query)
        first = {p.levels[0].label for p in plans}
        assert -1 in first and len(first) > 1  # one launch, both label kinds
        fused, oracle = both_kernels(*stream(5, num_labels=2), plans)
        assert fused == oracle
        assert any(f["embeddings"] for f, _ in fused)

    def test_candidate_filters_on_a_subset_of_query_vertices(self):
        g0, batches = stream(7)
        query = query_by_name("Q1")
        # only u2 and u4 are indexed; the other levels fall back to labels
        filters = {
            u: np.flatnonzero(g0.labels == query.label(u))[::2].astype(np.int64)
            for u in (2, 4)
        }
        fused, oracle = both_kernels(
            g0, batches, compile_delta_plans(query), filters=filters
        )
        assert fused == oracle
        assert any(f["tree_nodes"] > f["roots"] for f, _ in fused)

    def test_edge_predicate_on_one_plans_constraint_only(self):
        # the predicated edge (0, 2) is the root of one plan and a level
        # constraint of the others, at different levels
        query = QueryGraph(
            4, [(0, 1), (1, 2), (2, 3), (0, 2)], labels=[0, 0, 1, 1], name="pred",
            edge_predicates={(0, 2): (0.0, 0.6)},
        )
        plans = compile_delta_plans(query)
        predicated = [
            sum(c.predicate is not None for lvl in p.levels for c in lvl.constraints)
            for p in plans
        ]
        assert 0 in predicated and max(predicated) > 0
        fused, oracle = both_kernels(*stream(9, num_labels=2), plans)
        assert fused == oracle
        assert any(f["embeddings"] for f, _ in fused)

    def test_a_plan_whose_roots_are_empty(self):
        # label 2 never occurs: every plan rooted at a u3 edge has no roots
        query = QueryGraph(
            4, [(0, 1), (1, 2), (0, 2), (2, 3)], labels=[0, 1, 0, 2], name="rare"
        )
        g0, batches = stream(11, num_labels=2)
        assert not (g0.labels == 2).any()
        fused, oracle = both_kernels(g0, batches, compile_delta_plans(query))
        assert fused == oracle
        assert any(f["roots"] for f, _ in fused)

    def test_depth_two_query_has_no_level_to_launch(self):
        plans = compile_delta_plans(QueryGraph(2, [(0, 1)], labels=[0, 1], name="edge"))
        assert plans[0].depth == 2 and not plans[0].levels
        fused, oracle = both_kernels(*stream(13, num_labels=2), plans)
        assert fused == oracle
        assert any(trace for _, trace in fused)

    def test_two_device_fleet_settles_once_by_shard(self):
        """Both kernels through one fleet view: the fused one settles once,
        keyed by shard; the oracle descends each shard's roots in turn."""
        g0, batches = stream(15)
        plans = compile_delta_plans(query_by_name("Q1"))
        owner = np.arange(g0.num_vertices) % 2
        views = []

        def view(graph, counters):
            caches = [DcsrCache.build(graph, np.flatnonzero(owner == s)[::3]) for s in (0, 1)]
            views.append(sharded_view(graph, DEVICE, counters, caches, owner))
            return views[-1]

        fused, oracle = both_kernels(g0, batches, plans, view)
        assert fused == oracle  # the sinks' order too: shard by shard
        assert any(f["bytes"]["peer"] for f, _ in fused)
        half = len(views) // 2
        for mine, theirs in zip(views[:half], views[half:]):
            assert mine.roots.tolist() == theirs.roots.tolist()
            assert (mine.hits, mine.misses) == (theirs.hits, theirs.misses)
            assert mine.totals.tolist() == theirs.totals.tolist()

    def test_match_static_is_the_one_plan_case(self):
        g = powerlaw_graph(400, 5.0, max_degree=30, num_labels=2, seed=17)
        plan = compile_static_plan(QueryGraph(
            4, [(0, 1), (1, 2), (0, 2), (2, 3)], labels=[0, 1, 0, 1], name="tailed"
        ))
        runs = []
        for kernel in (match_static, match_static_recursive):
            counters = AccessCounters()
            emitted: list = []
            stats = kernel(
                plan, ZeroCopyView(DynamicGraph(g), DEVICE, counters),
                sink=lambda e, s: emitted.append((e, s)),
            )
            runs.append((fingerprint(counters, stats, g.num_vertices), emitted))
        assert runs[0] == runs[1]
        assert runs[0][1]


# ----------------------------------------------------------------------
# label pushdown ahead of a row's final probe
# ----------------------------------------------------------------------
def ragged_queries(**pred):
    """4-path, chorded 4-cycle, K4 and a fan whose last vertex is a wildcard:
    bound fourth, a vertex is intersected from 1, 2, 3 and 2 lists."""
    path = QueryGraph(4, [(0, 1), (1, 2), (2, 3)], labels=[0, 1, 0, 1], name="path4")
    diamond = QueryGraph(
        4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], labels=[0, 1, 0, 1], name="diamond",
        **pred,
    )
    k4 = QueryGraph(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], labels=[0, 1, 0, 1], name="k4"
    )
    fan = QueryGraph(
        4, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)], labels=[0, 1, 0, -1], name="fan"
    )
    return path, diamond, k4, fan


def ragged_plans(**pred):
    return [p for q in ragged_queries(**pred) for p in compile_delta_plans(q)]


def dense_stream(seed):
    g = powerlaw_graph(260, 14.0, max_degree=60, num_labels=2, seed=seed)
    return derive_stream(g, num_updates=72, batch_size=24, seed=seed + 1)


class TestLabelPushdown:
    """``join_rows`` drops label-mismatched candidates ahead of a row's
    *final* probe only: each launch is replayed with the pushdown off and
    must agree on everything that is charged, and the whole run — ΔM,
    ``MatchStats``, channel totals, both histograms, sink order and the
    multiset of accesses — equals the recursive oracle's."""

    @pytest.fixture
    def launches(self, monkeypatch):
        """Per ``join_rows`` call of the fused kernel: ``(valid, label, what
        it returned, what it returns with the pushdown off)``."""
        seen = []
        join_rows = frontier.join_rows

        def recorded(graph, verts, old, valid, label=None):
            out = join_rows(graph, verts, old, valid, label)
            seen.append((graph.labels, valid, label, out, join_rows(graph, verts, old, valid)))
            return out

        monkeypatch.setattr(frontier, "join_rows", recorded)
        return seen

    @staticmethod
    def check(launches):
        """What the pushdown may and may not move; returns ``(constraint
        counts seen in one launch, candidates dropped early, rows emptied at
        their final probe, wildcard rows past a probe)``."""
        counts, dropped, emptied, wild = set(), 0, 0, 0
        for labels, valid, label, on, off in launches:
            count = valid.sum(axis=1)
            counts.add(frozenset(count.tolist()))
            flat_on, row_on, cnt_on, log_on, compute_on = on
            flat_off, row_off, cnt_off, log_off, compute_off = off
            for row, cnt in ((row_on, cnt_on), (row_off, cnt_off)):  # the threaded map
                assert np.array_equal(row, np.repeat(np.arange(cnt.size), cnt))
            for a, b in zip(log_on, log_off):
                assert np.array_equal(a, b)
            assert np.array_equal(compute_on, compute_off)
            if label is None:  # a launch with filters: nothing is pushed down
                assert np.array_equal(flat_on, flat_off) and np.array_equal(cnt_on, cnt_off)
                continue
            fits = (label[row_off] == -1) | (labels[flat_off] == label[row_off])
            # a row with no probe keeps its pre-label set; past its final
            # probe it holds exactly the label-matching part
            keep = fits | (count[row_off] == 1)
            assert np.array_equal(flat_on, flat_off[keep])
            assert np.array_equal(row_on, row_off[keep])
            dropped += int((~keep).sum())
            final = np.zeros(count.size, dtype=bool)
            final[log_on.row[log_on.slot == count[log_on.row] - 1]] = True
            emptied += int((final & (count > 1) & (cnt_off == 0)).sum())
            wild += int(((label == -1) & (count > 1) & (cnt_on > 0)).sum())
        return counts, dropped, emptied, wild

    def test_final_probe_differs_per_row(self, launches):
        fused, oracle = both_kernels(*dense_stream(31), ragged_plans())
        assert fused == oracle
        assert any(f["embeddings"] for f, _ in fused)
        counts, dropped, emptied, wild = self.check(launches)
        assert frozenset({1, 2, 3}) in counts  # one launch, three final slots
        assert dropped > 0 and emptied > 0 and wild > 0

    def test_pushdown_is_off_under_candidate_filters(self, launches):
        g0, batches = dense_stream(33)
        filters = {3: np.flatnonzero(g0.labels == 1)[::2].astype(np.int64)}
        fused, oracle = both_kernels(g0, batches, ragged_plans(), filters=filters)
        assert fused == oracle
        assert any(f["tree_nodes"] > f["roots"] for f, _ in fused)
        assert launches and all(label is None for _, _, label, _, _ in launches)
        self.check(launches)

    def test_predicated_line(self, launches):
        plans = ragged_plans(edge_predicates={(0, 3): (0.0, 0.6)})
        assert any(c.predicate for p in plans for lvl in p.levels for c in lvl.constraints)
        fused, oracle = both_kernels(*dense_stream(35), plans)
        assert fused == oracle
        assert any(f["embeddings"] for f, _ in fused)
        assert self.check(launches)[1] > 0

    def test_access_multiset_equals_the_oracle(self):
        g0, batches = dense_stream(37)
        traces = []
        for kernel in (match_batch, match_batch_recursive):
            graph = DynamicGraph(g0)
            view = TracingView(ZeroCopyView(graph, DEVICE, AccessCounters()))
            for batch in batches:
                graph.apply_batch(batch)
                kernel(ragged_plans(), batch, view)
                graph.reorganize()
            trace = view.trace()
            traces.append(sorted(zip(trace.vertices.tolist(), trace.nbytes.tolist())))
        assert traces[0] == traces[1] and len(traces[0]) > 1_000


def mixed_depth_plans(order=1):
    """Triangle, 4-path and Q1 ΔM plans in one list (depths 3, 4 and 5)."""
    triangle = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, 0], name="tri")
    path = QueryGraph(4, [(0, 1), (1, 2), (2, 3)], labels=[0, 1, 0, 1], name="path4")
    plans = [
        p for q in (triangle, path, query_by_name("Q1"))[::order]
        for p in compile_delta_plans(q)
    ]
    assert {p.depth for p in plans} == {3, 4, 5}
    return plans


class TestSettleOrderUnderEviction:
    """The settle key is ``(plan, level, slot, constraint, row)``: on a pager
    that evicts, fusing the plans must not change a single fault."""

    @staticmethod
    def fused_equals_plan_by_plan(plans):
        g = powerlaw_graph(3_000, 8.0, max_degree=80, num_labels=2, seed=21)
        g0, batches = derive_stream(g, num_updates=192, batch_size=64, seed=22)
        graph = DynamicGraph(g0)
        evictions = 0
        for batch in batches:
            graph.apply_batch(batch)
            fused = UnifiedMemoryView(graph, TIGHT, AccessCounters())
            match_batch(plans, batch, fused)
            serial = UnifiedMemoryView(graph, TIGHT, AccessCounters())
            for plan in plans:  # one view, one pager
                match_batch([plan], batch, serial)
            graph.reorganize()
            assert fused.counters.summary() == serial.counters.summary()
            assert fused.counters.transactions_by_channel == (
                serial.counters.transactions_by_channel
            )
            assert fused.pager.total_evictions == serial.pager.total_evictions
            evictions += fused.pager.total_evictions
        assert evictions > 0  # the gate has teeth only under pressure
        assert fused.pager.capacity_pages == 4

    def test_um_counters_equal_plan_by_plan_execution(self):
        self.fused_equals_plan_by_plan(compile_delta_plans(query_by_name("Q1")))

    def test_plans_of_different_depths_settle_plan_by_plan(self):
        self.fused_equals_plan_by_plan(mixed_depth_plans())


class TestPlansEndAtAnyDepth:
    """Plans of different depths share the launches they have in common;
    a plan that ends early is emitted at its node while the rest go on."""

    @pytest.mark.parametrize("with_sink", [True, False], ids=["sinks", "counted"])
    def test_triangle_path_and_q1_in_one_list(self, with_sink):
        for order in (1, -1):  # the deepest plans last, then first
            fused, oracle = both_kernels(
                *stream(23, num_labels=2), mixed_depth_plans(order),
                lambda graph, c: UnifiedMemoryView(graph, DEVICE, c),
                with_sink=with_sink,
            )
            assert fused == oracle
            assert all(f["embeddings"] and f["um_faults"] for f, _ in fused)
            assert any(trace for _, trace in fused) == with_sink

    def test_rulebook_emits_at_inner_nodes(self):
        """A 2-vertex query ends at a root group and a triangle at depth-1
        nodes that a 5-vertex query's plans go on from."""
        edge = QueryGraph(2, [(0, 1)], labels=[0, 1], name="edge")
        tri = QueryGraph(3, [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 0], name="tri")
        tailed = QueryGraph(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], labels=[0, 1, 0, 1, 0],
            name="tailed",
        )
        queries = [edge, tri, tailed]
        inner = [
            (depth, ref.query_name)
            for depth, level in enumerate(Rulebook(queries).trie.levels)
            for node in level.nodes if node.children
            for ref in node.terminal
        ]
        assert (0, "edge") in inner and (1, "tri") in inner
        g0, batches = stream(25, num_labels=2)
        report = verify_rulebook(
            g0, queries, batches,
            legs={
                "production": None,
                "reference": partial(use_reference_kernels, estimator=False),
            },
        )
        assert report.total_delta != 0
        traces = []
        for shared in (True, False):
            engine = MultiQueryEngine(g0, queries, shared=shared)
            out = {q.name: [] for q in queries}
            sinks = {
                name: (lambda e, s, name=name: out[name].append((e, s))) for name in out
            }
            for batch in batches:
                engine.process_batch(batch, sinks=sinks)
            traces.append(out)
        assert traces[0] == traces[1]  # order included
        assert all(traces[0].values())


class TestTrieSettleOrder:
    """The rulebook's *shared* counters — what prices ``match_ns`` — pinned
    as literals recorded before the node-by-node trie walk was replaced by
    the per-depth launch (AZ × ``rulebook_suite(8, num_labels=3)`` × 6 mixed
    batches, seed 0; columns are ``AccessCounters.summary()`` in key order).
    Under the four-page pager every fault depends on the settle order being
    the walk's: trie pre-order.  Both rows also pin that a node shared by k
    plans is charged to the shared counters once, not k times.  ``CACHED``'s
    first two columns (zero-copy / global bytes) split by which lists the
    *sampled* cache holds: re-recorded when the estimator's draw order
    changed, and again when the rulebook's walk moved from every query's
    chains to the merged trie — per batch their sum and every other
    column are the original literals; ``UNIFIED_TIGHT`` has no cache and did
    not move."""

    CACHED = [
        (14256, 72096, 0, 0, 0, 0, 0, 0, 33128, 981, 10),
        (12856, 36628, 0, 0, 0, 0, 0, 0, 20920, 752, 4),
        (57792, 116544, 0, 0, 0, 0, 0, 0, 64009, 1587, 55),
        (9772, 52324, 0, 0, 0, 0, 0, 0, 25598, 834, 106),
        (26480, 56124, 0, 0, 0, 0, 0, 0, 33105, 1063, 6),
        (5740, 17556, 0, 0, 0, 0, 0, 0, 9412, 356, 1),
    ]
    UNIFIED_TIGHT = [
        (0, 86352, 0, 0, 608, 368, 0, 0, 26261, 981, 10),
        (0, 49484, 0, 0, 524, 229, 0, 0, 15656, 752, 4),
        (0, 174336, 0, 0, 933, 660, 0, 0, 52900, 1587, 55),
        (0, 62096, 0, 0, 509, 323, 0, 0, 19760, 834, 106),
        (0, 82604, 0, 0, 709, 350, 0, 0, 25664, 1063, 6),
        (0, 23296, 0, 0, 232, 125, 0, 0, 7276, 356, 1),
    ]

    @staticmethod
    def shared_counters(**settings):
        graph = datasets.DATASETS["AZ"].build(0)
        g0, batches = derive_stream(graph, num_updates=6 * 48, batch_size=48, seed=0)
        engine = MultiQueryEngine(
            g0, rulebook_suite(8, num_labels=3, seed=0), seed=0, **settings
        )
        return [
            tuple(int(v) for v in engine.process_batch(b).match_counters.summary().values())
            for b in batches
        ]

    def test_cached_placement(self):
        assert self.shared_counters() == self.CACHED

    def test_unified_placement_under_eviction(self):
        assert self.shared_counters(placement="unified", device=TIGHT) == self.UNIFIED_TIGHT
        roomy = self.shared_counters(placement="unified")
        faults = list(AccessCounters().summary()).index("um_faults")
        assert all(  # not vacuous: the pager really is under pressure
            tight[faults] > easy[faults] for tight, easy in zip(self.UNIFIED_TIGHT, roomy)
        )


# ----------------------------------------------------------------------
# the driver's statistics are products with the per-depth incidence
# ----------------------------------------------------------------------
class TestTalliesByIncidence:
    """``match_trie`` reads no node's ``members`` / ``terminal`` list while it
    walks: per depth, ``MatchStats`` and the output charges are the level's
    ``(queries, width)`` incidence times the per-line candidate totals.  The
    cases the tables must get right, each against independent execution:
    a skip set that empties a whole subtree, plans ending at depth 0 and at
    different depths, a query's two same-shaped plans through one node, and
    sinks on a representative and on its alias."""

    @staticmethod
    def queries():
        edge = QueryGraph(2, [(0, 1)], labels=[0, 1], name="edge")
        tri = QueryGraph(3, [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 0], name="tri")
        twin = QueryGraph(3, [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 0], name="tri_twin")
        tailed = QueryGraph(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], labels=[0, 1, 0, 1, 0],
            name="tailed",
        )
        # unlabelled Q3: two of its ΔM plans have one shape, level for level
        q3 = query_by_name("Q3")
        square = QueryGraph(q3.num_vertices, q3.edges, name="q3_any")
        return [edge, tri, twin, tailed, square]

    def test_skip_sets_empty_subtrees_and_stats_stay_per_query(self):
        """Straight at the driver: every skip set has its own fan-out tables
        and member counts; the queries left are matched exactly as alone."""
        rulebook = Rulebook(self.queries())
        trie = rulebook.trie
        names = trie.queries
        assert "tri_twin" not in names  # an alias: never in the trie
        inner = np.array([node.level is not None for node in trie.nodes])
        twice = trie.incidence()[1][names.index("q3_any"), inner]
        assert twice.max() == 2  # one node below the roots, two plans
        g0, batches = stream(25, num_labels=2)
        graph = DynamicGraph(g0)
        emptied, sunk = 0, set()
        for batch in batches:
            graph.apply_batch(batch)
            for skip in (frozenset(), frozenset({"tailed"}), frozenset({"tri", "q3_any"}),
                         frozenset({"edge", "tailed", "q3_any"})):
                live = trie.incidence(skip)[1].any(axis=0)
                emptied += int((~live).sum())
                out = {name: [] for name in names}
                sinks = {
                    name: (lambda e, s, name=name: out[name].append((e, s)))
                    for name in ("tri", "tailed", "edge") if name not in skip
                }
                stats, attribution = settle(
                    expand(trie, batch, graph, sinks=frozenset(sinks), skip=skip),
                    ZeroCopyView(graph, DEVICE, AccessCounters()), sinks=sinks,
                )
                attributed = {name: AccessCounters() for name in attribution.queries}
                attribution.charge(attributed)
                assert list(stats) == [name for name in names if name not in skip]
                for name in stats:
                    alone, emitted = AccessCounters(), []
                    want = match_batch_recursive(  # the oracle: no trie, no incidence
                        rulebook.plans[name], batch, ZeroCopyView(graph, DEVICE, alone),
                        sink=(lambda e, s: emitted.append((e, s))) if name in sinks else None,
                    )
                    n = graph.num_vertices
                    assert fingerprint(attributed[name], stats[name], n) == (
                        fingerprint(alone, want, n)
                    ), (name, sorted(skip))
                    assert out[name] == emitted
                    if emitted:
                        sunk.add((name, bool(skip)))
            graph.reorganize()
        assert emptied > 0  # some skip set left nodes no plan passes through
        assert {(n, s) for n in ("tri", "tailed", "edge") for s in (True, False)} <= sunk

    def test_engine_results_equal_the_per_query_loop(self):
        """Through the engine, alias included: per-query ``MatchStats``,
        attributed counters and sink traces of the trie equal ``shared=False``
        on the recursive oracle (the production per-query loop runs the same
        driver over chains, and would share a wrong table's mistake)."""
        queries = self.queries()
        g0, batches = stream(25, num_labels=2)
        runs = []
        for shared in (True, False):
            engine = MultiQueryEngine(g0, queries, shared=shared, seed=2)
            if not shared:  # the per-query loop on the recursive oracle
                use_reference_kernels(engine, estimator=False)
            out = {q.name: [] for q in queries}
            sinks = {
                name: (lambda e, s, name=name: out[name].append((e, s)))
                for name in ("tri", "tri_twin", "edge", "q3_any")
            }
            per_batch = []
            for batch in batches:
                r = engine.process_batch(batch, sinks=sinks)
                per_batch.append({
                    name: fingerprint(
                        r.match_counters_by_query[name], r.match_stats[name], g0.num_vertices
                    )
                    for name in out
                })
            runs.append((per_batch, out))
        (shared_prints, shared_out), (indep_prints, indep_out) = runs
        assert shared_prints == indep_prints
        assert shared_out == indep_out  # order included: the twin's iso is the identity
        assert all(shared_out[name] for name in ("tri", "tri_twin", "edge", "q3_any"))
        assert shared_out["tri_twin"] == shared_out["tri"]

    def test_no_sinks_no_flush(self):
        """Without sinks nothing is materialised for emission and the plan
        list is never walked: ``trie.refs`` is not iterated at all."""
        rulebook = Rulebook(self.queries())
        trie = rulebook.trie

        class NeverIterated(list):
            def __iter__(self):
                raise AssertionError("the sink flush ran without a sink")

        g0, batches = stream(25, num_labels=2)
        graph = DynamicGraph(g0)
        graph.apply_batch(batches[0])
        plain = match_trie(trie, batches[0], ZeroCopyView(graph, DEVICE, AccessCounters()))
        refs, trie.refs = trie.refs, NeverIterated(trie.refs)
        try:
            guarded = match_trie(
                trie, batches[0], ZeroCopyView(graph, DEVICE, AccessCounters()), sinks={}
            )
            with pytest.raises(AssertionError, match="without a sink"):
                match_trie(
                    trie, batches[0], ZeroCopyView(graph, DEVICE, AccessCounters()),
                    sinks={"edge": lambda e, s: None},
                )
        finally:
            trie.refs = refs
        assert guarded == plain and any(s.embeddings_found for s in plain.values())
