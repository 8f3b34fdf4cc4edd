"""Aggregate-invariant pre-filter: exactness, maintenance, and skip levels.

The contract under test (see ``docs/prefilter.md``): with
``prefilter="invariant"`` every engine produces **bit-identical** ΔM,
signed counts, embedding counts, and sink emission order versus
``prefilter="off"`` on any stream — certified skips remove only provably
dead work — while the audit identity

    roots_processed(on) + roots_skipped(on) == roots_processed(off)

holds for every filter-free engine (RapidFlow's candidate filters shrink
roots before the prefilter mask, so it keeps the relaxed inequalities).
The index itself must stay consistent with a from-scratch rebuild after
every batch, under delete-heavy and churn streams in all conflict modes.
"""

import json

import numpy as np
import pytest

import repro.graphs.dynamic_graph as dynamic_graph
from repro.core.baselines import make_system
from repro.core.engine import GCSMEngine
from repro.core.multiquery import MultiQueryEngine
from repro.core.prefilter import (
    InvariantIndex,
    QueryRequirement,
    normalize_prefilter,
)
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import UpdateBatch, derive_stream, generate_adversarial_stream
from repro.gpu.clock import PipelineClock, TimeBreakdown
from repro.query import QueryGraph
from repro.testing import (
    IndexFields, edge_array_reference, invariant_index_reference, use_reference_kernels,
)
from repro.testing.validation import (
    DEFAULT_FUZZ_SYSTEMS,
    _parse_system_spec,
    fuzz_verify,
    verify_rulebook,
    verify_stream,
)

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2], name="tri012")
PATH = QueryGraph(3, [(0, 1), (1, 2)], [0, 0, 1], name="path001")
EDGE = QueryGraph(2, [(0, 1)], [2, 2], name="edge22")


def adversarial(seed, *, num_batches=6, batch_size=24):
    g0 = erdos_renyi(48, 7.0, num_labels=3, seed=seed)
    return g0, generate_adversarial_stream(
        g0, num_batches=num_batches, batch_size=batch_size, seed=seed + 1
    )


def run_pair(system, g0, query, batches, *, conflict_mode="coalesce",
             reference_kernels=False, **kw):
    """Drive (prefilter=on, prefilter=off) twins and return result lists."""
    on = make_system(
        system, g0, query, seed=3, conflict_mode=conflict_mode,
        prefilter="invariant", **kw,
    )
    off = make_system(
        system, g0, query, seed=3, conflict_mode=conflict_mode, **kw
    )
    if reference_kernels:
        use_reference_kernels(on, estimator=False)
        use_reference_kernels(off, estimator=False)
    return (
        [on.process_batch(b) for b in batches],
        [off.process_batch(b) for b in batches],
        on,
    )


class TestNormalize:
    def test_aliases(self):
        assert normalize_prefilter(None) == "off"
        assert normalize_prefilter(False) == "off"
        assert normalize_prefilter("off") == "off"
        assert normalize_prefilter(True) == "invariant"
        assert normalize_prefilter("on") == "invariant"
        assert normalize_prefilter("invariant") == "invariant"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            normalize_prefilter("bloom")


class TestIndexMaintenance:
    """Incremental maintenance must equal a from-scratch rebuild —
    checked after *every* batch, streams chosen per conflict mode."""

    @pytest.mark.parametrize("mode", ["coalesce", "ignore"])
    def test_adversarial_stream_stays_consistent(self, mode):
        g0, batches = adversarial(11)
        graph = DynamicGraph(g0)
        index = InvariantIndex(graph)
        for batch in batches:
            eff = graph.apply_batch(batch, mode=mode)
            index.apply_batch(eff)
            graph.reorganize()
            index.close_batch()
            index.assert_consistent()

    def test_clean_stream_strict_mode(self):
        g = erdos_renyi(60, 6.0, num_labels=3, seed=5)
        g0, batches = derive_stream(g, update_fraction=0.5, batch_size=16, seed=5)
        graph = DynamicGraph(g0)
        index = InvariantIndex(graph)
        for batch in batches[:6]:
            eff = graph.apply_batch(batch, mode="strict")
            index.apply_batch(eff)
            graph.reorganize()
            index.close_batch()
            index.assert_consistent()

    def test_delete_heavy_churn(self):
        """Deletes dominate; the overlay grows and must drop cleanly."""
        g = erdos_renyi(40, 8.0, num_labels=2, seed=9)
        graph = DynamicGraph(g)
        index = InvariantIndex(graph)
        rng = np.random.default_rng(9)
        for _ in range(5):
            edges = graph.snapshot().edge_array()
            take = edges[rng.choice(edges.shape[0], size=12, replace=False)]
            signs = -np.ones(take.shape[0], dtype=np.int64)
            signs[:3] = 1  # churn back a few
            eff = graph.apply_batch(UpdateBatch(take, signs), mode="coalesce")
            index.apply_batch(eff)
            graph.reorganize()
            index.close_batch()
            index.assert_consistent()

    def test_requirement_wildcards_only_count_labeled(self):
        q = QueryGraph(3, [(0, 1), (1, 2)], [0, -1, 1], name="wild")
        req = QueryRequirement(q)
        # u1 is wildcard-labeled but its *requirement* still sees both
        # labeled neighbors; u0's single neighbor is the wildcard -> no
        # label constraint, only the degree bound
        assert req.adj_need[0] == {}
        assert req.deg_need[0] == 1
        assert req.adj_need[1] == {0: 1, 1: 1}


# ----------------------------------------------------------------------
# the build: counted from the store's runs in blocks, against the edge list
# ----------------------------------------------------------------------
def _store(n, edges, labels):
    return DynamicGraph(StaticGraph.from_edges(n, np.array(edges).reshape(-1, 2), labels))


def _open(store, batch):
    store.apply_batch(batch, mode="coalesce")
    return store


def index_cases():
    """``{name: store}``, each in the state whose index is built: lists that
    cut blocks in every way the reader must get right.  The hub's run is
    longer than two blocks of whatever size the store's reader is set to."""
    rng = np.random.default_rng(43)
    er = erdos_renyi(60, 5.0, num_labels=3, seed=43)
    leaves = 2 * dynamic_graph._BLOCK + 3
    star = [(0, v) for v in range(1, leaves + 1)] + [(v, v + 1) for v in range(1, leaves, 2)[:20]]
    some = er.edge_array()
    return {
        # isolated vertices at both ends
        "isolated": _store(70, some[some.min(axis=1) >= 3] + 2,
                           rng.integers(0, 3, 70)),
        "hub": _store(leaves + 1, star, rng.integers(0, 3, leaves + 1)),
        "zero_edges": _store(9, np.empty((0, 2), np.int64), rng.integers(0, 2, 9)),
        # vertices 60, 61 arrive with label 7, which nothing carried before
        "new_label": _open(DynamicGraph(er), UpdateBatch(
            [(60, 0), (61, 60), (61, 5)], [1, 1, 1], {60: 7, 61: 7})),
        # N' is counted: the deleted edges are gone, the inserted ones in
        "open_deletes": _open(DynamicGraph(er), UpdateBatch(
            np.concatenate([some[::4], [(0, 59), (1, 58), (2, 57)]]),
            [-1] * some[::4].shape[0] + [1, 1, 1])),
    }


def check_index_builds(blocks=(None, 1, 3, 7)):
    """Under each block size (``None``: the module's), every case's
    :class:`InvariantIndex` equals the edge-list build of
    :func:`repro.testing.invariant_index_reference`, and both edge exports
    equal the one-read export."""
    default = dynamic_graph._BLOCK
    try:
        for size in blocks:
            dynamic_graph._BLOCK = size or default
            for name, store in index_cases().items():
                wrong = IndexFields.of(InvariantIndex(store)).differences(
                    invariant_index_reference(store))
                assert not wrong, f"index build differs in {wrong} ({name}, block {size})"
                got, want = store.edges_new_array(), edge_array_reference(store, False)
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, size)
    finally:
        dynamic_graph._BLOCK = default


class TestBuildFromRuns:
    """The index is counted from the store's runs block by block, and the
    edge exports are written block by block; both equal the edge-list
    forms they replaced, whatever the block size."""

    def test_index_and_exports_equal_the_edge_list_build(self):
        check_index_builds()

    def test_the_cases_cut_blocks_as_named(self):
        """The hub's run spans several blocks, the ``isolated`` case has empty
        lists at both ends and the open cases delete and add a label."""
        cases = index_cases()
        assert cases["hub"].degrees_new()[0] > 2 * dynamic_graph._BLOCK
        degrees = cases["isolated"].degrees_new()
        assert degrees[0] == degrees[-1] == 0 and (degrees > 0).any()
        assert cases["zero_edges"].num_edges == 0
        assert cases["new_label"].labels.max() == 7 and cases["new_label"].batch_open
        store = cases["open_deletes"]
        base_len = store.run_lengths(np.arange(store.num_vertices))[0]
        assert store.batch_open and (base_len > store.degrees_new()).any()

    def test_each_list_read_once_in_ascending_blocks(self, monkeypatch):
        monkeypatch.setattr(dynamic_graph, "_BLOCK", 3)
        store = index_cases()["hub"]
        sizes, seen = [], []
        for vertices, block, lengths in store.read_blocks(False):
            assert block.size == lengths.sum()
            assert block.size <= 3 or vertices.size == 1  # only a long list stands alone
            sizes.append(block.size)
            seen.append(vertices)
        assert np.array_equal(np.concatenate(seen), np.arange(store.num_vertices))
        assert max(sizes) == store.degrees_new()[0]


class TestNegativeLabelsRefused:
    """A vertex label is >= 0 (-1 is the query wildcard).  Both inputs that
    bring labels in refuse a negative one, naming the vertex, before anything
    is mutated: the index once failed on it *after* the store had applied
    the batch, and its recovery rebuild failed again, out of step with the
    store."""

    def test_static_graph_refuses_a_negative_label(self):
        with pytest.raises(ValueError, match="vertex 2 has label -1"):
            StaticGraph.from_edges(3, np.array([(0, 1), (1, 2)]), [0, 1, -1])

    def test_batch_refuses_a_negative_new_vertex_label(self):
        with pytest.raises(ValueError, match="new vertex 4 has label -1"):
            UpdateBatch([(3, 4)], [1], {4: -1})

    def test_a_refused_batch_leaves_the_engine_usable(self):
        """The batch is refused where it is built, so no engine ever holds
        it: that is what keeps the store and the index in step.  The engine
        it was meant for goes on as if it had never been sent."""
        g0 = StaticGraph.from_edges(4, np.array([(0, 1), (1, 2), (2, 3), (0, 2)]), [0, 1, 2, 1])
        on = GCSMEngine(g0, TRIANGLE, seed=0, prefilter="on")
        off = GCSMEngine(g0, TRIANGLE, seed=0)
        with pytest.raises(ValueError, match="new vertex 4"):
            UpdateBatch([(3, 4)], [1], {4: -1})
        on.prefilter_index.assert_consistent()
        assert not on.graph.batch_open and on.graph.num_vertices == 4
        batch = UpdateBatch([(3, 4), (1, 4), (0, 3)], [1, 1, 1], {4: 2})
        r_on, r_off = on.process_batch(batch), off.process_batch(batch)
        assert r_on.delta_count == r_off.delta_count == 1
        on.prefilter_index.assert_consistent()


class TestEngineParity:
    """Skip levels (a) + (b): bit-identical results, shrunken work."""

    @pytest.mark.parametrize("mode", ["coalesce", "ignore"])
    @pytest.mark.parametrize("query", [TRIANGLE, PATH, EDGE], ids=lambda q: q.name)
    def test_gcsm_parity_and_audit_identity(self, query, mode):
        g0, batches = adversarial(17)
        on = GCSMEngine(g0, query, seed=3, conflict_mode=mode, prefilter="on")
        off = GCSMEngine(g0, query, seed=3, conflict_mode=mode)
        for batch in batches:
            r_on = on.process_batch(batch)
            r_off = off.process_batch(batch)
            assert r_on.delta_count == r_off.delta_count
            s_on, s_off = r_on.match_stats, r_off.match_stats
            assert s_on.signed_count == s_off.signed_count
            assert s_on.embeddings_found == s_off.embeddings_found
            assert s_on.roots_processed + s_on.roots_skipped == s_off.roots_processed
            assert r_on.prefilter is not None and r_on.prefilter.enabled
            assert r_on.prefilter.maintenance_ns > 0
            assert r_off.prefilter is None
            on.prefilter_index.assert_consistent()

    @pytest.mark.parametrize("executor", ["frontier", "recursive"])
    def test_parity_across_executors(self, executor):
        g0, batches = adversarial(23, num_batches=4)
        on_res, off_res, _ = run_pair(
            "GCSM", g0, TRIANGLE, batches,
            reference_kernels=executor == "recursive",
        )
        for r_on, r_off in zip(on_res, off_res):
            assert r_on.delta_count == r_off.delta_count

    def test_delete_only_roots_need_the_overlay(self):
        """A deleted triangle's ΔM = -1 must survive the prefilter: the
        root endpoints' post-batch adjacency no longer dominates the query,
        only the union overlay does."""
        labels = np.array([0, 1, 2, 0], dtype=np.int64)
        edges = np.array([(0, 1), (1, 2), (0, 2)], dtype=np.int64)
        g0 = StaticGraph.from_edges(4, edges, labels)
        batch = UpdateBatch(
            np.array([(0, 1)], dtype=np.int64), np.array([-1], dtype=np.int64)
        )
        on = GCSMEngine(g0, TRIANGLE, seed=0, prefilter="on")
        off = GCSMEngine(g0, TRIANGLE, seed=0)
        r_on, r_off = on.process_batch(batch), off.process_batch(batch)
        assert r_on.delta_count == r_off.delta_count == -1
        assert r_on.match_stats.signed_count == -1

    @staticmethod
    def rare_skip_case():
        """A graph, a triangle over its rarest label, and a batch of inserts
        that can never touch it."""
        n = 90
        labels = np.array([i % 3 for i in range(n)], dtype=np.int64)
        g0 = StaticGraph.from_edges(
            n, np.array([(i, i + 1) for i in range(0, n - 1, 3)]), labels
        )
        rare = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [2, 2, 2], name="rare")
        e = np.array([(i, i + 10) for i in range(0, 9, 3)], dtype=np.int64)
        return g0, rare, UpdateBatch(e, np.ones(e.shape[0], dtype=np.int64))

    def test_batch_level_skip_saves_the_pipeline(self):
        """Inserts that can never touch the query skip estimate/pack/match
        entirely, and the skip is visible in stats and the breakdown."""
        g0, rare, batch = self.rare_skip_case()
        on = GCSMEngine(g0, rare, seed=0, prefilter="on")
        off = GCSMEngine(g0, rare, seed=0)
        r_on, r_off = on.process_batch(batch), off.process_batch(batch)
        assert r_on.delta_count == r_off.delta_count == 0
        assert r_on.prefilter.batches_skipped == 1
        assert r_on.match_stats.roots_skipped == r_off.match_stats.roots_processed
        assert r_on.breakdown.estimate_ns == 0.0
        assert r_on.breakdown.match_ns == 0.0
        assert r_on.breakdown.prefilter_ns > 0.0
        assert r_on.cache_bytes == 0 and r_on.estimation is None
        # the store still advanced identically
        assert np.array_equal(
            on.snapshot().edge_array(), off.snapshot().edge_array()
        )

    @pytest.mark.parametrize("system", ["GCSM", "Naive", "ZC", "VSGM", "RapidFlow"])
    def test_a_certified_skip_reaches_no_placement_stage(self, system):
        """A certified ΔM = 0 batch runs update, pre-filter and reorganize
        only: the kernel's expansion and the placement's prepare and match
        never run, whatever the placement."""
        g0, rare, batch = self.rare_skip_case()
        engine = make_system(system, g0, rare, seed=0, prefilter="on")

        def never(*args):
            raise AssertionError("a certified skip reached a placement stage")

        engine.query_set.expand = engine.placement.prepare = engine.placement.match = never
        assert engine.process_batch(batch).prefilter.batches_skipped == 1

    def test_sink_order_identical(self):
        g0, batches = adversarial(29, num_batches=4)
        seen_on, seen_off = [], []
        on = GCSMEngine(g0, TRIANGLE, seed=3, prefilter="on")
        off = GCSMEngine(g0, TRIANGLE, seed=3)
        for batch in batches:
            # engines expose sinks through match_batch in multiquery only;
            # single-query emission order is covered by embeddings_found +
            # the multiquery sink test — here assert counters stay exact
            r_on, r_off = on.process_batch(batch), off.process_batch(batch)
            seen_on.append(r_on.match_stats.embeddings_found)
            seen_off.append(r_off.match_stats.embeddings_found)
        assert seen_on == seen_off


class TestAllSystems:
    @pytest.mark.parametrize(
        "system", ["GCSM", "Pipelined", "ZC", "UM", "Naive", "VSGM", "CPU"]
    )
    def test_filter_free_systems_keep_the_identity(self, system):
        g0, batches = adversarial(31, num_batches=4)
        on_res, off_res, on = run_pair(system, g0, TRIANGLE, batches)
        for r_on, r_off in zip(on_res, off_res):
            assert r_on.delta_count == r_off.delta_count
            s_on, s_off = r_on.match_stats, r_off.match_stats
            assert s_on.signed_count == s_off.signed_count
            assert s_on.roots_processed + s_on.roots_skipped == s_off.roots_processed
        assert on.config.prefilter == "invariant"

    def test_rapidflow_relaxed_identity(self):
        g0, batches = adversarial(37, num_batches=4)
        on_res, off_res, _ = run_pair("RapidFlow", g0, TRIANGLE, batches)
        for r_on, r_off in zip(on_res, off_res):
            assert r_on.delta_count == r_off.delta_count
            s_on, s_off = r_on.match_stats, r_off.match_stats
            # RapidFlow's candidate filters shrink roots before the
            # prefilter mask; skip accounting is pre-filter, so only the
            # inequalities are guaranteed
            assert s_on.roots_processed + s_on.roots_skipped >= s_off.roots_processed
            assert s_on.roots_processed <= s_off.roots_processed

    def test_multigpu_parity(self):
        g0, batches = adversarial(41, num_batches=4)
        single = GCSMEngine(g0, TRIANGLE, seed=3, prefilter="on")
        fleet1 = GCSMEngine(g0, TRIANGLE, devices=1, seed=3, prefilter="on")
        fleet2 = GCSMEngine(g0, TRIANGLE, devices=2, seed=3, prefilter="on")
        off2 = GCSMEngine(g0, TRIANGLE, devices=2, seed=3)
        for batch in batches:
            r1 = single.process_batch(batch)
            f1 = fleet1.process_batch(batch)
            f2 = fleet2.process_batch(batch)
            o2 = off2.process_batch(batch)
            assert f1.delta_count == r1.delta_count == f2.delta_count
            assert o2.delta_count == f2.delta_count
            assert vars(f1.match_stats) == vars(r1.match_stats)
            # owner-routed shard masking partitions the skip accounting
            assert (
                f2.match_stats.roots_processed + f2.match_stats.roots_skipped
                == o2.match_stats.roots_processed
            )


class TestPipelined:
    def test_stream_parity_with_serial(self):
        g0, batches = adversarial(43, num_batches=6)
        serial = GCSMEngine(g0, TRIANGLE, seed=3, prefilter="on")
        piped = GCSMEngine(g0, TRIANGLE, seed=3, prefilter="on", schedule="pipelined")
        serial_res = [serial.process_batch(b) for b in batches]
        piped_res = piped.process_stream(batches)
        for r_s, r_p in zip(serial_res, piped_res):
            assert r_p.delta_count == r_s.delta_count
            assert vars(r_p.match_stats) == vars(r_s.match_stats)
            assert r_p.prefilter is not None and r_s.prefilter is not None
            assert r_p.prefilter == r_s.prefilter
        report = piped.schedule_report()
        assert report.makespan_ns > 0

    def test_skip_batches_drain_in_order(self):
        """A certified skip between dense batches must not reorder results."""
        n = 90
        labels = np.array([i % 3 for i in range(n)], dtype=np.int64)
        g0 = StaticGraph.from_edges(
            n, np.array([(i, i + 1) for i in range(0, n - 1, 3)]), labels
        )
        rare = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [2, 2, 2], name="rare")
        mk = lambda rows: UpdateBatch(
            np.array(rows, dtype=np.int64),
            np.ones(len(rows), dtype=np.int64),
        )
        stream = [
            mk([(2, 5), (5, 8), (2, 8)]),          # label-2 triangle: +1
            mk([(0, 10), (3, 13)]),                # label 0->1: certified skip
            mk([(8, 11), (2, 11)]),                # extends label-2 matches
        ]
        piped = GCSMEngine(g0, rare, seed=0, prefilter="on", schedule="pipelined")
        serial = GCSMEngine(g0, rare, seed=0, prefilter="on")
        piped_res = piped.process_stream(stream)
        serial_res = [serial.process_batch(b) for b in stream]
        assert [r.delta_count for r in piped_res] == [
            r.delta_count for r in serial_res
        ]
        assert piped_res[1].prefilter.batches_skipped == 1


class TestMultiQuery:
    QUERIES = [
        QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2], name="q_tri_a"),
        QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [1, 2, 0], name="q_tri_b"),
        PATH,
        EDGE,
        QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [2, 2, 2], name="q_tri_rare"),
    ]

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
    def test_rulebook_parity(self, shared):
        g0, batches = adversarial(47, num_batches=5)
        sinks_on = {q.name: [] for q in self.QUERIES}
        sinks_off = {q.name: [] for q in self.QUERIES}
        on = MultiQueryEngine(
            g0, self.QUERIES, seed=3, shared=shared, prefilter="on"
        )
        off = MultiQueryEngine(g0, self.QUERIES, seed=3, shared=shared)
        skipped = 0
        for batch in batches:
            r_on = on.process_batch(
                batch,
                sinks={n: (lambda e, s, n=n: sinks_on[n].append((e, s)))
                       for n in sinks_on},
            )
            r_off = off.process_batch(
                batch,
                sinks={n: (lambda e, s, n=n: sinks_off[n].append((e, s)))
                       for n in sinks_off},
            )
            assert r_on.delta_counts == r_off.delta_counts
            for name in r_on.match_stats:
                s_on, s_off = r_on.match_stats[name], r_off.match_stats[name]
                assert s_on.signed_count == s_off.signed_count
                assert s_on.embeddings_found == s_off.embeddings_found
                if shared:
                    # group-granular masking: the OR keeps at least what
                    # any member's own mask keeps
                    assert (
                        s_on.roots_processed + s_on.roots_skipped
                        >= s_off.roots_processed
                    )
                    assert s_on.roots_processed <= s_off.roots_processed
                else:
                    assert (
                        s_on.roots_processed + s_on.roots_skipped
                        == s_off.roots_processed
                    )
            assert r_on.prefilter is not None
            skipped += r_on.prefilter.queries_skipped
            on.prefilter_index.assert_consistent()
        assert sinks_on == sinks_off  # emission order bit-identical
        assert skipped > 0  # the rare query really was certified away

    def test_whole_rulebook_skip(self):
        n = 90
        labels = np.array([i % 3 for i in range(n)], dtype=np.int64)
        g0 = StaticGraph.from_edges(
            n, np.array([(i, i + 1) for i in range(0, n - 1, 3)]), labels
        )
        tri = lambda name, lab: QueryGraph(
            3, [(0, 1), (1, 2), (0, 2)], list(lab), name=name
        )
        queries = [tri("qa", (0, 1, 2)), tri("qb", (1, 2, 0)), tri("qc", (2, 2, 2))]
        eng = MultiQueryEngine(g0, queries, seed=3, prefilter="on")
        e = np.array([(0, 10), (3, 13), (6, 16)], dtype=np.int64)
        r = eng.process_batch(UpdateBatch(e, np.ones(3, dtype=np.int64)))
        assert r.prefilter.batches_skipped == 1
        assert r.prefilter.queries_skipped == 3  # aliases counted too
        assert r.delta_count == 0
        assert r.estimation is None and r.cache_bytes == 0
        assert all(st.signed_count == 0 for st in r.match_stats.values())
        eng.prefilter_index.assert_consistent()

    def test_verify_rulebook_with_prefilter(self):
        g0, batches = adversarial(53, num_batches=3)
        report = verify_rulebook(
            g0, self.QUERIES, batches, seed=3,
            engine_kwargs={"prefilter": "on"},
        )
        assert report.num_queries == len(self.QUERIES)
        assert report.aliases == {"q_tri_b": "q_tri_a"}


class TestValidationIntegration:
    def test_spec_parsing(self):
        assert _parse_system_spec("GCSM") == ("GCSM", {})
        assert _parse_system_spec("GCSM+prefilter") == (
            "GCSM", {"prefilter": "invariant"}
        )
        assert _parse_system_spec("GCSM+prefilter@2") == (
            "GCSM", {"prefilter": "invariant", "devices": 2}
        )
        assert _parse_system_spec("Pipelined+prefilter") == (
            "Pipelined", {"prefilter": "invariant"}
        )

    def test_default_fuzz_systems_include_prefilter(self):
        assert "GCSM+prefilter" in DEFAULT_FUZZ_SYSTEMS
        assert "Pipelined+prefilter" in DEFAULT_FUZZ_SYSTEMS

    def test_verify_stream_cross_checks_prefilter(self):
        g0, batches = adversarial(59, num_batches=3)
        report = verify_stream(
            ["GCSM", "GCSM+prefilter", "Pipelined+prefilter", "CPU"],
            g0, TRIANGLE, batches, seed=7, conflict_mode="coalesce",
            against_oracle=True, check_invariants=True,
        )
        assert report.num_batches == 3

    def test_small_fuzz(self):
        report = fuzz_verify(
            2, systems=["GCSM", "GCSM+prefilter", "Pipelined+prefilter"],
            seed=99,
        )
        assert report.num_cases == 2


class TestCostModel:
    def test_prefilter_ns_in_totals(self):
        bd = TimeBreakdown(update_ns=1.0, prefilter_ns=2.0, match_ns=3.0)
        assert bd.total_ns == 6.0
        doubled = bd + bd
        assert doubled.prefilter_ns == 4.0
        assert (bd.scaled(3.0)).prefilter_ns == 6.0

    def test_pipeline_stage_declared(self):
        clock = PipelineClock()
        sched = clock.advance(TimeBreakdown(update_ns=1.0, prefilter_ns=2.0, estimate_ns=3.0))
        # on the host lane, between update and estimate: the match waits on all three
        assert clock.cpu_ns == sched.fill_ns == 6.0


class TestHarnessAndRecords:
    def test_run_stream_aggregates_skips(self):
        from repro.bench.harness import clear_caches, run_stream

        clear_caches()
        run = run_stream(
            "GCSM", "AZ", TRIANGLE, batch_size=32, num_batches=2, seed=0,
            prefilter="on",
        )
        assert run.prefilter == "invariant"
        assert run.breakdown.prefilter_ns > 0
        d = json.loads(json.dumps(run.to_dict()))
        assert d["prefilter"] == "invariant"
        assert d["prefilter_ns"] > 0
        assert {"batches_skipped", "roots_skipped", "queries_skipped"} <= set(d)
        assert d == run.to_dict()

    def test_run_stream_off_leaves_none(self):
        from repro.bench.harness import clear_caches, run_stream

        clear_caches()
        run = run_stream("GCSM", "AZ", TRIANGLE, batch_size=32, num_batches=1)
        assert run.prefilter is None
        assert run.batches_skipped == 0
        assert run.breakdown.prefilter_ns == 0.0
