"""Parity suite for shared trie-based multi-query execution.

The sharing contract (``docs/multiquery.md``): shared trie execution must
be *observationally identical* to running every query independently —
per-query signed ΔM, ``MatchStats``, attributed access counters, and sink
emission order — on clean and adversarial streams, under both executors,
with isomorphic duplicates deduped to a representative.  Only the
engine-level shared counters (and the simulated match time derived from
them) are allowed to differ, and only downward.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiquery import MultiQueryEngine, split_walk_budget
from repro.core.querytrie import ExecutionTrie
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream, generate_adversarial_stream
from repro.query.catalog import QUERIES, QUERY_ORDER
from repro.query.generator import rulebook_suite
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_delta_plans, level_signature, root_signature
from repro.testing.validation import ConsistencyError, verify_rulebook


def _catalog() -> list[QueryGraph]:
    return [QUERIES[n] for n in QUERY_ORDER]


# ----------------------------------------------------------------------
# walk-budget split (satellite regression)
# ----------------------------------------------------------------------
class TestWalkBudgetSplit:
    def test_sums_exactly_for_awkward_sizes(self):
        for total, n in [(1000, 7), (4096, 100), (8192, 3), (999, 998), (64, 63)]:
            counts = split_walk_budget(total, n)
            assert len(counts) == n
            assert sum(counts) == total  # the old // split under-spent
            assert max(counts) - min(counts) <= 1

    def test_degenerate_budget_gives_one_walk_each(self):
        counts = split_walk_budget(10, 64)
        assert counts == [1] * 64

    def test_pooled_estimate_spends_the_configured_budget(self):
        g0 = erdos_renyi(60, 6.0, num_labels=3, seed=0)
        queries = rulebook_suite(7, seed=1)
        engine = MultiQueryEngine(g0, queries, num_walks=1000, seed=2)
        batches = generate_adversarial_stream(g0, num_batches=1, seed=3)
        result = engine.process_batch(batches[0])
        assert result.estimation is not None
        # 1000 walks across 7 queries: 142*7 = 994 under the old floor split
        assert result.estimation.num_walks == 1000


# ----------------------------------------------------------------------
# randomized shared-vs-independent parity
# ----------------------------------------------------------------------
class TestSharedParity:
    def test_catalog_rulebook_clean_stream(self):
        g = powerlaw_graph(1_500, 8.0, max_degree=60, num_labels=3, seed=11)
        g0, batches = derive_stream(g, num_updates=96, batch_size=32, seed=11)
        report = verify_rulebook(g0, _catalog(), batches, seed=4)
        assert report.num_queries == 6
        assert "shared trie matches" in report.describe()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rulebooks_adversarial_streams(self, seed):
        rng = np.random.default_rng(seed)
        g0 = erdos_renyi(
            int(rng.integers(40, 70)), 6.0, num_labels=3,
            seed=np.random.default_rng(seed),
        )
        queries = rulebook_suite(
            int(rng.integers(6, 14)), num_labels=2, seed=seed + 10
        )
        batches = generate_adversarial_stream(
            g0, num_batches=3, batch_size=20, seed=seed + 20
        )
        report = verify_rulebook(
            g0, queries, batches, seed=seed, conflict_mode="coalesce"
        )
        assert report.num_batches == 3

    def test_isomorphic_duplicates_are_deduped_and_exact(self):
        g0 = erdos_renyi(50, 6.0, num_labels=2, seed=5)
        base = QUERIES["Q1"]
        # relabeled copy (vertex order permuted) plus a verbatim copy
        perm = [2, 0, 4, 1, 3]
        edges = [
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in base.edges
        ]
        labels = [0] * base.num_vertices
        for u in range(base.num_vertices):
            labels[perm[u]] = base.labels[u]
        twisted = QueryGraph(base.num_vertices, sorted(edges), labels, name="Q1twist")
        clone = QueryGraph(
            base.num_vertices, list(base.edges), list(base.labels), name="Q1clone"
        )
        queries = [base, twisted, clone, QUERIES["Q2"]]
        batches = generate_adversarial_stream(g0, num_batches=3, seed=6)
        report = verify_rulebook(g0, queries, batches, seed=7)
        # lexsorted names: Q1 < Q1clone < Q1twist < Q2 — Q1 is representative
        assert report.aliases == {"Q1clone": "Q1", "Q1twist": "Q1"}
        engine = MultiQueryEngine(g0, queries, seed=7)
        res = engine.process_batch(generate_adversarial_stream(g0, seed=8)[0])
        assert res.delta_counts["Q1clone"] == res.delta_counts["Q1"]
        assert res.delta_counts["Q1twist"] == res.delta_counts["Q1"]

    def test_alias_counters_are_lent_copies_of_the_representatives(self):
        """Every alias reports its representative's attributed counters as
        an object of its own (copy-on-write: ``settle`` moves no histogram),
        and writing to it never reaches the representative."""
        from repro.gpu.counters import Channel

        g = powerlaw_graph(800, 7.0, max_degree=50, num_labels=3, seed=61)
        g0, batches = derive_stream(g, num_updates=96, batch_size=32, seed=62)
        engine = MultiQueryEngine(g0, rulebook_suite(16, num_labels=3, seed=0), seed=1)
        aliases = engine.query_set.aliases
        assert len(aliases) >= 4
        n, accesses = g0.num_vertices, 0
        for batch in batches:
            result = engine.process_batch(batch)
            by_query, stats = result.match_counters_by_query, result.match_stats
            for alias, rep in aliases.items():
                mine, theirs = by_query[alias], by_query[rep]
                assert mine is not theirs and stats[alias] is not stats[rep]
                assert vars(stats[alias]) == vars(stats[rep])
                assert mine.summary() == theirs.summary()
                counts = theirs.vertex_access_counts(n)
                assert np.array_equal(mine.vertex_access_counts(n), counts)
                assert np.array_equal(mine.vertex_access_bytes(n), theirs.vertex_access_bytes(n))
                before = theirs.summary()
                mine.record_access(Channel.PEER, 0, 64)
                mine.record_compute(7)
                stats[alias].tree_nodes += 1
                assert theirs.summary() == before
                assert np.array_equal(theirs.vertex_access_counts(n), counts)
                assert mine.vertex_access_counts(n)[0] == counts[0] + 1
                assert stats[alias].tree_nodes == stats[rep].tree_nodes + 1
                accesses += theirs.total_access_count
        assert accesses > 0

    def test_consistency_error_carries_context(self):
        g0 = erdos_renyi(40, 5.0, num_labels=2, seed=9)
        batches = generate_adversarial_stream(g0, num_batches=1, seed=9)
        report = verify_rulebook(g0, _catalog()[:2], batches, seed=9)
        assert report.total_delta == sum(report.delta_per_batch)
        with pytest.raises(ConsistencyError):
            raise ConsistencyError("synthetic")


# ----------------------------------------------------------------------
# sink order and alias remapping
# ----------------------------------------------------------------------
class TestSinkParity:
    def _emissions(self, g0, queries, batches, *, shared):
        engine = MultiQueryEngine(g0, queries, seed=3, shared=shared)
        out = {q.name: [] for q in queries}
        sinks = {
            name: (lambda emb, sign, name=name: out[name].append((emb, sign)))
            for name in out
        }
        for batch in batches:
            engine.process_batch(batch, sinks=sinks)
        return out

    def test_representative_sinks_bit_identical_order(self):
        g0 = erdos_renyi(50, 6.0, num_labels=3, seed=21)
        queries = _catalog()
        batches = generate_adversarial_stream(g0, num_batches=3, seed=22)
        shared = self._emissions(g0, queries, batches, shared=True)
        indep = self._emissions(g0, queries, batches, shared=False)
        for name in shared:
            assert shared[name] == indep[name], name  # order included

    def test_alias_sinks_multiset_equal_and_remapped(self):
        g0 = erdos_renyi(50, 6.0, num_labels=2, seed=23)
        base = QUERIES["Q1"]
        clone = QueryGraph(
            base.num_vertices, list(base.edges), list(base.labels), name="Q1clone"
        )
        batches = generate_adversarial_stream(g0, num_batches=2, seed=24)
        shared = self._emissions(g0, [base, clone], batches, shared=True)
        indep = self._emissions(g0, [base, clone], batches, shared=False)
        # the clone shares Q1's structure verbatim, so the identity iso makes
        # even the order identical; the general guarantee is multiset equality
        assert sorted(shared["Q1clone"]) == sorted(indep["Q1clone"])
        assert shared["Q1"] == indep["Q1"]


# ----------------------------------------------------------------------
# trie construction
# ----------------------------------------------------------------------
class TestTrieMechanics:
    def test_trie_counts_and_sharing_ratio(self):
        queries = sorted(_catalog(), key=lambda q: q.name)
        trie = ExecutionTrie({q.name: compile_delta_plans(q) for q in queries})
        stats = trie.stats
        assert stats.num_queries == 6
        assert stats.num_plans == sum(q.num_edges for q in queries)
        assert stats.expanded_levels < stats.total_levels  # real sharing
        assert 0.0 < stats.sharing_ratio < 1.0

    def test_identical_plans_collapse_to_one_path(self):
        q = QUERIES["Q2"]
        a = QueryGraph(q.num_vertices, list(q.edges), list(q.labels), name="A")
        b = QueryGraph(q.num_vertices, list(q.edges), list(q.labels), name="B")
        trie = ExecutionTrie({"A": compile_delta_plans(a), "B": compile_delta_plans(b)})
        # every level node carries both queries; no extra expansions for B
        solo = ExecutionTrie({"A": compile_delta_plans(a)})
        assert trie.stats.expanded_levels == solo.stats.expanded_levels
        assert trie.stats.total_levels == 2 * solo.stats.total_levels

    def test_plan_signature_separates_distinct_structures(self):
        sigs = {
            (root_signature(p), tuple(map(level_signature, p.levels)))
            for q in _catalog()
            for p in compile_delta_plans(q)
        }
        assert len(sigs) > 6  # distinct structures stay distinct


# ----------------------------------------------------------------------
# one launch per trie depth
# ----------------------------------------------------------------------
class TestOneLaunchPerDepth:
    """Every depth of the trie is one launch of the row program
    (``join_rows``) for all its nodes, so a batch costs at most (deepest
    plan's depth − 2) launches — for a rulebook as for a single query (the
    trie walked node by node paid one launch per live node).  Counted at
    ``join_rows``, the estimate included: the walk reads the matcher's
    expansion and launches nothing, a rulebook's as a single query's."""

    @pytest.mark.parametrize("rulebook", [True, False], ids=["rulebook", "single"])
    def test_launches_per_batch_bounded_by_depth(self, rulebook, monkeypatch):
        import repro.core.frontier as frontier
        from repro.core.engine import GCSMEngine

        g = powerlaw_graph(1_000, 7.0, max_degree=50, num_labels=3, seed=51)
        g0, batches = derive_stream(g, num_updates=320, batch_size=32, seed=52)
        if rulebook:
            queries = rulebook_suite(10, num_labels=3, seed=53)
            engine = MultiQueryEngine(g0, queries, seed=0)
            assert engine.query_set.trie.stats.num_queries >= 8  # unique patterns
            deepest = max(q.num_vertices for q in queries)
        else:
            engine = GCSMEngine(g0, QUERIES["Q1"], seed=0)
            deepest = QUERIES["Q1"].num_vertices
        launches = []
        join_rows = frontier.join_rows

        def counted(*args, **kwargs):
            launches[-1] += 1
            return join_rows(*args, **kwargs)

        monkeypatch.setattr(frontier, "join_rows", counted)
        for batch in batches[:10]:
            launches.append(0)
            engine.process_batch(batch)
        assert len(launches) == 10 and max(launches) > 1
        assert max(launches) <= deepest - 2, launches


# ----------------------------------------------------------------------
# the rulebook is a plug: it composes with schedule, fan-out and placement
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shared=st.booleans(),
    prefilter=st.sampled_from(["off", "on"]),
)
def test_rulebook_compositions(seed, shared, prefilter):
    """Per-query ΔM and embeddings under the pipelined schedule, a 2-device
    fleet, both at once and the zero-copy placement equal the serial
    single-device rulebook engine on adversarial streams.  On the fleet the
    shards' roots are a disjoint cover (with the pre-filter on, a group
    keep-mask evaluated after routing would misalign with its precomputed
    decision and raise), and the pipelined fleet repeats the serial fleet's
    counters and simulated time."""
    rng = np.random.default_rng(seed)
    g0 = erdos_renyi(
        int(rng.integers(40, 70)), 6.0, num_labels=3, seed=np.random.default_rng(seed)
    )
    queries = rulebook_suite(int(rng.integers(4, 9)), num_labels=2, seed=seed + 10)
    batches = generate_adversarial_stream(
        g0, num_batches=3, batch_size=20, seed=seed + 20
    )

    def run(**settings):
        engine = MultiQueryEngine(
            g0, queries, shared=shared, seed=seed, prefilter=prefilter, **settings
        )
        return engine.process_stream(batches)

    serial, fleet = run(), run(devices=2)
    runs = {
        "pipelined": run(schedule="pipelined"),
        "fleet": fleet,
        "pipelined fleet": run(devices=2, schedule="pipelined"),
        "zero-copy": run(placement="zero-copy"),
    }
    for label, results in runs.items():
        for want, got in zip(serial, results):
            assert got.delta_counts == want.delta_counts, label
            assert got.conflicts.output_size == want.conflicts.output_size
            for name, stats in want.match_stats.items():
                other = got.match_stats[name]
                assert other.signed_count == stats.signed_count, (label, name)
                assert other.embeddings_found == stats.embeddings_found, (label, name)
                assert (other.roots_processed + other.roots_skipped
                        == stats.roots_processed + stats.roots_skipped), (label, name)
    for want, got in zip(fleet, runs["pipelined fleet"]):
        assert got.match_counters.summary() == want.match_counters.summary()
        assert got.breakdown.total_ns == want.breakdown.total_ns
        assert got.breakdown.comm_ns == want.breakdown.comm_ns


# ----------------------------------------------------------------------
# determinism and the shared-never-loses property
# ----------------------------------------------------------------------
class TestDeterminismAndCost:
    def test_lexsorted_order_is_insertion_order_independent(self):
        g0 = erdos_renyi(50, 6.0, num_labels=3, seed=41)
        queries = _catalog()
        batches = generate_adversarial_stream(g0, num_batches=2, seed=42)

        def run(qs):
            engine = MultiQueryEngine(g0, qs, seed=5)
            return [engine.process_batch(b) for b in batches]

        fwd = run(list(queries))
        rev = run(list(reversed(queries)))
        for a, b in zip(fwd, rev):
            assert list(a.delta_counts) == list(b.delta_counts)  # key order too
            assert a.delta_counts == b.delta_counts
            assert a.match_counters.summary() == b.match_counters.summary()

    def test_shared_kernel_never_charges_more_than_independent(self):
        g = powerlaw_graph(1_000, 7.0, max_degree=50, num_labels=2, seed=43)
        g0, batches = derive_stream(g, num_updates=64, batch_size=32, seed=43)
        queries = rulebook_suite(12, num_labels=2, seed=44)

        def total(shared):
            engine = MultiQueryEngine(g0, queries, seed=6, shared=shared)
            ns = 0.0
            for b in batches:
                ns += engine.process_batch(b).breakdown.match_ns
            return ns

        # shared charges are a subset of the independent ones, so simulated
        # kernel time can only go down
        assert total(True) <= total(False)
