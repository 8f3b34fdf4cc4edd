"""The estimator's one walk (``FrequencyEstimator.walk``) under both samplers.

What ``tests/test_estimator_parity.py`` pins for one query through
``estimate`` is pinned here for the shape underneath it: every root group of
a trie advances in one launch per depth, a rulebook's pooled estimate is a
single walk of its kernel's merged trie that the oracle reproduces exactly
and that is unbiased for the merged kernel's accesses, and the walk prunes
by weight predicates the way the kernel does.
"""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.frontier as frontier
import repro.core.matching as matching
import repro.testing.kernels as kernels
from repro.core.engine import GCSMEngine
from repro.core.frequency import default_num_walks
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.matching import expand, match_batch
from repro.core.multiquery import MultiQueryEngine, Rulebook, split_walk_budget
from repro.core.querytrie import ExecutionTrie, solo_trie
from repro.graphs import datasets
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import (
    UpdateBatch,
    churn_stream,
    derive_stream,
    generate_adversarial_stream,
)
from repro.gpu.counters import AccessCounters
from repro.gpu.device import default_device
from repro.gpu.views import HostCPUView
from repro.query import QueryGraph, query_by_name
from repro.query.generator import rulebook_suite
from repro.query.plan import compile_delta_plans
from repro.testing import (
    LaunchingFrequencyEstimator,
    chain_estimate,
    count_calls,
    delta_roots,
    use_reference_kernels,
)

from tests.test_estimator_parity import (
    ESTIMATORS,
    FULL_EXPANSION,
    TRIANGLE,
    estimator_fingerprint,
    run_estimates,
)

DEVICE = default_device()


def az_stream(num_batches: int, batch_size: int = 24):
    graph = datasets.DATASETS["AZ"].build(0)
    return derive_stream(
        graph, num_updates=num_batches * batch_size, batch_size=batch_size, seed=1
    )


class TestOneLaunchPerDepth:
    """The walk issues one ``join_rows`` per trie depth for all root groups:
    at most the deepest plan's level count per batch (the per-plan loop
    issued 13.6 / 26.3 / 102 per batch on the benchmark's Q1 / Q3 /
    rulebook24)."""

    TARGETS = ["Q1", "Q3", "rulebook24"]

    @staticmethod
    def engine_for(target, g0):
        """``(engine, deepest plan's vertex count)``."""
        if target == "rulebook24":
            query = Rulebook(rulebook_suite(24, num_labels=3, seed=0))
            assert query.trie.stats.expanded_levels > 100  # the merged trie's level nodes
            return GCSMEngine(g0, query, seed=0), max(q.num_vertices for q in query.queries)
        query = query_by_name(target)
        return GCSMEngine(g0, query, seed=0), query.num_vertices

    @staticmethod
    def count(monkeypatch, owner, name):
        """Patch ``owner.name`` to count its calls per batch: the list grows
        by hand, one zero per batch."""
        calls, fn = [], getattr(owner, name)

        def counted(*args, **kwargs):
            calls[-1] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("target", TARGETS)
    def test_joins_per_batch_bounded_by_depth(self, target, monkeypatch):
        g0, batches = az_stream(8)
        engine, deepest = self.engine_for(target, g0)
        joins = self.count(monkeypatch, frontier, "join_rows")
        for batch in batches:
            engine.graph.apply_batch(batch)
            joins.append(0)
            estimation = engine.query_set.estimate(engine, batch, None)
            engine.graph.reorganize()
            assert estimation.nodes_visited > 0
        assert max(joins) > 1  # walks do get past the first level
        assert max(joins) <= deepest - 2, joins

    @pytest.mark.parametrize("target", TARGETS)
    def test_one_store_read_per_launch(self, target, monkeypatch):
        """Estimate and match together: the store is asked once per launch
        for the whole operand matrix, not once per constraint slot, and
        answers with one bulk read."""
        g0, batches = az_stream(8)
        engine, _ = self.engine_for(target, g0)
        joins = self.count(monkeypatch, frontier, "join_rows")
        asks = self.count(monkeypatch, DynamicGraph, "operands")
        reads = self.count(monkeypatch, DynamicGraph, "read")
        ask, per_ask = DynamicGraph.operands, []

        def one_ask(graph, *args):  # the bulk reads one ask makes
            before = reads[-1]
            out = ask(graph, *args)
            per_ask.append(reads[-1] - before)
            return out

        monkeypatch.setattr(DynamicGraph, "operands", one_ask)
        for batch in batches:
            for calls in (joins, asks, reads):
                calls.append(0)
            engine.process_batch(batch)
            assert asks[-1] == joins[-1], (asks, joins)
        assert sum(asks) > 0 and per_ask == [1] * sum(asks)


class TestOneDrawForAllChains:
    """The root table: every walked root group's roots stacked group-major
    and drawn in ONE ``rng.binomial`` over repeated ``(M, 1/|ΔR_g|)``
    columns.  That this moves no number rests on one property of
    ``numpy.random.Generator.binomial``, pinned first."""

    def test_one_stacked_draw_equals_the_per_chain_calls(self):
        """Element for element and generator state for state, sizes of 0
        (chain skipped) and 1 (``p == 1.0``) included."""
        for trial in range(120):
            shape = np.random.default_rng(trial)
            chains = int(shape.integers(1, 30))
            sizes = shape.integers(0, 40, size=chains)
            sizes[shape.integers(0, chains)] = 1
            budgets = shape.integers(1, 3000, size=chains)
            per_chain, stacked = np.random.default_rng(7 + trial), np.random.default_rng(7 + trial)
            want = [
                per_chain.binomial(int(m), 1.0 / int(k), size=int(k))
                for m, k in zip(budgets, sizes) if k
            ]
            got = stacked.binomial(
                np.repeat(budgets, sizes), np.repeat(1.0 / np.maximum(sizes, 1), sizes)
            )
            assert got.tolist() == np.concatenate(want).tolist()
            assert got.dtype == want[0].dtype
            assert stacked.bit_generator.state == per_chain.bit_generator.state

    def test_an_empty_draw_leaves_the_generator_alone(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert rng.binomial(np.empty(0, dtype=np.int64), np.empty(0)).size == 0
        assert rng.bit_generator.state == before

    #: sha256 over the four batches' ``estimation`` — frequencies,
    #: ``nodes_visited``, ``num_walks``, the FE counters' compute and channel
    #: maps and both histograms — of ``GCSMEngine(seed=0)`` on
    #: ``derive(DATASETS[d].build(0), 4 batches, seed=1)``, recorded at the
    #: parent (28eee7d: one ``rng.binomial`` per chain) before ``src/`` moved.
    #: A rulebook's are its chain statistic's (:func:`chain_estimate`, what
    #: ``Rulebook.estimate`` walked then), patched in.  The CA and SF3K pins
    #: were taken again when ``num_walks`` became the walks spent (252, not
    #: the 256 asked for): hashing 256 in its place reproduces the values
    #: recorded at 28eee7d, so every estimate is still the parent's
    PARENT_DIGESTS = {
        ("CA-Q3", 1.0): "4b876b154762787d76eff91ff41c297cebb72ef63ee76243718ef0c6ab5e4888",
        ("CA-Q3", None): "e115225e44535e2da97de59536e39cbf08d7bdb25af060244986eccdf391af97",
        ("SF3K-Q1", 1.0): "33fcad32164a7146f8fa36118aaa0f6fc10495101119442d15a0e746f2edde95",
        ("SF3K-Q1", None): "5f7fbdd0d61e0cc0b4b2cc2a81162629bdbfcfb4b102c952da0744f102c84002",
        ("AZ-rulebook24", 1.0): "a0bc260b9a9a70b9f3d736ce90145fe618e0e6d6724252906effc585d41db6de",
        ("AZ-rulebook24", None): "29840c20ec155f50af6e36b1aacb8bedf944daeaf9ed8b0936ebe98167be505f",
    }
    CASES = {
        "CA-Q3": ("CA", lambda: query_by_name("Q3"), derive_stream, 64),
        "SF3K-Q1": ("SF3K", lambda: query_by_name("Q1"), churn_stream, 64),
        "AZ-rulebook24": (
            "AZ", lambda: Rulebook(rulebook_suite(24, num_labels=3, seed=0)), derive_stream, 24
        ),
    }

    #: the same digests of the merged-trie walk (``Rulebook.estimate``)
    MERGED_DIGESTS = {
        1.0: "4d0a1076e7d409917337258c53724244d6718adda74642b9f2c85719baa0a098",
        None: "b5c167700460414737353ab2e902734a6db9c25aa61539d0e69f0d7da55f9ac4",
    }

    def digest(self, case, survival):
        dataset, query, derive, size = self.CASES[case]
        g0, batches = derive(
            datasets.DATASETS[dataset].build(0), num_updates=4 * size, batch_size=size, seed=1
        )
        engine = GCSMEngine(g0, query(), seed=0, survival=survival)
        digest, n = hashlib.sha256(), g0.num_vertices
        for batch in batches:
            est = engine.process_batch(batch).estimation
            c = est.counters
            scalars = [est.nodes_visited, est.num_walks, c.compute_ops,
                       *c.bytes_by_channel.values(), *c.transactions_by_channel.values()]
            for part in (est.frequencies, np.array(scalars, dtype=np.int64),
                         c.vertex_access_counts(n), c.vertex_access_bytes(n)):
                digest.update(np.ascontiguousarray(part).tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("survival", [1.0, None], ids=["default", "paper"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_estimates_are_the_parents_bit_for_bit(self, case, survival, monkeypatch):
        monkeypatch.setattr(Rulebook, "estimate", chain_estimate)
        assert self.digest(case, survival) == self.PARENT_DIGESTS[case, survival]

    @pytest.mark.parametrize("survival", [1.0, None], ids=["default", "paper"])
    def test_merged_trie_estimates_are_pinned(self, survival):
        assert self.digest("AZ-rulebook24", survival) == self.MERGED_DIGESTS[survival]

    def test_a_rulebook_batch_draws_once_and_filters_once_per_signature(self, monkeypatch):
        """Counts that repeat: one root draw per walk (110 before the root
        table, one per chain with roots), and the roots of every live root
        group routed in one pass per batch — the matcher's, which the walk
        reads — that gathers the endpoints' labels once and computes at most
        one weight column for every group's root predicate together (one
        pipeline, label mask and predicate filter per root group before).
        Two predicated rules give some groups a root predicate."""
        g0, batches = az_stream(6)
        suite = rulebook_suite(24, num_labels=3, seed=0)
        weighted = [q.with_edge_predicates({e: (0.1, 0.8) for e in q.edges}, name=f"{q.name}-w")
                    for q in suite[:2]]
        rulebook = Rulebook(suite + weighted)
        engine = GCSMEngine(g0, rulebook, seed=0, survival=FULL_EXPANSION)
        table = rulebook.trie.root_table
        assert 1 < table.pair.shape[0] < len(rulebook.trie.refs)
        assert table.predicated and np.isinf(table.bounds).any()  # with and without

        class CountingRng:  # full expansion: only the root draw consumes randomness
            def __init__(self, rng):
                self.rng, self.draws = rng, []

            def binomial(self, n, p, size=None):
                self.draws[-1] += 1
                return self.rng.binomial(n, p, size)

        class CountingLabels(np.ndarray):  # counts gathers while roots are routed
            def __getitem__(self, key):
                gathers[-1] += routing[0]
                return np.asarray(super().__getitem__(key))

        rng = engine.estimator.rng = CountingRng(engine.estimator.rng)
        engine.graph._labels = engine.graph._labels.view(CountingLabels)
        passes = TestOneLaunchPerDepth.count(monkeypatch, matching, "trie_roots")
        weights = TestOneLaunchPerDepth.count(monkeypatch, matching, "edge_weights")
        gathers, routing, route = [], [False], matching.trie_roots

        def routed(*args, **kwargs):
            routing[0] = True
            try:
                return route(*args, **kwargs)
            finally:
                routing[0] = False

        monkeypatch.setattr(matching, "trie_roots", routed)
        for batch in batches:
            for count in (rng.draws, passes, weights, gathers):
                count.append(0)
            assert engine.process_batch(batch).estimation.nodes_visited > 0
        assert rng.draws == [1] * len(batches)
        assert passes == gathers == weights == [1] * len(batches)


class TestRulebookWalkParity:
    """Layer (a) for a rulebook: in the full-expansion regime the production
    walk of the merged trie and the oracle's node-by-node recursion agree
    **exactly** — ``nodes_visited``, ``num_walks``, every FE counter and
    histogram, and the pooled frequencies bit for bit.  Exactly, not
    ``allclose``: a group's ``1/budget`` is *not* folded into its root
    weight; groups of one budget accumulate integer-valued charges into one
    row that the shared base divides once after the walk, so no sum depends
    on the charging order.
    """

    def test_cached_rulebook_identical_under_the_oracle(self):
        g0, batches = az_stream(5)
        queries = rulebook_suite(8, num_labels=3, seed=0)
        runs = {}
        for name in ESTIMATORS:
            engine = MultiQueryEngine(
                g0, queries, placement="cached", survival=FULL_EXPANSION, seed=3
            )
            assert engine.query_set.aliases  # aliases are not walked: never run
            if name == "recursive":
                use_reference_kernels(engine, matcher=False)
            assert type(engine.estimator) is ESTIMATORS[name]
            runs[name] = []
            for batch in batches:
                result = engine.process_batch(batch)
                runs[name].append({
                    **estimator_fingerprint(result.estimation, g0.num_vertices),
                    "cached": result.cached_vertices.tolist(),
                    "estimate_ns": result.breakdown.estimate_ns,
                    "delta": result.delta_counts,
                })
        assert runs["frontier"] == runs["recursive"]
        assert all(r["nodes"] > 100 for r in runs["frontier"])
        assert any(any(r["delta"].values()) for r in runs["frontier"])

    def test_prefilter_rulebook_identical_under_the_oracle(self):
        """Under the pre-filter the walk draws over the roots the kernel
        routes — certified per root group, skipped queries out of every
        member set — read from the expansion; the oracle, fed the same root
        table, descends the same live nodes and agrees exactly."""
        g0, batches = az_stream(5)
        queries = rulebook_suite(8, num_labels=3, seed=0)
        runs, dropped = {}, 0
        for name in ESTIMATORS:
            engine = MultiQueryEngine(
                g0, queries, survival=FULL_EXPANSION, seed=3, prefilter="on"
            )
            if name == "recursive":
                use_reference_kernels(engine, matcher=False)
            expand_ahead = engine.query_set.expand

            def spying(*args, expand_ahead=expand_ahead, **kwargs):
                nonlocal dropped
                expansion = expand_ahead(*args, **kwargs)
                dropped += expansion.dropped.shape[0]
                return expansion

            engine.query_set.expand = spying
            runs[name] = [
                (estimator_fingerprint(r.estimation, g0.num_vertices), r.delta_counts)
                for r in map(engine.process_batch, batches) if r.estimation is not None
            ]
        assert dropped > 0  # roots were certified away
        assert runs["frontier"] and runs["frontier"] == runs["recursive"]

    def test_budgets_differ_between_chains(self):
        """Not vacuous: the rulebook's root groups really carry different
        budgets (several accumulator rows) and its plans — the trie's
        root-to-terminal chains — end at different depths."""
        rulebook = Rulebook(rulebook_suite(8, num_labels=3, seed=0))
        groups = rulebook.trie.stats.root_groups
        assert len(set(split_walk_budget(default_num_walks(24, 50, 6), groups))) > 1
        depths = {len(ref.plan.levels) for ref in rulebook.trie.refs}
        assert len(depths) > 1

    @pytest.mark.parametrize("prefilter", ["off", "on"])
    def test_oracle_walks_the_merged_trie(self, prefilter):
        """The oracle recurses node by node with fan-out under the same
        branch rule, so on the merged trie — nodes with several live
        children, a skip set under the pre-filter — it equals the production
        walk bit for bit in the full-expansion regime, and so does the
        launching walk."""
        g0, batches = az_stream(6)
        rulebook = Rulebook(rulebook_suite(12, num_labels=3, seed=4))
        assert max(np.bincount(level.parent).max() for level in rulebook.trie.levels[1:]) > 1
        engine = GCSMEngine(g0, rulebook, seed=0, prefilter=prefilter)
        n = g0.num_vertices
        for batch in batches:
            applied = engine.graph.apply_batch(batch)
            decision = None
            if engine.prefilter_index is not None:
                engine.prefilter_index.apply_batch(applied)
                decision = rulebook.evaluate(engine.prefilter_index, applied)
            routing = Rulebook._routing(decision)
            budget = np.zeros(rulebook.trie.stats.root_groups, dtype=np.int64)
            budget[rulebook.trie.incidence(routing["skip"])[2][0].live] = 50
            expansion = rulebook.expand(engine, applied, decision)
            runs = [
                sampler(engine.graph, DEVICE, seed=1, survival=FULL_EXPANSION).walk(
                    expansion, budget, 30
                )
                for sampler in (*ESTIMATORS.values(), LaunchingFrequencyEstimator)
            ]
            for frequencies, nodes, counters in runs[1:]:
                assert np.array_equal(frequencies, runs[0][0]) and nodes == runs[0][1]
                assert counters.summary() == runs[0][2].summary()
                assert np.array_equal(counters.vertex_access_counts(n),
                                      runs[0][2].vertex_access_counts(n))
            assert runs[0][2].total_access_count > 0  # past the roots
            engine._reorganize()


class TestPooledEstimateIsModeIndependent:
    """Shared and ``shared=False`` engines pool the same walk: frequencies
    (and so the shipped cache) are bit-identical, prefilter on or off."""

    @pytest.mark.parametrize("prefilter", ["off", "on"])
    def test_shared_equals_independent(self, prefilter):
        g0, batches = az_stream(6)
        queries = rulebook_suite(8, num_labels=3, seed=0)
        pooled = {}
        for shared in (True, False):
            engine = MultiQueryEngine(
                g0, queries, shared=shared, prefilter=prefilter, seed=5
            )
            pooled[shared] = [
                (r.estimation.frequencies.tolist(), r.estimation.num_walks,
                 r.estimation.nodes_visited, r.cached_vertices.tolist())
                for r in map(engine.process_batch, batches)
                if r.estimation is not None
            ]
        assert pooled[True] and pooled[True] == pooled[False]


def mutated(function, old: str, new: str):
    """``function`` recompiled with the one occurrence of ``old`` in its
    source replaced by ``new`` — a mutant, to show a gate fails on it."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"mutation site not found once: {old!r}"
    namespace: dict = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(function), "exec")
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


class TestTheoremOneOnTheRulebook:
    """Paper Theorem 1 on a rulebook, in the stochastic regime
    (``survival=1.0``, the engines' default: thinning draws at every branch,
    survival draws below): over 200 seeded batches of an 8-rule book on AZ,
    the mean of estimated ÷ exact access mass — exact being the kernel's own
    histogram, a shared node's reads once and an alias's never — lies within
    ``BOUND`` of 1 (0.999 when recorded, standard error 0.018: the bound is
    5.6 of them).  Two mutants leave it: the branch weight without its
    ``× 1/p`` (``× k``) reads 0.271, and walking every query's chains again,
    aliases included — the statistic the merged walk replaced — reads 2.130."""

    BOUND = 0.1

    @staticmethod
    def mean_ratio() -> float:
        graph, ratios = datasets.DATASETS["AZ"].build(0), []
        for seed in (0, 1):
            g0, batches = derive_stream(graph, num_updates=100 * 24, batch_size=24, seed=seed + 1)
            engine = MultiQueryEngine(g0, rulebook_suite(8, num_labels=3, seed=0), seed=seed)
            for batch in batches:
                r = engine.process_batch(batch)
                exact = r.match_counters.vertex_access_counts(g0.num_vertices).sum()
                if exact:
                    ratios.append(r.estimation.frequencies.sum() / exact)
        assert len(ratios) >= 200
        return float(np.mean(ratios))

    def test_estimated_mass_is_the_kernels(self):
        assert abs(self.mean_ratio() - 1) < self.BOUND

    def test_fails_without_the_branch_weight(self, monkeypatch):
        monkeypatch.setattr(FrontierFrequencyEstimator, "_descend", mutated(
            FrontierFrequencyEstimator._descend,
            "weight = weight / p",
            "weight = weight",
        ))
        assert self.mean_ratio() < 1 - self.BOUND

    def test_fails_walking_the_alias_chains(self, monkeypatch):
        monkeypatch.setattr(Rulebook, "estimate", chain_estimate)
        assert self.mean_ratio() > 1 + self.BOUND


class TestMixedDepthChains:
    """Chains that end early drop out through ``level.parent`` while the
    deeper ones go on: plans of different depths in one walk."""

    def test_mixed_depths_equal_the_oracle(self):
        g = powerlaw_graph(400, 6.0, max_degree=30, num_labels=2, seed=2)
        g0, batches = derive_stream(g, num_updates=96, batch_size=32, seed=3)
        path = QueryGraph(4, [(0, 1), (1, 2), (2, 3)], name="path")
        plans = (
            compile_delta_plans(query_by_name("Q1"))[:2]
            + compile_delta_plans(TRIANGLE)
            + compile_delta_plans(path)[:1]
        )
        assert not all(
            level.chain for level in ExecutionTrie({None: plans}, merge=False).levels[1:]
        )
        kwargs = dict(survival=FULL_EXPANSION, num_walks=500)
        assert run_estimates("frontier", g0, batches, plans, **kwargs) == (
            run_estimates("recursive", g0, batches, plans, **kwargs)
        )


# ----------------------------------------------------------------------
# weight predicates
# ----------------------------------------------------------------------
PREDICATED = {
    "triangle": TRIANGLE.with_edge_predicates(
        {(0, 1): (0.0, 0.4), (1, 2): (0.0, 0.4), (0, 2): (0.0, 0.4)}
    ),
    "Q1": QueryGraph(5, query_by_name("Q1").edges, name="Q1w").with_edge_predicates(
        {(0, 1): (0.2, 0.5), (1, 4): (0.2, 0.5)}
    ),
}


class TestWalksHonourPredicates:
    """The walk samples the tree the kernel *executes*: a root failing the
    root predicate is never drawn, a candidate failing a level predicate
    never descended into.  (Both samplers used to filter label and
    injectivity only: unbiased for a tree that is never run, so biased high
    for the one that is.)"""

    @staticmethod
    def exact_counts(query, seed):
        g = erdos_renyi(60, 10.0, num_labels=1, seed=seed)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=24, seed=seed)
        graph = DynamicGraph(g0)
        graph.apply_batch(batches[0])
        plans = compile_delta_plans(query)
        counters = AccessCounters()
        stats = match_batch(plans, batches[0], HostCPUView(graph, DEVICE, counters))
        assert stats.embeddings_found > 0
        exact = counters.vertex_access_counts(graph.num_vertices).astype(float)
        return graph, batches[0], plans, exact

    @pytest.mark.parametrize("case", list(PREDICATED))
    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_unbiased_for_the_executed_tree(self, name, case):
        graph, batch, plans, exact = self.exact_counts(PREDICATED[case], seed=3)
        est = ESTIMATORS[name](graph, DEVICE, seed=10, survival=1.0)
        runs = 40
        mean = sum(
            est.estimate(plans, batch, num_walks=600).frequencies for _ in range(runs)
        ) / runs
        # total mass: walking pruned roots / branches inflates it 1.8x / 2.7x
        assert abs(mean.sum() - exact.sum()) / exact.sum() < 0.1
        heavy = exact >= np.percentile(exact[exact > 0], 70)
        rel = np.abs(mean[heavy] - exact[heavy]) / exact[heavy]
        assert float(np.median(rel)) < 0.35

    @pytest.mark.parametrize("case", list(PREDICATED))
    def test_exact_parity_with_predicates(self, case):
        """Layer (a) holds with predicates: same roots drawn, same probes
        charged (one per surviving candidate per predicated constraint)."""
        g = powerlaw_graph(300, 6.0, max_degree=30, num_labels=1, seed=1)
        g0, batches = derive_stream(g, num_updates=96, batch_size=32, seed=2)
        plans = compile_delta_plans(PREDICATED[case])
        kwargs = dict(survival=FULL_EXPANSION, num_walks=400)
        frontier_run = run_estimates("frontier", g0, batches, plans, **kwargs)
        assert frontier_run == run_estimates("recursive", g0, batches, plans, **kwargs)
        assert any(p["nodes"] for p in frontier_run)


# ----------------------------------------------------------------------
# the walk reads the matcher's expansion
# ----------------------------------------------------------------------
READ_QUERIES = {"Q1": query_by_name("Q1"), "Q3": query_by_name("Q3"), "Q1w": PREDICATED["Q1"]}


def launch_counters(patch) -> tuple[list, list, list]:
    """Counts of ``join_rows`` (every launch), the launching walk's own
    ``expand_rows`` calls (:class:`LaunchingFrequencyEstimator`; production
    has no walk that launches) and the matcher's (``matching.expand``'s),
    one zero to start: append one per batch to count by batch."""
    counters = []
    for owner, name in (
        (frontier, "join_rows"), (kernels, "expand_rows"), (matching, "expand_rows")
    ):
        counters.append(TestOneLaunchPerDepth.count(patch, owner, name))
        counters[-1].append(0)
    return tuple(counters)


def dense_stream():
    g = powerlaw_graph(1_000, 7.0, max_degree=50, num_labels=3, seed=51)
    return derive_stream(g, num_updates=8 * 32, batch_size=32, seed=52)


def launching(engine):
    """``engine`` with the walk that launches its own joins: the same
    generator and survival schedule, its reads of the matcher's expansion
    replaced by launches."""
    current = engine.estimator
    engine.estimator = LaunchingFrequencyEstimator(
        current.graph, current.device, seed=current.rng, survival=current.survival,
    )
    return engine


#: the repo benchmark's workloads (``benchmarks/e2e/workloads.py``)
BENCHMARK_WORKLOADS = (
    "fr_q1_mixed", "ca_q3_narrow", "sf3k_q1_churn", "sparse_tri_skip", "az_rulebook24",
)


@pytest.fixture
def benchmark_workloads(monkeypatch):
    """The repo benchmark's ``workloads`` module, loaded read-only under a
    private name.  Its ``import api`` is served from ``sys.modules``; both
    entries go when the test ends, and ``sys.path`` is never touched."""
    e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    for name, file in (("api", "api.py"), ("e2e_workloads", "workloads.py")):
        spec = importlib.util.spec_from_file_location(name, e2e / file)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)  # a dataclass looks its module up
        spec.loader.exec_module(module)
    return module


def engine_fingerprint(result, num_vertices):
    return (
        estimator_fingerprint(result.estimation, num_vertices), result.cached_vertices.tolist(),
        result.delta_count, result.match_stats, result.match_counters.summary(),
        result.match_counters.vertex_access_counts(num_vertices).tolist(),
        result.breakdown.total_ns, result.cache_hits, result.cache_misses,
    )


class TestWalkReadsTheExpansion:
    """Every node a walk visits is a row the matcher expands, so the walk
    reads each depth from the matcher's expansion instead of launching —
    and nothing downstream can tell: frequencies, FE counters and
    histograms, ``nodes_visited`` and the generator state after the walk are
    those of the walk that launches its own joins
    (:class:`~repro.testing.kernels.LaunchingFrequencyEstimator`), bit for
    bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        query=st.sampled_from(list(READ_QUERIES)),
        survival=st.sampled_from([1.0, 2.5, None]),
        mode=st.sampled_from(["coalesce", "ignore"]),
    )
    def test_reading_equals_launching(self, seed, query, survival, mode):
        rng = np.random.default_rng(seed)
        g = powerlaw_graph(400, 8.0, max_degree=40, num_labels=3, seed=rng)
        batches = generate_adversarial_stream(g, num_batches=3, batch_size=24, seed=seed + 1)
        plans = compile_delta_plans(READ_QUERIES[query])
        graph = DynamicGraph(g)
        read, launched = (
            sampler(graph, DEVICE, seed=seed, survival=survival)
            for sampler in (FrontierFrequencyEstimator, LaunchingFrequencyEstimator)
        )
        for raw in batches:
            batch = graph.apply_batch(raw, mode=mode)
            expansion = expand(solo_trie(plans), batch, graph)
            with pytest.MonkeyPatch.context() as patch:
                joins, walk, _ = launch_counters(patch)
                got = read.estimate(plans, batch, num_walks=300, expansion=expansion)
            assert joins == walk == [0]
            want = launched.estimate(plans, batch, num_walks=300, expansion=expansion)
            n = graph.num_vertices
            assert estimator_fingerprint(got, n) == estimator_fingerprint(want, n)
            assert read.rng.bit_generator.state == launched.rng.bit_generator.state
            graph.reorganize()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rules=st.integers(min_value=3, max_value=12),
        survival=st.sampled_from([1.0, 2.5, None]),
    )
    def test_a_rulebook_reading_equals_launching(self, seed, rules, survival):
        """On a merged trie a fan-out launch extends one candidate once per
        child, so each row takes its candidate's columns through
        ``Launch.src``: thinning and survival draws, frequencies, FE
        counters, ``nodes_visited`` and the generator state are the
        launching walk's."""
        rng = np.random.default_rng(seed)
        g = powerlaw_graph(400, 8.0, max_degree=40, num_labels=3, seed=rng)
        batches = generate_adversarial_stream(g, num_batches=3, batch_size=24, seed=seed + 1)
        trie = Rulebook(rulebook_suite(rules, num_labels=3, seed=seed)).trie
        graph = DynamicGraph(g)
        read, launched = (
            sampler(graph, DEVICE, seed=seed, survival=survival)
            for sampler in (FrontierFrequencyEstimator, LaunchingFrequencyEstimator)
        )
        budget = np.full(trie.stats.root_groups, 60)
        for raw in batches:
            batch = graph.apply_batch(raw, mode="coalesce")
            expansion = expand(trie, batch, graph)
            with pytest.MonkeyPatch.context() as patch:
                joins, walk, _ = launch_counters(patch)
                got = read.walk(expansion, budget, 40)
            assert joins == walk == [0]
            want = launched.walk(expansion, budget, 40)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            assert got[2].summary() == want[2].summary()
            assert read.rng.bit_generator.state == launched.rng.bit_generator.state
            graph.reorganize()

    @pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
    def test_each_benchmark_workload_reads_as_it_launches(self, name, benchmark_workloads):
        """The repo benchmark's five workloads on their smoke streams, each
        engine at its default ``survival=1.0`` (branch and survival draws
        below the roots): batch by batch, the estimate of the walk that reads
        the matcher's launches through its mask is the launching walk's —
        frequencies, FE counters and both histograms, ``nodes_visited`` —
        and so is the generator state after it."""
        W = benchmark_workloads
        w = W.WORKLOADS[name]
        inputs, read = W.setup(w, 0, smoke=True)
        launched = launching(W.make_engine(w, inputs, 0))
        assert read.estimator.survival == launched.estimator.survival == 1.0
        walked = 0
        for batch in inputs.batches:
            got = read.process_batch(batch).estimation
            want = launched.process_batch(batch).estimation
            assert (got is None) == (want is None)  # a certified skip on both or neither
            if got is not None:
                n = read.graph.num_vertices
                assert estimator_fingerprint(got, n) == estimator_fingerprint(want, n)
                walked += got.nodes_visited
            assert read.estimator.rng.bit_generator.state == launched.estimator.rng.bit_generator.state
        assert walked > 0

    @pytest.mark.parametrize("survival", [1.0, 2.5, None])
    def test_engine_batches_equal_the_launching_engine(self, survival, monkeypatch):
        """End to end, not vacuous: the walks get past the roots, the
        estimator launches nothing, the matcher once per depth, and every
        estimate, cache set, counter and simulated ns is the launching
        engine's."""
        g0, batches = dense_stream()
        read, launched = (
            GCSMEngine(g0, query_by_name("Q1"), seed=0, survival=survival) for _ in range(2)
        )
        launching(launched)
        joins, walk, kernel = launch_counters(monkeypatch)
        for batch in batches:
            for count in (joins, walk, kernel):
                count.append(0)
            got = read.process_batch(batch)
            assert walk[-1] == 0 and joins[-1] == kernel[-1] == 3
            assert got.estimation.nodes_visited > got.estimation.num_walks // 100
            assert engine_fingerprint(got, g0.num_vertices) == engine_fingerprint(
                launched.process_batch(batch), g0.num_vertices
            )
            assert walk[-1] > 0  # the launching twin's walk did launch

    def test_adaptive_rounds_read_one_expansion(self, monkeypatch):
        g0, batches = dense_stream()
        settings = dict(seed=0, adaptive_walks=True, num_walks=16)
        read, launched = (GCSMEngine(g0, query_by_name("Q1"), **settings) for _ in range(2))
        launching(launched)
        rounds = []
        estimate = read.estimator.estimate

        def counted(*args, **kwargs):
            rounds[-1] += 1
            return estimate(*args, **kwargs)

        read.estimator.estimate = counted
        joins, walk, kernel = launch_counters(monkeypatch)
        for batch in batches:
            for count in (joins, walk, kernel, rounds):
                count.append(0)
            got = read.process_batch(batch)
            assert walk[-1] == 0 and joins[-1] == kernel[-1] == 3
            assert engine_fingerprint(got, g0.num_vertices) == engine_fingerprint(
                launched.process_batch(batch), g0.num_vertices
            )
        assert max(rounds) > 1  # re-sampled, every round reading

    def test_a_root_certified_away_is_read_around(self):
        """A root the pipeline certified away is not in the expansion's root
        table, so no walk draws it: the walk reads the roots the kernel ran,
        launches nothing, and equals the launching walk over them."""

        g0, batches = dense_stream()
        plans = compile_delta_plans(query_by_name("Q1"))
        graph = DynamicGraph(g0)
        graph.apply_batch(batches[0])
        drop_first = []  # each group's keep-mask certifies its first root away
        for plan in plans:
            keep = np.ones(delta_roots(plan, batches[0], graph.labels)[0].shape[0], dtype=bool)
            keep[:1] = False
            drop_first.append(keep)
        expansion = expand(solo_trie(plans), batches[0], graph, prefilter=drop_first)
        assert expansion.skipped.tolist() == [1] * 6 and expansion.dropped.shape == (6, 2)
        self.assert_reads(graph, plans, batches[0], expansion)

    def test_a_reduced_estimate_batch_only_sizes_the_budget(self):
        """Under the pre-filter the estimate is handed the reduced
        ``estimate_batch``, another batch object: the walk still reads the
        matcher's expansion — its roots, its rows — and the batch only
        sizes the default budget."""
        g0, batches = dense_stream()
        plans = compile_delta_plans(query_by_name("Q1"))
        graph = DynamicGraph(g0)
        batch = graph.apply_batch(batches[0])
        expansion = expand(solo_trie(plans), batch, graph)
        keep = np.arange(len(batch)) % 2 == 0
        reduced = UpdateBatch(batch.edges[keep], batch.signs[keep], batch.new_vertex_labels)
        got = self.assert_reads(graph, plans, reduced, expansion)
        want = FrontierFrequencyEstimator(graph, DEVICE, seed=4, survival=2.5).estimate(
            plans, batch, expansion=expansion
        )
        assert got == estimator_fingerprint(want, graph.num_vertices)

    @staticmethod
    def assert_reads(graph, plans, batch, expansion):
        """``estimate`` over ``expansion`` launches nothing and equals the
        launching walk's; returns its fingerprint."""
        runs, joins = [], []
        for sampler in (FrontierFrequencyEstimator, LaunchingFrequencyEstimator):
            estimator = sampler(graph, DEVICE, seed=4, survival=2.5)
            with pytest.MonkeyPatch.context() as patch:
                counted, _, _ = launch_counters(patch)
                result = estimator.estimate(plans, batch, expansion=expansion)
            runs.append(estimator_fingerprint(result, graph.num_vertices))
            joins.append(counted[0])
        assert runs[0] == runs[1] and runs[0]["nodes"] > 0
        assert joins[0] == 0 < joins[1]
        return runs[0]

    def test_prefilter_engine_equals_the_launching_engine(self):
        g0, batches = dense_stream()
        read, launched = (
            GCSMEngine(g0, query_by_name("Q1"), seed=0, prefilter="on") for _ in range(2)
        )
        launching(launched)
        for batch in batches:
            got, want = read.process_batch(batch), launched.process_batch(batch)
            if got.estimation is None:  # a certified skip
                assert want.estimation is None and got.delta_count == want.delta_count == 0
                continue
            assert engine_fingerprint(got, g0.num_vertices) == engine_fingerprint(
                want, g0.num_vertices
            )

    @pytest.mark.parametrize("prefilter", ["off", "on"])
    def test_a_rulebook_walk_reads(self, prefilter, monkeypatch):
        """A rulebook's prepare expands its merged trie, the walk reads it —
        no launch of its own, under the pre-filter too — and the kernel's
        launches are all the batch pays."""
        g0, batches = az_stream(6)
        rulebook = Rulebook(rulebook_suite(8, num_labels=3, seed=0))
        engine = GCSMEngine(g0, rulebook, seed=0, prefilter=prefilter)
        joins, walk, kernel = launch_counters(monkeypatch)
        for batch in batches:
            for count in (joins, walk, kernel):
                count.append(0)
            if engine.process_batch(batch).estimation is not None:
                assert joins[-1] == kernel[-1] > 0
        assert sum(walk) == 0 and sum(kernel) > len(batches)

    @pytest.mark.parametrize("sinks", [True, False], ids=["sinks", "no-sinks"])
    @pytest.mark.parametrize("prefilter", ["off", "on"])
    def test_rulebook_reading_equals_launching(self, prefilter, sinks):
        """End to end on a rulebook, thinning draws included (default
        survival): the engine whose walk reads the expansion ``prepare`` ran
        and whose match settles it equals the one that launches both — every
        estimate, cache set, counter, per-query stat and attributed counter,
        simulated ns and sink emission."""
        g0, batches = az_stream(6)
        queries = rulebook_suite(10, num_labels=3, seed=2)
        read, launched = (
            MultiQueryEngine(g0, queries, seed=1, prefilter=prefilter) for _ in range(2)
        )
        launching(launched)
        n, emitted = g0.num_vertices, {}
        for batch in batches:
            results = []
            for side, engine in (("read", read), ("launched", launched)):
                out = emitted.setdefault(side, [])
                hooks = {q.name: (lambda emb, sign, q=q.name: out.append((q, emb, sign)))
                         for q in queries} if sinks else None
                r = engine.process_batch(batch, sinks=hooks)
                by_query = r.match_counters_by_query
                results.append((
                    engine_fingerprint(r, n) if r.estimation is not None else None,
                    r.delta_counts, r.match_stats,
                    {q: c.summary() for q, c in by_query.items()},
                ))
            assert results[0] == results[1]
        assert emitted["read"] == emitted["launched"]
        assert not sinks or emitted["read"]

    @pytest.mark.parametrize("matcher", [True, False], ids=["reference-matcher", "production"])
    @pytest.mark.parametrize("estimator", [True, False], ids=["reference-walk", "production-walk"])
    def test_reference_kernel_combinations(self, matcher, estimator, monkeypatch):
        """Every ``use_reference_kernels`` combination keeps its meaning: a
        reference matcher expands nothing ahead, so the estimate runs the
        one expansion itself (and a production walk reads it); a reference
        walk reads only its roots.  Either way a batch launches the plan
        depth once, and in the full-expansion regime all four equal the
        production pair."""
        g0, batches = dense_stream()
        settings = dict(seed=0, survival=FULL_EXPANSION, num_walks=64)
        base = GCSMEngine(g0, query_by_name("Q1"), **settings)
        engine = use_reference_kernels(
            GCSMEngine(g0, query_by_name("Q1"), **settings), matcher=matcher, estimator=estimator
        )
        joins, _, kernel = launch_counters(monkeypatch)
        for batch in batches[:3]:
            joins.append(0)
            kernel.append(0)
            got = engine.process_batch(batch)
            assert joins[-1] == kernel[-1] == 3
            want = base.process_batch(batch)
            assert engine_fingerprint(got, g0.num_vertices) == engine_fingerprint(
                want, g0.num_vertices
            )


class TestOneExpansionPerBatch:
    """Clocks that repeat, on a small single-query stream: per batch the row
    program launches once per plan depth — all of them the matcher's, the
    estimator reads them (6 when the walk launched its own, before it only
    read) — and the whole batch stays under a Python-call ceiling (1 209 …
    1 285 calls per batch when the walk launched, 1 039 … 1 097 when it
    first read; 788 … 843 reading each depth by a search of the launch's
    rows, 756 … 814 reading them through its mask, 741 … 788 with a
    launch's operands in one store read, 612 … 659 with the update in one
    pass, 344 … 391 with the roots in one pass, a launch's log gathered once
    and the update priced from its op count, 338 … 385 with the reorganize
    priced from its op count too, on CPython 3.11 / NumPy 2.4.6).
    The ceiling is that maximum + 1: one ``np.count_nonzero`` more per batch
    in ``DynamicGraph.apply_batch`` (two Python calls) makes 387 and fails
    it."""

    CALL_CEILING = 386

    def test_launches_per_batch_are_the_plan_depth(self, monkeypatch):
        g0, batches = dense_stream()
        query = query_by_name("Q1")
        engine = GCSMEngine(g0, query, seed=0)
        joins, walk, kernel = launch_counters(monkeypatch)
        for batch in batches:
            for count in (joins, walk, kernel):
                count.append(0)
            engine.process_batch(batch)
        depth = query.num_vertices - 2
        assert joins[1:] == kernel[1:] == [depth] * len(batches)
        assert walk[1:] == [0] * len(batches)

    def test_python_calls_per_batch(self):
        g0, batches = dense_stream()
        engine = GCSMEngine(g0, query_by_name("Q1"), seed=0)
        calls = [count_calls(lambda batch=batch: engine.process_batch(batch)) for batch in batches]
        assert max(calls) <= self.CALL_CEILING, calls
