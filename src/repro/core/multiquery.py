"""Multi-query continuous matching (extension beyond the paper).

Real CSM deployments monitor *many* patterns over one stream (the paper's
motivating fraud scenarios watch whole rule books).  Running one
:class:`~repro.core.engine.GCSMEngine` per pattern repeats the per-batch
graph update, frequency estimation, DCSR packing, DMA, and reorganization
once per pattern.  :class:`MultiQueryEngine` shares all of it:

* one dynamic graph, updated and reorganized once per batch;
* one **pooled frequency estimate** — the walk budget is split exactly
  across all queries' delta plans and the per-vertex estimates summed,
  which is the right statistic because the kernel's total access frequency
  over the batch is the sum over queries (each estimate is unbiased for its
  query's accesses, so the pooled estimate is unbiased for the union
  workload);
* one DCSR cache and one DMA, then the rulebook executes against the
  shared cached view.

Beyond the shared pre-kernel phases, the engine shares the **kernel**
itself (``shared=True``, the default):

* queries are lexsorted by name, then deduped by
  :func:`~repro.query.symmetry.canonical_form` — isomorphic standing
  patterns have identical ΔM on every batch, so only the lexicographically
  first member of each class (its *representative*) is matched, and every
  alias receives the representative's ΔM (with sink embeddings remapped
  through :func:`~repro.query.symmetry.find_isomorphism`);
* the representatives' ΔM plans are grouped into an
  :class:`~repro.core.querytrie.ExecutionTrie` by common signature
  prefixes, and one masked frontier expansion per trie node serves every
  plan sharing that prefix — candidate enumeration and its access charges
  are paid once per *distinct* prefix, not once per query.

``shared=False`` runs the classic per-query loop against the same shared
cache — the baseline the trie is validated against.  Either way the result
carries **per-query attributed counters** that are bit-identical between
the two modes for representatives (the sharing contract of
:mod:`repro.core.querytrie`), while the engine-level ``match_counters``
price only the work actually executed — their gap is the modeled saving.

Amortization grows with the number of patterns; the multi-query ablation
bench quantifies it against per-pattern engines and across rulebook sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.cache import CachedDeviceView, FrequencyCachePolicy
from repro.core.engine import pack_step, reorganize_step, update_step
from repro.core.frequency import EstimationResult, default_num_walks
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.frontier import FrontierKernel
from repro.core.matching import MatchStats, match_batch
from repro.core.prefilter import (
    DEFAULT_PREFILTER,
    PrefilterDecision,
    PrefilterStats,
    make_prefilter,
)
from repro.core.querytrie import ExecutionTrie, SharedTrieExecutor, TrieStats
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import DEFAULT_CONFLICT_MODE, UpdateBatch
from repro.gpu.clock import TimeBreakdown, simulated_time_ns
from repro.gpu.counters import AccessCounters
from repro.gpu.device import DeviceConfig, default_device
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_delta_plans
from repro.query.symmetry import canonical_form, find_isomorphism
from repro.utils import VERTEX_DTYPE, as_generator, require, spawn_generator

__all__ = ["MultiQueryEngine", "MultiBatchResult", "split_walk_budget"]


def split_walk_budget(total_walks: int, num_queries: int) -> list[int]:
    """Split a walk budget so per-query counts sum *exactly* to the budget.

    The first ``total_walks % num_queries`` queries receive one extra walk,
    so ``sum == total_walks`` always — no rounding drift at large rulebook
    sizes (the old ``total // n`` floor under-spent up to ``n - 1`` walks).
    Degenerate budgets below one walk per query are raised to one each (the
    estimator needs at least one walk to be defined), which is the only
    case where the sum exceeds the request.
    """
    require(num_queries >= 1, "need at least one query")
    total_walks = max(int(total_walks), num_queries)
    base, extra = divmod(total_walks, num_queries)
    return [base + (1 if i < extra else 0) for i in range(num_queries)]


@dataclass
class MultiBatchResult:
    """Per-batch outcome across all monitored queries.

    ``delta_counts[name]`` is each query's signed ΔM; the breakdown's
    update/estimate/pack/reorg phases are *shared* (paid once).  Under
    shared trie execution ``match_counters`` price each shared expansion
    once (that is what ``match_ns`` is computed from), while
    ``match_counters_by_query`` attribute every charge back to each member
    query — bit-identical to what that query's independent execution would
    record.  ``aliases`` maps deduped query names to the isomorphic
    representative that was actually matched on their behalf.
    """

    delta_counts: dict[str, int]
    match_stats: dict[str, MatchStats]
    breakdown: TimeBreakdown
    match_counters: AccessCounters
    #: the shared cache (defaults: whole-rulebook certified skip, nothing shipped)
    estimation: EstimationResult | None = None
    cached_vertices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=VERTEX_DTYPE)
    )
    cache_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shared: bool = True
    match_counters_by_query: dict[str, AccessCounters] | None = None
    aliases: dict[str, str] = field(default_factory=dict)
    trie_stats: TrieStats | None = None
    #: certified-skip accounting when the aggregate-invariant pre-filter is
    #: enabled (None with ``prefilter="off"``); ``queries_skipped`` counts
    #: every rulebook entry certified ΔM = 0 this batch, aliases included
    prefilter: PrefilterStats | None = None

    @property
    def total_delta(self) -> int:
        return sum(self.delta_counts.values())


def _copy_counters(counters: AccessCounters) -> AccessCounters:
    fresh = AccessCounters()
    fresh.merge(counters)
    return fresh


class MultiQueryEngine:
    """Continuously match a set of patterns with shared per-batch work.

    Queries are lexsorted by name at construction, so trie layout,
    execution order, result-dict order, and sink order are all independent
    of the caller's dict/list insertion order.
    """

    def __init__(
        self,
        initial_graph: StaticGraph,
        queries: list[QueryGraph],
        *,
        device: DeviceConfig | None = None,
        num_walks: int | None = None,
        survival: float | None = 1.0,
        cache_budget_bytes: int | None = None,
        seed: int | np.random.Generator | None = 0,
        conflict_mode: str = DEFAULT_CONFLICT_MODE,
        shared: bool = True,
        attribute_counters: bool = True,
        prefilter: str = DEFAULT_PREFILTER,
    ) -> None:
        require(len(queries) >= 1, "need at least one query")
        names = [q.name for q in queries]
        require(len(set(names)) == len(names), "query names must be unique")
        self.device = device or default_device()
        self.cache_budget_bytes = (
            cache_budget_bytes
            if cache_budget_bytes is not None
            else self.device.cache_buffer_bytes
        )
        self.graph = DynamicGraph(initial_graph)
        # deterministic rulebook order: lexsort by query name
        self.queries = sorted(queries, key=lambda q: q.name)
        self.plans = {q.name: compile_delta_plans(q) for q in self.queries}
        self.num_walks = num_walks
        # the two kernels are plain attributes (the repro.testing seam)
        self.estimator = FrontierFrequencyEstimator(
            self.graph, self.device,
            seed=spawn_generator(as_generator(seed)), survival=survival,
        )
        self.match = match_batch
        self.policy = FrequencyCachePolicy()
        self.conflict_mode = conflict_mode
        self.shared = shared
        self.attribute_counters = attribute_counters
        self.prefilter_index = make_prefilter(prefilter, self.graph)
        self.batches_processed = 0

        # -- symmetry dedupe: one representative per isomorphism class ------
        # (lexsorted order makes the representative the lexicographically
        # first member, deterministically)
        self.canonical_of: dict[str, str] = {}
        #: alias name -> permutation σ with σ[u_rep] = u_alias
        self._alias_iso: dict[str, tuple[int, ...]] = {}
        by_form: dict[tuple, QueryGraph] = {}
        for q in self.queries:
            # predicated queries stay their own representatives: the
            # canonical form (and find_isomorphism) is predicate-blind, so
            # an alias remap could move a predicate onto the wrong edge.
            # Structural trie sharing still applies — plan signatures carry
            # the predicates and only share genuinely identical prefixes.
            form = ("__predicated__", q.name) if q.has_predicates() else canonical_form(q)
            rep = by_form.get(form)
            if rep is None:
                by_form[form] = q
                self.canonical_of[q.name] = q.name
            else:
                self.canonical_of[q.name] = rep.name
                iso = find_isomorphism(rep, q)
                assert iso is not None, "canonical forms equal but no isomorphism"
                self._alias_iso[q.name] = iso
        self.representatives = [
            q for q in self.queries if self.canonical_of[q.name] == q.name
        ]
        self.trie = ExecutionTrie(
            {q.name: self.plans[q.name] for q in self.representatives}
        )

    # ------------------------------------------------------------------
    def _prefilter_batch(
        self, batch: UpdateBatch
    ) -> tuple[dict[str, PrefilterDecision] | None, frozenset[str], float]:
        """Maintain the invariant index and certify per-query skips.

        Returns ``(decisions, skip_queries, prefilter_ns)``.  ``decisions``
        maps each *representative* to its batch decision (per-plan root
        masks, reduced estimate batch); ``skip_queries`` names every
        rulebook entry — aliases included — certified ΔM = 0 for this
        batch.  Aliases inherit their representative's decision: skip
        feasibility and root counts are isomorphism invariants, so the
        inheritance is exact.  ``(None, frozenset(), 0.0)`` when off.
        """
        if self.prefilter_index is None:
            return None, frozenset(), 0.0
        counters = self.prefilter_index.apply_batch(batch)
        decisions: dict[str, PrefilterDecision] = {}
        for query in self.representatives:
            decision = self.prefilter_index.evaluate(self.plans[query.name], batch)
            counters.merge(decision.counters)
            decisions[query.name] = decision
        skip_queries = frozenset(
            q.name
            for q in self.queries
            if decisions[self.canonical_of[q.name]].skip_batch
        )
        ns = simulated_time_ns(counters, self.device, platform="cpu")
        return decisions, skip_queries, ns

    # ------------------------------------------------------------------
    def _pooled_estimate(
        self,
        batch: UpdateBatch,
        decisions: dict[str, PrefilterDecision] | None = None,
        skip_queries: frozenset[str] = frozenset(),
    ) -> EstimationResult:
        """Sum per-query unbiased estimates into one workload estimate.

        Iterates *all* queries (aliases included) in lexsorted order in both
        execution modes, so the pooled frequencies — and therefore the cache
        contents every downstream counter depends on — are bit-identical
        between shared and independent runs.

        Under the pre-filter, queries certified ΔM = 0 are excluded (their
        walks would estimate provably dead work) and the walk budget is
        split across the active queries only, each walking its
        representative's *reduced* estimate batch.  This changes the
        estimate and therefore the cache — never results.
        """
        active = [q for q in self.queries if q.name not in skip_queries]
        require(len(active) >= 1, "estimation needs at least one active query")
        max_degree = max(1, self.graph.max_degree())
        largest = max(q.num_vertices for q in active)
        total_walks = self.num_walks or default_num_walks(
            len(batch), max_degree, largest
        )
        budget = split_walk_budget(total_walks, len(active))
        pooled: np.ndarray | None = None
        counters = AccessCounters()
        nodes = 0
        walks = 0
        for query, query_walks in zip(active, budget):
            est_batch = batch
            if decisions is not None:
                reduced = decisions[self.canonical_of[query.name]].estimate_batch
                if reduced is not None:
                    est_batch = reduced
            result = self.estimator.estimate(
                self.plans[query.name], est_batch,
                num_walks=query_walks, max_degree=max_degree,
            )
            pooled = result.frequencies if pooled is None else pooled + result.frequencies
            counters.merge(result.counters)
            nodes += result.nodes_visited
            walks += result.num_walks
        assert pooled is not None
        return EstimationResult(pooled, walks, nodes, counters)

    # ------------------------------------------------------------------
    def _match_independent(
        self,
        batch: UpdateBatch,
        view: CachedDeviceView,
        match_counters: AccessCounters,
        sinks: dict,
        decisions: dict[str, PrefilterDecision] | None = None,
        skip_queries: frozenset[str] = frozenset(),
    ) -> tuple[dict[str, MatchStats], dict[str, AccessCounters]]:
        """Baseline: every query runs its own full plan execution.

        Each query's charges land in a private counter (swapped into the
        shared view for the duration of its ``match_batch``) and are then
        merged into the engine total — additive, so the totals equal the
        classic single-counter accumulation exactly.  Skipped queries pay
        nothing; active queries apply per-plan root masks straight from the
        live invariant index (this mode is single-threaded, so no frozen
        decision is needed — and aliases run their *own* plans, which the
        representative's precomputed masks would not align with).
        """
        match_stats: dict[str, MatchStats] = {}
        per_query: dict[str, AccessCounters] = {}
        saved = view.counters
        try:
            for query in self.queries:
                pq = AccessCounters()
                if query.name in skip_queries:
                    assert decisions is not None
                    rep = self.canonical_of[query.name]
                    match_stats[query.name] = MatchStats(
                        roots_skipped=decisions[rep].roots_total
                    )
                    per_query[query.name] = pq
                    continue
                view.counters = pq
                match_stats[query.name] = self.match(
                    self.plans[query.name], batch, view,
                    sink=sinks.get(query.name), prefilter=self.prefilter_index,
                )
                per_query[query.name] = pq
                match_counters.merge(pq)
        finally:
            view.counters = saved
        return match_stats, per_query

    def _match_shared(
        self,
        batch: UpdateBatch,
        view: CachedDeviceView,
        match_counters: AccessCounters,
        sinks: dict,
        decisions: dict[str, PrefilterDecision] | None = None,
        skip_queries: frozenset[str] = frozenset(),
    ) -> tuple[dict[str, MatchStats], dict[str, AccessCounters] | None]:
        """One trie walk over the representatives; aliases copy results.

        The trie always drives the frontier kernel; its per-query attributed
        counters and stats are bit-identical to an independent run.
        """
        # aliases receive the representative's embeddings remapped through
        # the stored isomorphism; the representative's own sink (if any)
        # sees its emission order unchanged
        fanout: dict[str, list] = {}
        for name, sink in sinks.items():
            rep = self.canonical_of[name]
            if rep == name:
                fanout.setdefault(rep, []).append((sink, None))
            else:
                iso = self._alias_iso[name]
                inv = [0] * len(iso)
                for u_rep, u_alias in enumerate(iso):
                    inv[u_alias] = u_rep
                fanout.setdefault(rep, []).append((sink, tuple(inv)))
        rep_sinks: dict[str, object] = {}
        for rep, targets in fanout.items():
            def _fan(emb, sign, targets=targets):
                for sink, inv in targets:
                    if inv is None:
                        sink(emb, sign)
                    else:
                        sink(tuple(emb[u] for u in inv), sign)
            rep_sinks[rep] = _fan

        per_query = (
            {q.name: AccessCounters() for q in self.representatives}
            if self.attribute_counters
            else None
        )
        kernel = FrontierKernel(view, self.graph.labels)
        shared_exec = SharedTrieExecutor(
            self.trie, kernel, self.graph.labels,
            shared_counters=match_counters,
            per_query_counters=per_query,
            sinks=rep_sinks,
            skip_queries=skip_queries,
            prefilter=decisions,
        )
        rep_stats = shared_exec.run(batch)

        match_stats: dict[str, MatchStats] = {}
        for query in self.queries:
            rep = self.canonical_of[query.name]
            if query.name in skip_queries:
                # certified ΔM = 0 (aliases inherit — an isomorphism
                # invariant), pruned from the trie before expansion
                assert decisions is not None
                match_stats[query.name] = MatchStats(
                    roots_skipped=decisions[rep].roots_total
                )
                if per_query is not None:
                    per_query[query.name] = AccessCounters()
            elif rep == query.name:
                match_stats[query.name] = rep_stats[query.name]
            else:
                # ΔM and embedding counts are isomorphism invariants;
                # stats/counters mirror the representative's execution
                match_stats[query.name] = replace(rep_stats[rep])
                if per_query is not None:
                    per_query[query.name] = _copy_counters(per_query[rep])
        return match_stats, per_query

    # ------------------------------------------------------------------
    def process_batch(
        self, batch: UpdateBatch, *, sinks: dict | None = None
    ) -> MultiBatchResult:
        """One shared pipeline pass; every query matched incrementally.

        ``sinks`` optionally maps query names to embedding sinks
        ``(embedding, sign) -> None``; under shared execution an alias sink
        receives the representative's embeddings remapped to the alias's
        vertex numbering.
        """
        require(len(batch) > 0, "empty batch")
        graph = self.graph
        breakdown = TimeBreakdown()
        sinks = sinks or {}

        # -- shared step 1: update -----------------------------------------
        batch, breakdown.update_ns = update_step(
            graph, batch, self.device, self.conflict_mode
        )

        # -- shared step 1b: invariant maintenance + per-query skips ---------
        decisions, skip_queries, breakdown.prefilter_ns = self._prefilter_batch(batch)
        match_counters = AccessCounters()
        whole_skip = decisions is not None and len(skip_queries) == len(self.queries)
        if whole_skip:
            # every rulebook entry certified ΔM = 0: skip estimation,
            # packing, DMA, and the whole trie walk; reorganize only
            match_stats = {
                q.name: MatchStats(
                    roots_skipped=decisions[self.canonical_of[q.name]].roots_total
                )
                for q in self.queries
            }
            per_query = (
                {q.name: AccessCounters() for q in self.queries}
                if self.attribute_counters or not self.shared
                else None
            )
            cached = {}
        else:
            # -- shared step 2: pooled estimation ----------------------------
            estimation = self._pooled_estimate(batch, decisions, skip_queries)
            breakdown.estimate_ns = simulated_time_ns(
                estimation.counters, self.device, platform="cpu_estimator"
            )

            # -- shared step 3: one cache, one DMA ---------------------------
            selected = self.policy.select(
                graph, estimation.frequencies, self.cache_budget_bytes
            )
            cache, breakdown.pack_ns = pack_step(graph, selected, self.device)

            # -- step 4: rulebook matching against the shared cache ----------
            view = CachedDeviceView(graph, self.device, match_counters, cache)
            run = self._match_shared if self.shared else self._match_independent
            match_stats, per_query = run(
                batch, view, match_counters, sinks, decisions, skip_queries
            )
            breakdown.match_ns = simulated_time_ns(
                match_counters, self.device, platform="gpu"
            )
            cached = dict(
                estimation=estimation, cached_vertices=selected,
                cache_bytes=cache.total_bytes, cache_hits=view.hits,
                cache_misses=view.misses,
            )

        # -- shared step 5: reorganize ----------------------------------------
        breakdown.reorg_ns = self._reorganize()

        self.batches_processed += 1
        return MultiBatchResult(
            delta_counts={name: st.signed_count for name, st in match_stats.items()},
            match_stats=match_stats,
            breakdown=breakdown,
            match_counters=match_counters,
            shared=self.shared,
            match_counters_by_query=per_query,
            aliases={
                name: rep for name, rep in self.canonical_of.items() if name != rep
            },
            trie_stats=self.trie.stats if self.shared else None,
            prefilter=self._prefilter_stats(
                breakdown, decisions, match_stats, whole_skip
            ),
            **cached,
        )

    # ------------------------------------------------------------------
    def _reorganize(self) -> float:
        ns = reorganize_step(self.graph, self.device)
        if self.prefilter_index is not None:
            # the batch is settled: OLD adjacency is gone, drop the overlay
            self.prefilter_index.close_batch()
        return ns

    def _prefilter_stats(
        self,
        breakdown: TimeBreakdown,
        decisions: dict[str, PrefilterDecision] | None,
        match_stats: dict[str, MatchStats],
        batch_skipped: bool,
    ) -> PrefilterStats | None:
        if decisions is None:
            return None
        return PrefilterStats(
            enabled=True,
            batches_skipped=int(batch_skipped),
            roots_skipped=sum(st.roots_skipped for st in match_stats.values()),
            queries_skipped=sum(
                decisions[self.canonical_of[q.name]].skip_batch for q in self.queries
            ),
            maintenance_ns=breakdown.prefilter_ns,
        )

    def snapshot(self) -> StaticGraph:
        return self.graph.snapshot()
