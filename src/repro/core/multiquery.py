"""Multi-query continuous matching: the rulebook query set (extension
beyond the paper).

Real CSM deployments monitor *many* patterns over one stream (the paper's
motivating fraud scenarios watch whole rule books).  Running one
:class:`~repro.core.engine.GCSMEngine` per pattern repeats the per-batch
graph update, frequency estimation, DCSR packing, DMA, and reorganization
once per pattern.  ``GCSMEngine(graph, Rulebook(queries), **settings)``
shares all of it — :class:`Rulebook` is the engine's query-set plug, so the
stages, schedules, placements and fleet are the engine's own and this module
holds only what is rulebook logic:

* one **pooled frequency estimate**, taken in ONE walk of the trie the
  kernel runs (:meth:`~repro.core.frequency.FrequencyEstimator.walk`) — the
  walk budget is split exactly across the live root groups and a row enters
  each of a node's ``k`` live children with probability
  ``min(1, survival/k)`` at weight ``× 1/p``, so the estimate is unbiased
  for the merged kernel's own accesses (a shared node once, an alias never);
  the walk reads the kernel's expansion, run ahead of it, and launches
  nothing;
* queries are lexsorted by name, then deduped by
  :func:`~repro.query.symmetry.canonical_form` — isomorphic standing
  patterns have identical ΔM on every batch, so only the lexicographically
  first member of each class (its *representative*) is matched, and every
  alias receives the representative's ΔM (with sink embeddings remapped
  through :func:`~repro.query.symmetry.find_isomorphism`);
* the representatives' ΔM plans are grouped into an
  :class:`~repro.core.querytrie.ExecutionTrie` by common signature
  prefixes and handed to the one match driver
  (:func:`repro.core.matching.match_trie`): one launch per trie depth, and
  each node's expansion serves every plan sharing that prefix — candidate
  enumeration and its access charges are paid once per *distinct* prefix,
  not once per query.

``shared=False`` runs the classic per-query loop against the same shipped
view — ``engine.match``, the same driver over each query's own plans: the
reference leg the trie is validated against.  Either way the result
carries **per-query attributed counters** that are bit-identical between
the two modes for representatives (the sharing contract of
:mod:`repro.core.querytrie`), while the engine-level ``match_counters``
price only the work actually executed — their gap is the modeled saving.
Under the trie they are computed when read: a batch keeps the block it
settled (:class:`~repro.core.matching.Attribution`, a fleet's too) and the
first read of ``match_counters_by_query`` charges it per query; a batch
nobody asks about attributes nothing.

Amortization grows with the number of patterns; the multi-query ablation
bench quantifies it against per-pattern engines and across rulebook sizes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from repro.core.engine import BatchResult, GCSMEngine, QuerySet
from repro.core.frequency import EstimationResult, default_num_walks
from repro.core.matching import Attribution, Expansion, MatchStats, expand, settle
from repro.core.prefilter import PrefilterDecision, PrefilterStats, RequirementTable
from repro.core.querytrie import ExecutionTrie, TrieStats
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_delta_plans
from repro.query.symmetry import canonical_form, find_isomorphism
from repro.utils import require

__all__ = [
    "Rulebook",
    "MultiQueryEngine",
    "MultiBatchResult",
    "RulebookStats",
    "RulebookDecision",
    "split_walk_budget",
]


#: a :class:`MatchStats` row's width (its fields) and its ``roots_skipped`` column
_COLUMNS = len(fields(MatchStats))
_SKIPPED = [f.name for f in fields(MatchStats)].index("roots_skipped")


def stats_table(by_query: dict[str, MatchStats]) -> np.ndarray:
    """Per-query stats as one ``(queries, 5)`` integer table, a row per
    query in ``by_query``'s order and a column per :class:`MatchStats`
    field, in field order."""
    rows = [list(vars(stats).values()) for stats in by_query.values()]
    return np.array(rows, dtype=np.int64).reshape(-1, _COLUMNS)


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
class RulebookStats(MatchStats):
    """Rulebook totals plus their per-query split, and what
    per-query counters are read from: the per-query loop's own
    ``counters_by_query``, or the trie's settled blocks ``attributions``
    (one per settle), charged per query only when read
    (:meth:`per_query_counters`)."""

    by_query: dict[str, MatchStats] = field(default_factory=dict)
    #: the per-query loop's counters, each query's own execution
    counters_by_query: dict[str, AccessCounters] = field(default_factory=dict)
    attributions: list[Attribution] = field(default_factory=list)

    @classmethod
    def of(cls, by_query: dict[str, MatchStats], table: np.ndarray | None = None,
           **records) -> "RulebookStats":
        """Adopt per-query stats, totalled by one column sum of their
        ``(queries, 5)`` table (:func:`stats_table`, unless handed it)."""
        if table is None:
            table = stats_table(by_query)
        return cls(*np.add.reduce(table, axis=0).tolist(), by_query=by_query, **records)

    def per_query_counters(self, aliases: dict[str, str]) -> dict[str, AccessCounters]:
        """Counters per query in ``by_query``'s order: what each query ran —
        the per-query loop's own, or the trie's blocks charged to the
        queries they ran for (:meth:`~repro.core.matching.Attribution.charge`)
        — an alias a copy-on-write copy of its representative's, and a query
        certified ΔM = 0 empty ones."""
        ran = defaultdict(AccessCounters, self.counters_by_query)
        for record in self.attributions:
            record.charge(ran)
        out = {}
        for name in self.by_query:
            rep = aliases.get(name, name)
            out[name] = ran[name] if name in ran else (
                ran[rep].copy() if rep in ran else AccessCounters()
            )
        return out


@dataclass
class MultiBatchResult(BatchResult):
    """A :class:`~repro.core.engine.BatchResult` over a rulebook.

    ``delta_count`` is the rulebook total and ``match_stats`` the per-query
    dict; ``delta_counts[name]`` is each query's signed ΔM.  Under shared
    trie execution ``match_counters`` price each shared expansion once (that
    is what ``match_ns`` is computed from), while ``match_counters_by_query``
    attribute every charge back to each member query — bit-identical to
    what that query's independent execution would record, computed from
    ``rulebook_stats`` when first read.  ``aliases`` maps deduped query
    names to the isomorphic representative that was actually matched on
    their behalf; ``prefilter.queries_skipped`` counts every rulebook entry
    certified ΔM = 0 this batch, aliases included.
    """

    delta_counts: dict[str, int] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    trie_stats: TrieStats | None = None
    shared: bool = True
    rulebook_stats: RulebookStats = field(default_factory=RulebookStats, repr=False, compare=False)

    @property
    def embeddings_found(self) -> int:
        return sum(s.embeddings_found for s in self.match_stats.values())

    @cached_property
    def match_counters_by_query(self) -> dict[str, AccessCounters]:
        """Per-query counters, in rulebook order (computed once, when read)."""
        return self.rulebook_stats.per_query_counters(self.aliases)


@dataclass
class RulebookDecision:
    """One batch's certified skips for a rulebook: a
    :class:`~repro.core.prefilter.PrefilterDecision` per query that runs its
    own plans (representatives; every query when ``shared=False``), the
    names — aliases included — certified ΔM = 0, and the trie's root groups'
    keep-masks (``masks``, one per group).  Aliases inherit their
    representative's skip: feasibility and root counts are isomorphism
    invariants, so the inheritance is exact."""

    by_query: dict[str, PrefilterDecision]
    skip_queries: frozenset[str]
    skip_batch: bool
    counters: AccessCounters
    masks: list[np.ndarray]

    def to_stats(self, maintenance_ns: float = 0.0) -> PrefilterStats:
        return PrefilterStats(
            batches_skipped=int(self.skip_batch),
            queries_skipped=len(self.skip_queries),
            maintenance_ns=maintenance_ns,
        )


class Rulebook(QuerySet):
    """A set of standing patterns matched with shared per-batch work.

    Queries are lexsorted by name at construction, so trie layout,
    execution order, result-dict order, and sink order are all independent
    of the caller's dict/list insertion order.  ``shared`` picks trie
    execution or the per-query loop.
    """

    def __init__(self, queries: list[QueryGraph], shared: bool = True) -> None:
        require(len(queries) >= 1, "need at least one query")
        names = [q.name for q in queries]
        require(len(set(names)) == len(names), "query names must be unique")
        # deterministic rulebook order: lexsort by query name
        self.queries = sorted(queries, key=lambda q: q.name)
        self.shared = shared
        self.plans = {q.name: compile_delta_plans(q) for q in self.queries}

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
        #: per query in rulebook order, its name and its representative's
        self._named = [(q.name, self.canonical_of[q.name]) for q in self.queries]
        #: the largest member's vertices, the walk budget's query size
        self._largest = max(q.num_vertices for q in self.queries)
        #: alias -> the representative matched on its behalf
        self.aliases = {n: r for n, r in self.canonical_of.items() if n != r}
        #: what the kernel runs and the estimator walks
        self.trie = ExecutionTrie(
            {q.name: self.plans[q.name] for q in self.representatives}
        )

    @property
    def name(self) -> str:
        return f"rulebook[{len(self.queries)}]"

    # -- what the engine asks once ---------------------------------------
    @staticmethod
    def check(config) -> None:
        require(config.placement != "indexed",
                "a rulebook cannot run on placement='indexed': its candidate "
                "index is per query vertex of one query")
        require(not config.adaptive_walks,
                "a rulebook pools one fixed walk budget; adaptive_walks "
                "re-samples a single query")

    def diameter(self) -> int:
        """The largest member's (the ``khop`` placement's radius)."""
        return max(q.diameter() for q in self.queries)

    def compile(self, placement) -> None:
        """Nothing to do: ``plans`` are placement-independent (``indexed``,
        the one placement that compiles its own, is refused)."""

    @property
    def num_plans(self) -> int:
        return sum(len(self.plans[q.name]) for q in self._runners)

    @staticmethod
    def result_type(base: type[BatchResult]) -> type[MultiBatchResult]:
        """The rulebook result on top of a placement's (a fleet's diagnostics)."""
        if base is BatchResult:
            return MultiBatchResult
        # lazy like the engine's own fleet import: that module imports this one
        from repro.multigpu.engine import MultiFleetBatchResult

        return MultiFleetBatchResult

    @property
    def _runners(self) -> list[QueryGraph]:
        """The queries that execute their own plans."""
        return self.representatives if self.shared else self.queries

    @cached_property
    def requirements(self) -> RequirementTable:
        """What the pre-filter decides, built for its first batch: the
        queries running their own plans and the trie's root groups (the
        per-query loop's estimate walks the trie too)."""
        return RequirementTable({q.name: self.plans[q.name] for q in self._runners}, self.trie)

    # -- per batch --------------------------------------------------------
    def evaluate(self, index, batch: UpdateBatch) -> RulebookDecision:
        """Every runner's decision and the trie's root-group masks from one
        :meth:`~repro.core.prefilter.InvariantIndex.decide`, materialized
        here so the match stage never reads the index; only the
        representatives' decisions are charged (the per-query loop's aliases
        ride on them)."""
        by_query, masks = index.decide(self.requirements, batch)
        counters = AccessCounters()
        counters.record_compute(sum([by_query[q.name].counters.compute_ops
                                     for q in self.representatives]))
        skip_queries = frozenset([
            q.name for q in self.queries if by_query[self.canonical_of[q.name]].skip_batch
        ])
        return RulebookDecision(
            by_query, skip_queries, len(skip_queries) == len(self.queries), counters, masks
        )

    @staticmethod
    def _routing(decision: RulebookDecision | None) -> dict:
        """What the trie's root pipeline certifies with: the skip set and the
        root groups' keep-masks."""
        if decision is None:
            return dict(skip=frozenset(), prefilter=None)
        return dict(skip=decision.skip_queries, prefilter=decision.masks)

    def expand(self, engine, batch, decision, sinks=None) -> Expansion | None:
        """The trie's view-free half, run ahead of the estimate (``None`` for
        the per-query loop, which runs each query's own plans)."""
        if not self.shared:
            return None
        return expand(
            self.trie, batch, engine.graph,
            sinks=frozenset(self.canonical_of[name] for name in sinks or ()),
            **self._routing(decision),
        )

    def estimate(
        self, engine: GCSMEngine, batch: UpdateBatch, decision: RulebookDecision | None,
        expansion: Expansion | None = None,
    ) -> EstimationResult:
        """Budget assignment — split exactly across the live root groups —
        plus ONE walk of the merged trie the kernel runs, reading its
        expansion (the shared kernel's, or one run here for the per-query
        loop): unbiased for the merged kernel's accesses, and bit-identical
        between the two execution modes."""
        routing = self._routing(decision)
        if expansion is None:
            expansion = expand(self.trie, batch, engine.graph, **routing)
        skip = routing["skip"]
        max_degree = max(1, engine.graph.max_degree())
        largest = self._largest if not skip else max(
            [q.num_vertices for q in self.queries if q.name not in skip])
        total_walks = engine.config.num_walks or default_num_walks(
            len(batch), max_degree, largest
        )
        groups = expansion.records[0].live
        budget = np.zeros(len(self.trie.levels[0].nodes), dtype=np.int64)
        budget[groups] = split_walk_budget(total_walks, groups.size)
        pooled, nodes, counters = engine.estimator.walk(expansion, budget, max_degree)
        return EstimationResult(*pooled, engine.graph.num_vertices, int(budget.sum()),
                                nodes, counters)

    def match(
        self, engine: GCSMEngine, batch: UpdateBatch, view, decision: RulebookDecision | None,
        sinks: dict | None = None, expansion: Expansion | None = None, *, filters=None,
    ) -> RulebookStats:
        """Settle :meth:`expand`'s run (the per-query loop: match every query
        not certified away); ``view.counters`` receives the work actually
        executed.  Skipped queries and (under the trie) aliases are filled in
        once per batch by :meth:`settle`.  (``filters`` is the ``indexed`` placement's, which
        :meth:`check` refuses.)"""
        if not self.shared:
            return self._match_independent(engine, batch, view, decision, sinks or {})
        return self._match_shared(view, sinks or {}, expansion)

    def _match_independent(self, engine, batch, view, decision, sinks) -> RulebookStats:
        """Baseline: every query runs its own full plan execution.

        Each query's charges land in a private counter (swapped into the
        shared view for the duration of its ``engine.match``) and are then
        merged into the view's — additive, so the totals equal the classic
        single-counter accumulation exactly.
        """
        by_query, counters_by_query = {}, {}
        shared_counters = view.counters
        try:
            for query in self.queries:
                if decision is not None and query.name in decision.skip_queries:
                    continue
                view.counters = AccessCounters()
                by_query[query.name] = engine.match(
                    self.plans[query.name], batch, view,
                    sink=sinks.get(query.name),
                    prefilter=decision.by_query[query.name] if decision else None,
                )
                counters_by_query[query.name] = view.counters
                shared_counters.merge(view.counters)
        finally:
            view.counters = shared_counters
        return RulebookStats.of(by_query, counters_by_query=counters_by_query)

    def _match_shared(self, view, sinks, expansion) -> RulebookStats:
        """The representatives' trie: settle :meth:`expand`'s run; its stats,
        and the per-query counters read from the settled block it keeps, are
        bit-identical to an independent run.
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

        rep_stats, attribution = settle(expansion, view, sinks=rep_sinks)
        return RulebookStats.of(rep_stats, attributions=[attribution])

    def settle(
        self, stats: RulebookStats | None, decision: RulebookDecision | None
    ) -> RulebookStats:
        """Per-query stats in rulebook order, one ``(queries, 5)`` table
        gathered from what ran: a query's own row, else (under the trie, an
        alias) its representative's — ΔM and embedding counts are
        isomorphism invariants — and a certified skip's row is its
        ``roots_total`` dropped, nothing charged.  The totals are the
        table's column sums.  What ran keeps its counters or settled blocks
        for :meth:`RulebookStats.per_query_counters`."""
        ran = stats if stats is not None else RulebookStats()
        skip = decision.skip_queries if decision is not None else frozenset()
        at = dict(zip(ran.by_query, range(len(ran.by_query))))
        live, rows, skipped, roots = [], [], [], []
        for i, (name, rep) in enumerate(self._named):
            if name in skip:
                skipped.append(i)
                roots.append(decision.by_query[rep].roots_total)
            else:
                live.append(i)
                rows.append(at[name] if name in at else at[rep])
        table = np.zeros((len(self._named), _COLUMNS), dtype=np.int64)
        if rows:
            table[live] = stats_table(ran.by_query)[rows]
        table[skipped, _SKIPPED] = roots
        by_query = {name: MatchStats(*row) for (name, _), row in zip(self._named, table.tolist())}
        return RulebookStats.of(by_query, table, counters_by_query=ran.counters_by_query,
                                attributions=ran.attributions)

    def result_fields(self, stats: RulebookStats) -> dict:
        return dict(
            delta_count=stats.signed_count,
            match_stats=stats.by_query,
            delta_counts={n: st.signed_count for n, st in stats.by_query.items()},
            rulebook_stats=stats,
            aliases=self.aliases,
            trie_stats=self.trie.stats if self.shared else None,
            shared=self.shared,
        )


def MultiQueryEngine(
    initial_graph: StaticGraph,
    queries: list[QueryGraph],
    *,
    shared: bool = True,
    **settings,
) -> GCSMEngine:
    """``GCSMEngine(initial_graph, Rulebook(queries, shared), **settings)``
    under the name the repo benchmark constructs rulebook engines by."""
    return GCSMEngine(initial_graph, Rulebook(queries, shared=shared), **settings)
