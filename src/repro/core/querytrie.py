"""Shared multi-query execution trie (rulebook-scale matching).

Production CSM evaluates a *rulebook* of standing patterns per batch, and
independent execution repeats the expensive part — frontier expansion —
once per pattern even when patterns overlap heavily.  This module groups
the rulebook's compiled ΔM plans by common prefixes of their **execution
signatures** (:func:`repro.query.plan.plan_signature`) into a trie:

* The root layer groups plans by :func:`~repro.query.plan.root_signature`
  (the root-edge label pair), so plans sharing a root iterate one
  ``delta_roots`` array.
* Each deeper trie node is one :func:`~repro.query.plan.level_signature` —
  a binding step that is *behaviorally identical* across every plan
  passing through the node.  The shared executor expands the node's
  frontier **once** (one gather, one sorted-set intersection pass, one
  ``record_access_block`` charge into the shared counters) and every
  member plan consumes the result.

Exactness contract (validated by ``tests/test_multiquery_shared.py`` and
the adversarial-stream fuzzer):

* **ΔM, MatchStats, and sink order are bit-identical per plan** to
  independent execution, because two plans sharing a prefix produce
  bit-identical frontiers over that prefix (that is what the signatures
  capture), and emissions stay per-plan.
* **Attributed per-query counters are bit-identical**: every node charge
  is additionally replayed into the counters of each member plan's query,
  reproducing exactly what that query's independent ``match_batch`` would
  have recorded.  The *shared* counters — which price the kernel's
  simulated time — receive each node charge once; their gap to the summed
  attributed counters is the modeled saving.

With the aggregate-invariant pre-filter (:mod:`repro.core.prefilter`) the
executor additionally prunes at rulebook granularity: queries in
``skip_queries`` (certified ΔM = 0 for this batch) are removed from every
node's member set, subtrees whose members are *all* skipped are never
descended (no ``delta_roots``, no expansion, no charge), and each root
group's frontier is masked at **group granularity** — a root row is dropped
only when it fails the dominance test for *every* surviving member, so
dropping it cannot remove an embedding of any member.  ΔM and sink order
stay bit-identical; ``roots_processed``/``roots_skipped`` are attributed
per group (every member of a group records the same skip count), which is
coarser than the per-plan masks independent execution applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.core.frontier import FrontierKernel
from repro.core.matching import MatchStats, batch_roots
from repro.gpu.counters import AccessCounters
from repro.query.plan import LevelPlan, MatchPlan, level_signature, root_signature

__all__ = [
    "PlanRef",
    "TrieNode",
    "ExecutionTrie",
    "TrieStats",
    "SharedTrieExecutor",
]


@dataclass(frozen=True)
class PlanRef:
    """One ΔM plan of one named query (the trie's unit of membership)."""

    query_name: str
    plan: MatchPlan


class TrieNode:
    """One shared binding step (or a root-signature group for depth 0)."""

    __slots__ = ("key", "level", "children", "members", "terminal")

    def __init__(self, key: tuple, level: LevelPlan | None) -> None:
        self.key = key
        self.level = level
        #: insertion-ordered — construction iterates queries in lexsorted
        #: name order and plans in delta order, so execution order (and
        #: therefore buffered sink order) is deterministic
        self.children: dict[tuple, TrieNode] = {}
        #: every plan whose path passes through this node (one entry per
        #: plan, so a query contributing two identically-shaped plans is
        #: attributed twice — exactly as independent execution charges it)
        self.members: list[PlanRef] = []
        #: plans whose final level is this node (depth-2 plans terminate at
        #: the root-signature node itself)
        self.terminal: list[PlanRef] = []


@dataclass
class TrieStats:
    """Sharing accounting for reporting and benchmarks."""

    num_queries: int = 0
    num_plans: int = 0
    total_levels: int = 0  # sum of plan depths beyond the root edge
    expanded_levels: int = 0  # trie nodes actually expanded
    root_groups: int = 0  # distinct root signatures

    @property
    def shared_levels(self) -> int:
        """Level expansions independent execution would pay that the trie
        does not."""
        return self.total_levels - self.expanded_levels

    @property
    def sharing_ratio(self) -> float:
        """Fraction of level expansions eliminated by prefix sharing."""
        return self.shared_levels / self.total_levels if self.total_levels else 0.0

    def to_dict(self) -> dict:
        return {
            "num_queries": self.num_queries,
            "num_plans": self.num_plans,
            "total_levels": self.total_levels,
            "expanded_levels": self.expanded_levels,
            "root_groups": self.root_groups,
            "shared_levels": self.shared_levels,
            "sharing_ratio": self.sharing_ratio,
        }


class ExecutionTrie:
    """Prefix trie over the execution signatures of a rulebook's plans.

    ``plans_by_query`` must iterate queries in the rulebook's canonical
    (lexsorted-name) order; the trie preserves that order in its insertion-
    ordered children, which is what makes shared execution deterministic
    across dict-insertion orders of the caller.
    """

    def __init__(self, plans_by_query: dict[str, list[MatchPlan]]) -> None:
        self.roots: dict[tuple, TrieNode] = {}
        num_plans = 0
        total_levels = 0
        for name, plans in plans_by_query.items():
            for plan in plans:
                ref = PlanRef(name, plan)
                num_plans += 1
                total_levels += len(plan.levels)
                rsig = root_signature(plan)
                node = self.roots.get(rsig)
                if node is None:
                    node = self.roots[rsig] = TrieNode(rsig, None)
                node.members.append(ref)
                for lvl in plan.levels:
                    key = level_signature(lvl)
                    child = node.children.get(key)
                    if child is None:
                        child = node.children[key] = TrieNode(key, lvl)
                    child.members.append(ref)
                    node = child
                node.terminal.append(ref)
        self.stats = TrieStats(
            num_queries=len(plans_by_query),
            num_plans=num_plans,
            total_levels=total_levels,
            expanded_levels=self._count_level_nodes(),
            root_groups=len(self.roots),
        )

    def _count_level_nodes(self) -> int:
        count = 0
        stack = [c for root in self.roots.values() for c in root.children.values()]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


class SharedTrieExecutor:
    """Execute a rulebook's trie with one shared frontier per path.

    ``shared_counters`` receives every expansion charge exactly once (the
    kernel's actual modeled traffic); ``per_query_counters`` — when
    provided — receives each node's charges once per member plan, which
    reconstructs bit-identically what each query's independent execution
    would record.  Emissions (output charges, stats, sink tuples) are
    always per-plan.

    Sink tuples are buffered per ``(query, delta_index)`` and flushed in
    plan order after the walk, so each query's sink observes exactly the
    emission order of its own independent ``match_batch``.

    ``skip_queries`` names queries certified ΔM = 0 for this batch (the
    pre-filter's rulebook-level skip): they are excluded from every member
    set, and nodes left with no members are pruned without expansion.
    ``prefilter`` optionally maps every live query's name to its
    :class:`~repro.core.prefilter.PrefilterDecision`; when present, each
    root group's frontier is masked by the OR of its surviving members'
    per-plan masks before descent (certified, so exactness is unaffected).
    ``root_mask`` (a fleet shard keeps the roots it owns) and the kernel's
    ``attributes`` go through :func:`repro.core.matching.batch_roots`, so a
    group's roots are routed, masked and predicate-filtered exactly as a
    single query's.
    """

    def __init__(
        self,
        trie: ExecutionTrie,
        kernel: FrontierKernel,
        *,
        shared_counters: AccessCounters,
        per_query_counters: dict[str, AccessCounters] | None = None,
        sinks: dict[str, object] | None = None,
        skip_queries: frozenset[str] = frozenset(),
        prefilter: dict[str, object] | None = None,
        root_mask=None,
    ) -> None:
        self.trie = trie
        self.kernel = kernel
        self.shared_counters = shared_counters
        self.per_query_counters = per_query_counters
        self.sinks = sinks or {}
        self.skip_queries = skip_queries
        self.prefilter = prefilter
        self.root_mask = root_mask
        self.stats: dict[str, MatchStats] = {
            ref.query_name: MatchStats()
            for root in trie.roots.values()
            for ref in self._live(root.members)
        }
        self._buffers: dict[tuple[str, int], list] = {}

    # ------------------------------------------------------------------
    def _live(self, refs: list[PlanRef]) -> list[PlanRef]:
        if not self.skip_queries:
            return refs
        return [r for r in refs if r.query_name not in self.skip_queries]

    def _group_masker(self, live: list[PlanRef]):
        """The group-level certified mask, as a ``batch_roots`` masker: keep
        a root iff at least one surviving member's dominance test passes (a
        row failing for every member provably yields no embedding for any)."""
        if self.prefilter is None:
            return None

        def mask(_index, _plan, roots):
            keep = np.zeros(roots.shape[0], dtype=bool)
            for ref in live:
                keep |= self.prefilter[ref.query_name].mask(
                    ref.plan.delta_index or 0, ref.plan, roots
                )
            return keep

        return SimpleNamespace(mask=mask)

    def run(self, batch) -> dict[str, MatchStats]:
        for node in self.trie.roots.values():
            live = self._live(node.members)
            if not live:
                # every member is certified ΔM = 0 for this batch — the
                # whole subtree is skipped, delta_roots included
                continue
            # one root pipeline for the whole group, the matcher's own: the
            # root signature includes labels and predicate, so every member
            # shares them; routing / masking / predicate order is batch_roots'
            group = MatchStats()
            ((_, roots, signs),) = batch_roots(
                [live[0].plan], batch, self.kernel.labels, group,
                root_mask=self.root_mask, prefilter=self._group_masker(live),
                attributes=self.kernel.attributes,
            )
            dropped = group.roots_skipped
            n = int(roots.shape[0])
            for ref in live:
                st = self.stats[ref.query_name]
                st.roots_processed += n
                st.roots_skipped += dropped
                st.tree_nodes += n
            for ref in self._live(node.terminal):  # depth-2: root edge is all
                self._emit_root(ref, roots, signs)
            if n and node.children:
                self._descend(
                    node,
                    roots.astype(np.int64, copy=False),
                    signs.astype(np.int64, copy=False),
                )
        self._flush_sinks()
        return self.stats

    # ------------------------------------------------------------------
    def _charge(self, refs: list[PlanRef], counters: AccessCounters) -> None:
        """One shared charge, attributed once per member plan."""
        self.shared_counters.merge(counters)
        if self.per_query_counters is not None:
            for ref in refs:
                self.per_query_counters[ref.query_name].merge(counters)

    def _descend(self, node: TrieNode, rows: np.ndarray, sign: np.ndarray) -> None:
        view = self.kernel.view
        for child in node.children.values():
            live = self._live(child.members)
            if not live:
                continue  # all members certified ΔM = 0: prune the subtree
            node_counters = AccessCounters()
            saved = view.counters
            view.counters = node_counters
            try:
                cand_flat, cand_cnt = self.kernel.level_candidates(child.level, rows)
            finally:
                view.counters = saved
            self._charge(live, node_counters)
            total = int(cand_cnt.sum())
            for ref in live:
                self.stats[ref.query_name].tree_nodes += total
            for ref in self._live(child.terminal):
                self._emit(ref, rows, sign, cand_flat, cand_cnt, total)
            if total and child.children:
                next_rows = np.concatenate(
                    [np.repeat(rows, cand_cnt, axis=0), cand_flat[:, None]], axis=1
                )
                self._descend(child, next_rows, np.repeat(sign, cand_cnt))

    # ------------------------------------------------------------------
    def _output_charges(self, ref: PlanRef, total: int) -> None:
        depth = ref.plan.depth
        self.shared_counters.record_output(total)
        self.shared_counters.record_compute(total * depth)
        if self.per_query_counters is not None:
            pq = self.per_query_counters[ref.query_name]
            pq.record_output(total)
            pq.record_compute(total * depth)

    def _emit_root(self, ref: PlanRef, roots: np.ndarray, signs: np.ndarray) -> None:
        n = int(roots.shape[0])
        st = self.stats[ref.query_name]
        st.signed_count += int(signs.sum())
        st.embeddings_found += n
        self._output_charges(ref, n)
        if ref.query_name in self.sinks and n:
            emb = roots[:, ref.plan.inverse_order]
            self._buffer(ref, emb, signs.astype(np.int64, copy=False))

    def _emit(
        self,
        ref: PlanRef,
        rows: np.ndarray,
        sign: np.ndarray,
        cand_flat: np.ndarray,
        cand_cnt: np.ndarray,
        total: int,
    ) -> None:
        st = self.stats[ref.query_name]
        st.signed_count += int((sign * cand_cnt).sum())
        st.embeddings_found += total
        self._output_charges(ref, total)
        if ref.query_name in self.sinks and total:
            full = np.concatenate(
                [np.repeat(rows, cand_cnt, axis=0), cand_flat[:, None]], axis=1
            )[:, ref.plan.inverse_order]
            self._buffer(ref, full, np.repeat(sign, cand_cnt))

    def _buffer(self, ref: PlanRef, emb: np.ndarray, signs: np.ndarray) -> None:
        key = (ref.query_name, ref.plan.delta_index or 0)
        self._buffers.setdefault(key, []).append((emb, signs))

    def _flush_sinks(self) -> None:
        """Deliver buffered emissions per query in plan (ΔM index) order."""
        for (name, _), chunks in sorted(
            self._buffers.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            sink = self.sinks[name]
            for emb, signs in chunks:
                for e, s in zip(emb.tolist(), signs.tolist()):
                    sink(tuple(e), int(s))

