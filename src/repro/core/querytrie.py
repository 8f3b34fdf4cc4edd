"""The trie of plans the one match driver advances (rulebook-scale matching).

Production CSM evaluates a *rulebook* of standing patterns per batch, and
independent execution repeats the expensive part — frontier expansion —
once per pattern even when patterns overlap heavily.  This module groups
compiled ΔM plans by common prefixes of their **execution signatures**
(a plan's root signature, then one signature per level) into a trie:

* The root layer groups plans by :func:`~repro.query.plan.root_signature`
  (the root-edge label pair), so plans sharing a root iterate one root
  array, routed for every group at once through the trie's
  :class:`RootTable`.
* Each deeper trie node is one :func:`~repro.query.plan.level_signature` —
  a binding step that is *behaviorally identical* across every plan
  passing through the node, expanded **once** for all of them.

The trie is data only.  It is flattened once, at build, into one
:class:`TrieLevel` per depth — the depth's nodes in line order, their one
:class:`~repro.core.frontier.LevelTable`, each line's parent line and DFS
pre-order index — which is what :func:`repro.core.matching.match_trie`, the
level-synchronous driver, launches the frontier kernel over: one
``expand`` per depth for all its nodes.  ``merge=False`` builds the
no-sharing trie (every plan its own root group and chain) that a single
query's ΔM plans run as (:func:`solo_trie`); neither the driver nor the
frequency estimator, which walks the trie its kernel runs
(:meth:`repro.core.frequency.FrequencyEstimator.walk`), tells the two apart.

Exactness contract (validated by ``tests/test_multiquery_shared.py`` and
the adversarial-stream fuzzer):

* **ΔM, MatchStats, and sink order are bit-identical per plan** to
  independent execution, because two plans sharing a prefix produce
  bit-identical frontiers over that prefix (that is what the signatures
  capture), and emissions stay per-plan.
* **Attributed per-query counters are bit-identical**: when they are read,
  every node charge goes to the counters of each member plan's query,
  reproducing exactly what that query's independent ``match_batch`` would
  have recorded.  The *shared* counters — which price the kernel's
  simulated time — receive each node charge once; their gap to the summed
  attributed counters is the modeled saving.

With the aggregate-invariant pre-filter (:mod:`repro.core.prefilter`) the
driver additionally prunes at rulebook granularity: queries certified
ΔM = 0 for this batch are removed from every node's member set, subtrees
whose members are *all* skipped receive no rows (no roots, no
expansion, no charge), and each root group's frontier is masked at **group
granularity** — a root row is dropped only when it fails the dominance test
for *every* surviving member, so dropping it cannot remove an embedding of
any member.  ΔM and sink order stay bit-identical;
``roots_processed``/``roots_skipped`` are attributed per group (every member
of a group records the same skip count), which is coarser than the per-plan
masks independent execution applies.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.frontier import LevelTable, level_table
from repro.gpu.counters import OPS_COLUMN, AccessCounters, Accesses, tabulate
from repro.query.plan import LevelPlan, MatchPlan, level_signature, root_signature
from repro.utils import segment_indices, segment_offsets, unique_inverse

__all__ = [
    "PlanRef", "TrieNode", "TrieLevel", "RootTable", "LevelIncidence", "ExecutionTrie",
    "TrieStats", "solo_trie",
]


@dataclass(frozen=True, eq=False)
class PlanRef:
    """One ΔM plan of one named query (the trie's unit of membership);
    ``index`` is its position in that query's plan list."""

    query_name: str | None
    plan: MatchPlan
    index: int


class TrieNode:
    """One shared binding step (or a root-signature group for depth 0)."""

    __slots__ = ("level", "children", "members", "terminal", "order")

    def __init__(self, level: LevelPlan | None) -> None:
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
        #: DFS pre-order index over the whole trie, set by the flattening
        self.order = -1


@dataclass(frozen=True)
class TrieLevel:
    """All nodes of one trie depth, as the driver launches them: ``nodes``
    in line order (parent line, then insertion — pre-order within the
    depth), their one operand ``table`` (``None`` at depth 0, the root
    groups), each line's ``parent`` line one depth up and its pre-order index
    ``order`` over the whole trie.  ``chain`` says every node one depth up has
    exactly one child here, line for line: handing rows down is the identity.
    Anywhere else the driver and the walk alike fan rows out through the
    live lines' ``parent`` (:meth:`LevelIncidence.fan_out`)."""

    nodes: list[TrieNode]
    table: LevelTable | None
    parent: np.ndarray
    order: np.ndarray
    chain: bool


class RootTable(NamedTuple):
    """The root groups as the one root pass reads them
    (:func:`repro.core.matching.trie_roots`), one row per group in line
    order: the root edge's label ``pair`` (negative: the wildcard), its
    weight predicate's ``bounds`` (``(-inf, inf)`` without one; ``predicated``
    says whether any group has one) and its two root query vertices
    ``query_vertex``, which a candidate filter is keyed by.  A root signature
    holds labels and predicate, so a group's first plan stands for all."""

    pair: np.ndarray
    bounds: np.ndarray
    predicated: bool
    query_vertex: np.ndarray


def root_table(plans: Sequence[MatchPlan]) -> RootTable:
    """The :class:`RootTable` of root groups led by ``plans``, one each."""
    bounds = [plan.root_predicate or (-np.inf, np.inf) for plan in plans]
    return RootTable(
        np.array([plan.root_labels() for plan in plans], dtype=np.int64).reshape(-1, 2),
        np.array(bounds, dtype=np.float64).reshape(-1, 2),
        any(plan.root_predicate is not None for plan in plans),
        np.array([plan.order[:2] for plan in plans], dtype=np.int64).reshape(-1, 2),
    )


class LevelIncidence(NamedTuple):
    """One trie depth under one skip set and one set of sink names, as the
    driver tallies it (:meth:`ExecutionTrie.incidence`): the ``live`` lines
    (some live plan passes through) and their ``parent`` lines (none at
    depth 0), the
    ``(queries, width)`` counts of each live query's plans through
    (``member``) and ending at (``terminal``) each line, whether a line's
    rows are ``wanted`` — by a live child or a sink — and the ``(plan,
    line)`` pairs that have a sink, line-major.  ``fans``: rows reach the
    depth by :meth:`fan_out` — not a chain, or a skipped query left a line
    dead — and by the identity, line for line, everywhere else.
    ``branching``: per line, the live children of its parent line — the
    ``k`` of the walk's branch rule (0 on a dead line and at depth 0)."""

    live: np.ndarray
    parent: np.ndarray
    member: np.ndarray
    terminal: np.ndarray
    wanted: np.ndarray
    sinks: tuple[tuple[PlanRef, int], ...]
    fans: bool
    branching: np.ndarray

    def fan_out(self, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hand line-major rows down, ``held[l]`` of them on line ``l`` one
        depth up: each to every live child of its line, line-major again —
        ``(pick, line)``, every new row's row above and its line here.  The
        one hand-down order of the driver and the walk alike."""
        take = held[self.parent]
        pick = segment_indices(segment_offsets(held)[self.parent], take)
        return pick, self.live.repeat(take)


@dataclass
class TrieStats:
    """Sharing accounting for reporting and benchmarks."""

    num_queries: int = 0
    num_plans: int = 0
    total_levels: int = 0  # sum of plan depths beyond the root edge
    expanded_levels: int = 0  # level nodes of the trie (static, not per batch)
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


#: skip sets whose incidence a trie keeps before starting over
_INCIDENCE_CACHE = 64


class ExecutionTrie:
    """Prefix trie over the execution signatures of a rulebook's plans.

    ``plans_by_query`` must iterate queries in the rulebook's canonical
    (lexsorted-name) order; the trie preserves that order in its insertion-
    ordered children and in ``refs``, which is what makes shared execution
    (and sink order) deterministic across dict-insertion orders of the
    caller.  ``merge=False`` gives every plan a root group of its own, so
    nothing below it is shared either.
    """

    def __init__(
        self, plans_by_query: dict[str | None, list[MatchPlan]], merge: bool = True
    ) -> None:
        self.queries = list(plans_by_query)
        self.refs: list[PlanRef] = []
        roots: dict[object, TrieNode] = {}
        for name, plans in plans_by_query.items():
            for index, plan in enumerate(plans):
                ref = PlanRef(name, plan, index)
                self.refs.append(ref)
                node = roots.setdefault(
                    root_signature(plan) if merge else ref, TrieNode(None)
                )
                node.members.append(ref)
                for lvl in plan.levels:
                    node = node.children.setdefault(level_signature(lvl), TrieNode(lvl))
                    node.members.append(ref)
                node.terminal.append(ref)
        #: every node in DFS pre-order — the driver's settle order
        self.nodes: list[TrieNode] = []
        stack = list(reversed(roots.values()))
        while stack:
            node = stack.pop()
            node.order = len(self.nodes)
            self.nodes.append(node)
            stack.extend(reversed(node.children.values()))
        #: one :class:`TrieLevel` per depth, root groups first
        self.levels: list[TrieLevel] = []
        nodes, parent = list(roots.values()), []
        while nodes:
            above = len(self.levels[-1].nodes) if self.levels else 0
            self.levels.append(TrieLevel(
                nodes,
                level_table(tuple(n.level for n in nodes)) if self.levels else None,
                np.array(parent, dtype=np.int64),
                np.array([n.order for n in nodes], dtype=np.int64),
                chain=bool(self.levels) and parent == list(range(above)),
            ))
            parent = [line for line, n in enumerate(nodes) for _ in n.children]
            nodes = [c for n in nodes for c in n.children.values()]
        #: the root groups, static: what the root pass reads of them
        self.root_table = root_table([node.members[0].plan for node in roots.values()])
        self._incidence: dict[tuple[frozenset, frozenset], tuple] = {}
        self.stats = TrieStats(
            num_queries=len(plans_by_query),
            num_plans=len(self.refs),
            total_levels=sum(len(ref.plan.levels) for ref in self.refs),
            expanded_levels=len(self.nodes) - len(roots),
            root_groups=len(roots),
        )

    def incidence(
        self, skip: frozenset = frozenset(), sinks: frozenset = frozenset()
    ) -> tuple[tuple, np.ndarray, tuple[LevelIncidence, ...]]:
        """Who pays for a node: the live queries (those not in ``skip`` —
        certified ΔM = 0 this batch, so members of nothing) and the
        ``(queries, nodes)`` count of each one's plans through each node.  A
        query contributing two identically shaped plans to a node counts
        twice, exactly as its independent execution is charged.  Third, per
        depth, everything the driver's tallies and fan-out read off the
        nodes (:class:`LevelIncidence`; ``sinks`` names the queries whose
        embeddings are materialised).  Built once per ``(skip, sinks)``."""
        found = self._incidence.get((skip, sinks))
        if found is None:
            if len(self._incidence) >= _INCIDENCE_CACHE:
                self._incidence.clear()
            queries = tuple(q for q in self.queries if q not in skip)
            index = {q: i for i, q in enumerate(queries)}
            member, terminal = np.zeros((2, len(queries), len(self.nodes)), dtype=np.int64)
            for node in self.nodes:
                for count, refs in ((member, node.members), (terminal, node.terminal)):
                    for ref in refs:
                        if ref.query_name in index:
                            count[index[ref.query_name], node.order] += 1
            through = member.any(axis=0)
            levels = []
            for depth, level in enumerate(self.levels):
                live = np.flatnonzero(through[level.order])
                sunk = tuple(
                    (ref, line) for line in live.tolist() for ref in level.nodes[line].terminal
                    if ref.query_name in index and ref.query_name in sinks
                )
                wanted = np.zeros(len(level.nodes), dtype=bool)
                wanted[[line for _, line in sunk]] = True
                if depth + 1 < len(self.levels):
                    below = self.levels[depth + 1]
                    wanted[below.parent[through[below.order]]] = True
                parent = level.parent[live] if depth else level.parent
                branching = np.zeros(len(level.nodes), dtype=np.int64)
                branching[live] = np.bincount(parent)[parent] if depth else 0
                levels.append(LevelIncidence(
                    live, parent, member[:, level.order], terminal[:, level.order], wanted,
                    sunk, depth > 0 and (not level.chain or live.size < len(level.nodes)),
                    branching,
                ))
            found = self._incidence[skip, sinks] = (queries, member, tuple(levels))
        return found

    def attribute(
        self, queries: tuple, member: np.ndarray, node: np.ndarray, vertex: np.ndarray,
        acc: Accesses, work: np.ndarray, counters: dict[str | None, AccessCounters],
    ) -> None:
        """Charge one settled block — access ``i`` read ``vertex[i]``'s list
        on behalf of trie node ``node[i]`` — and the nodes' order-free
        ``work`` to ``counters[query]`` with the multiplicity of the batch's
        :meth:`incidence` (its ``queries`` and ``member``, as the driver
        holds them): the totals are one product with it, the two histograms
        one weighted ``bincount`` each over ``(query, vertex)`` cells — no
        loop over nodes or ``(node, member)`` pairs."""
        table = tabulate(acc, node, len(self.nodes))
        table[:, OPS_COLUMN] += work
        totals = member @ table
        times = member[:, node]  # (query, access): plans of the query the access is charged to
        # cells over the vertices the block touched, not the graph's: the
        # work follows the log's size
        touched, slot = unique_inverse(vertex)
        cell = (np.arange(len(queries))[:, None] * touched.size + slot).ravel()
        # float64 bincount weights are exact: one batch's sums are far below 2**53
        hist = np.stack([
            np.bincount(cell, weights.ravel(), len(queries) * touched.size)
            for weights in (times, times * acc.nbytes)
        ]).astype(np.int64).reshape(2, len(queries), touched.size)
        for i, name in enumerate(queries):
            counters[name].accumulate(totals[i], hist[:, i], touched)


#: the tries :func:`solo_trie` has built (at most ``_INCIDENCE_CACHE``, then it
#: starts over), keyed by the identities of their plans: a trie holds its
#: plans, so a key cannot be recycled while it stands
_SOLO: dict[tuple[int, ...], ExecutionTrie] = {}


def solo_trie(plans: Sequence[MatchPlan]) -> ExecutionTrie:
    """``plans`` as the trie that shares nothing: one root group and one
    chain per plan, all members of the one (unnamed) query.

    Built once per plan list — a query set asks at ``compile`` — and found
    again by the plan objects' identity, so the per-batch callers that are
    handed ``plans`` (``match_batch``, ``FrequencyEstimator.estimate``) reach
    it without hashing a frozen :class:`MatchPlan`."""
    key = tuple(map(id, plans))
    trie = _SOLO.get(key)
    if trie is None:
        if len(_SOLO) >= _INCIDENCE_CACHE:
            _SOLO.clear()
        trie = _SOLO[key] = ExecutionTrie({None: list(plans)}, merge=False)
    return trie
