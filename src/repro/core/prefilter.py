"""Aggregate-invariant pre-filter index: certify ΔM = 0 before the kernel runs.

Per "Can Aggregate Invariants Accelerate Continuous Subgraph Matching?"
(arXiv:2606.24421, see PAPERS.md), cheap incrementally-maintained aggregate
invariants can *prove* that a batch or a candidate root vertex cannot
produce any match for query Q — before estimation, packing, or the matching
kernel spend a single access.  GCSM's frequency estimate (the source paper's
Sec. IV) is the expensive probabilistic version of the same question; this
module is the certified O(|ΔE|) version.

Invariants maintained (all under :meth:`InvariantIndex.apply_batch`, driven
by the *effective* (netted) batch so phantom deletes and same-batch
churn can never desynchronize the index from the store):

* **global vertex-label histogram** ``label_counts[ℓ]`` — vertices per label
  (labels are immutable and vertices are never removed, so this only grows
  with new-vertex bursts);
* **global edge label-pair histogram** ``pair_counts[ℓ₁ ≤ ℓ₂]`` — edges per
  unordered endpoint-label pair;
* **per-vertex degree-by-label vectors** ``deg_label[v, ℓ]`` — distinct
  neighbors of ``v`` carrying label ``ℓ`` (plus the total ``deg_total[v]``).

The index stores the **post-batch** state (so a from-scratch rebuild on the
settled store reproduces it exactly — the consistency contract tested under
delete-heavy/churn streams), plus a per-open-batch *delete overlay*.  The
overlay matters for exactness: a ΔM_i embedding may mix OLD edges (j < i)
and NEW edges (j > i), so every invariant used for pruning must bound the
**union** adjacency ``N ∪ N'``.  For any vertex, ``union = post-batch +
edges deleted this batch``, which is what the overlay adds back.

Skip levels (all *certified*: a skipped unit provably contributes zero
embeddings to every ΔM_i term, so ΔM, signed counts, and sink order are
bit-identical to ``prefilter="off"``):

(a) **batch-level** — no directed root survives label + dominance filtering
    for any plan, or the query is globally infeasible (its label/pair
    histogram is not dominated by the graph's union histogram): the engine
    skips estimation, packing, and matching for this batch entirely.
(b) **root-level** — a directed root ``(r₀, r₁)`` is masked when the
    invariant vector of either endpoint cannot dominate the query's
    requirement vector at the corresponding root query vertex.  Applied
    before estimation too, so walks and DCSR packing shrink.
(c) **rulebook-level** — in shared trie execution, queries certified
    ΔM = 0 are removed from every trie node's member set for the batch;
    subtrees whose members are all skipped are never descended, and root
    frontiers are masked at group granularity (a root is dropped when it
    fails dominance for *every* member sharing the prefix).

A batch is decided by one array program (:meth:`InvariantIndex.decide`),
however many queries and plans are decided together: both endpoint labels
are gathered once, one dominance table ``dom[r, v]`` is built over the
deduplicated requirement rows of every plan's two root query vertices and
the batch's endpoints (the delete overlay added once), and each plan's root
mask is two lookups into it.

The dominance test is a necessary condition for embedding existence: an
embedding maps root query vertex ``u`` to data vertex ``v`` injectively, so
``v`` must have at least ``adj_need[u][ℓ]`` distinct neighbors of each
required label ``ℓ`` and total union degree ≥ ``deg_Q(u)``.  Skipping
therefore never removes real work — it removes *provably dead* work.  Work
counters (``roots_processed``, ``tree_nodes``, access bytes) legitimately
shrink under the prefilter — that shrinkage *is* the measured saving — while
``MatchStats.roots_skipped`` keeps the audit identity
``roots_processed(on) + roots_skipped(on) == roots_processed(off)``.

Maintenance is charged to the CPU resource class of the cost model
(``TimeBreakdown.prefilter_ns``, overlapped on the host lane by the
pipelined engine); see ``docs/prefilter.md`` for the full exactness
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters, Channel
from repro.query.pattern import WILDCARD_LABEL, QueryGraph
from repro.query.plan import MatchPlan
from repro.utils import sorted_unique

__all__ = [
    "PREFILTERS",
    "DEFAULT_PREFILTER",
    "normalize_prefilter",
    "QueryRequirement",
    "InvariantIndex",
    "PrefilterDecision",
    "PrefilterStats",
]

#: recognized ``prefilter=`` values for the engines and the CLI
PREFILTERS = ("off", "invariant")
#: engines default to no pre-filtering (bit-compatible with pre-PR-8 runs)
DEFAULT_PREFILTER = "off"
#: cost-model size of one histogram/counter entry touched by maintenance
_BYTES_PER_ENTRY = 8
#: the count a feasibility lookup reads for a label the index lacks
_ZERO = np.zeros(1, dtype=np.int64)


def normalize_prefilter(name: object) -> str:
    """Map user-facing spellings to a canonical ``PREFILTERS`` entry.

    ``None``/``"off"``/``False`` mean disabled; ``"invariant"``/``"on"``/
    ``True`` select the invariant index (the CLI exposes ``on|off``).
    """
    if name in (None, False, "off"):
        return "off"
    if name in (True, "on", "invariant"):
        return "invariant"
    raise ValueError(f"unknown prefilter {name!r}; expected one of {PREFILTERS} (or 'on')")


# ----------------------------------------------------------------------
# skip accounting
# ----------------------------------------------------------------------
@dataclass
class PrefilterStats:
    """Skip counts and maintenance cost for one batch (or a stream sum).

    ``roots_skipped`` counts *directed* roots removed before the kernel
    (summed over plans, matching :class:`~repro.core.matching.MatchStats`
    root accounting); ``queries_skipped`` counts rulebook queries certified
    ΔM = 0 for the batch (aliases included).  ``maintenance_ns`` is the
    simulated CPU cost of index updates plus the skip decision itself.
    """

    enabled: bool = True
    batches_skipped: int = 0
    roots_skipped: int = 0
    queries_skipped: int = 0
    maintenance_ns: float = 0.0


# ----------------------------------------------------------------------
# query requirement vectors
# ----------------------------------------------------------------------
class QueryRequirement:
    """The dominance requirement a data vertex must meet per query vertex.

    Precomputed once per query: per-vertex neighbor-label count vectors
    (wildcard-labeled neighbors contribute only to the total-degree bound),
    total degree bounds, and the query's own global label/pair histograms
    for batch-level feasibility.
    """

    def __init__(self, query: QueryGraph) -> None:
        labels = [query.label(u) for u in range(query.num_vertices)]
        self.vertex_need: dict[int, int] = {}
        for lab in labels:
            if lab != WILDCARD_LABEL:
                self.vertex_need[lab] = self.vertex_need.get(lab, 0) + 1
        self.num_edges = query.num_edges
        self.pair_need: dict[tuple[int, int], int] = {}
        for u, w in query.edges:
            lu, lw = labels[u], labels[w]
            if lu != WILDCARD_LABEL and lw != WILDCARD_LABEL:
                key = (min(lu, lw), max(lu, lw))
                self.pair_need[key] = self.pair_need.get(key, 0) + 1
        self.adj_need: list[dict[int, int]] = []
        self.deg_need: list[int] = []
        for u in range(query.num_vertices):
            need: dict[int, int] = {}
            for w in query.neighbors(u):
                lw = labels[w]
                if lw != WILDCARD_LABEL:
                    need[lw] = need.get(lw, 0) + 1
            self.adj_need.append(need)
            self.deg_need.append(query.degree(u))


class RequirementTable:
    """Everything a decision needs of the queries decided together, stacked
    once: per plan (query-major, each query's plans in order) its ``query``,
    root label ``pair`` and the requirement ``row`` of each root query
    vertex; the deduplicated rows as a degree bound ``deg`` and a count
    matrix ``need`` over the required neighbor ``labels``; the queries'
    label and label-pair histograms as ``(query, label(s), count)`` entries
    and their edge counts; and, given the trie they run in, each root
    group's plans — ``group_rows`` from ``group_starts`` on, group by group.
    Built once by whoever owns the plans (a rulebook for its first batch,
    an index for the plan list it is handed) and passed to every decision."""

    def __init__(self, plans_by_query: dict, trie=None) -> None:
        self.names = list(plans_by_query)
        self.grouped = trie is not None
        rows: dict[tuple, int] = {}
        query, pair, row, starts = [], [], [], [0]
        vertex, pairs, edges = [], [], []
        for q, plans in enumerate(plans_by_query.values()):
            starts.append(starts[-1] + len(plans))
            req = QueryRequirement(plans[0].query)
            edges.append(req.num_edges)
            vertex += [(q, lab, cnt) for lab, cnt in req.vertex_need.items()]
            pairs += [(q, lo, hi, cnt) for (lo, hi), cnt in req.pair_need.items()]
            for plan in plans:
                query.append(q)
                pair.append(plan.root_labels())
                row.append([
                    rows.setdefault((req.deg_need[u], tuple(sorted(req.adj_need[u].items()))),
                                    len(rows))
                    for u in plan.order[:2]
                ])
        self.query = np.array(query, dtype=np.int64)
        self.pair = np.array(pair, dtype=np.int64).reshape(-1, 2)
        self.row = np.array(row, dtype=np.int64).reshape(-1, 2)
        self.starts = np.array(starts, dtype=np.int64)
        self.num_plans = np.diff(self.starts)
        self.labels = np.array(sorted({lab for _, need in rows for lab, _ in need}),
                               dtype=np.int64)
        self.deg = np.array([deg for deg, _ in rows], dtype=np.int64)
        self.need = np.zeros((len(rows), self.labels.size), dtype=np.int64)
        for r, (_, need) in enumerate(rows):
            for lab, cnt in need:
                self.need[r, np.searchsorted(self.labels, lab)] = cnt
        self.vertex_need = np.array(vertex, dtype=np.int64).reshape(-1, 3)
        self.pair_need = np.array(pairs, dtype=np.int64).reshape(-1, 4)
        self.num_edges = np.array(edges, dtype=np.int64)
        self.wild = self.pair < 0
        self.firsts = self.starts[:-1]
        #: the histogram entries' queries and counts, vertex labels then pairs
        self.hist_query = np.concatenate([self.vertex_need[:, 0], self.pair_need[:, 0]])
        self.hist_need = np.concatenate([self.vertex_need[:, -1], self.pair_need[:, -1]])
        self._lookups: dict[int, tuple] = {}
        if self.grouped:
            first = dict(zip(self.names, starts))
            groups = [[first[ref.query_name] + ref.index for ref in node.members]
                      for node in trie.levels[0].nodes]
            self.group_rows = np.array([r for group in groups for r in group], dtype=np.int64)
            self.group_starts = np.cumsum([0] + [len(group) for group in groups[:-1]])

    def lookups(self, num_labels: int) -> tuple:
        """The index positions of the table's labels when the index holds
        ``num_labels`` labels, built once per count: ``(col, have, at)`` —
        each required neighbour label's ``deg_label`` column (clamped),
        whether the index has it, and each histogram
        entry's position in the index's labels, then label pairs
        (``lo · L + hi``), then one zero (a label the index lacks)."""
        if num_labels not in self._lookups:
            L = num_labels
            _, lab, _ = self.vertex_need.T
            _, lo, hi, _ = self.pair_need.T
            spill = L + L * L
            at = np.concatenate([np.where(lab < L, lab, spill),
                                 np.where(hi < L, L + lo * L + hi, spill)])
            self._lookups[L] = (np.minimum(self.labels, L - 1)[:, None],
                                (self.labels < L)[:, None], at)
        return self._lookups[num_labels]


def dominance(
    total: np.ndarray, counts: np.ndarray, deg: np.ndarray, need: np.ndarray
) -> np.ndarray:
    """``dom[r, v]``: can vertex ``v`` — union degree ``total[v]``, union
    neighbor counts ``counts[:, v]`` of the table's labels — host a query
    vertex with requirement row ``r``?  A necessary condition: the degree
    bound and every per-label count (injectivity makes counts, not just
    presence, the requirement — a simple graph's ``deg_label`` counts are
    distinct neighbors, so the comparison is sound).  Vertices run along
    the last axis, so every comparison is a long contiguous loop."""
    return (total >= deg[:, None]) & np.logical_and.reduce(counts >= need[:, :, None], axis=1)


def reverse(rows: np.ndarray, b: int) -> np.ndarray:
    """Per directed update (the last axis), its reverse's entry: of ``2b``
    directed updates, update ``i``'s reverse is ``b`` rows away."""
    return np.concatenate([rows[..., b:], rows[..., :b]], axis=-1)


def or_by_group(keep: np.ndarray, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per root group, the OR of its member plans' keep rows: a root failing
    for every member provably yields no embedding for any.  A query certified
    ΔM = 0 keeps no root, so the OR over all members is the OR over the live
    ones."""
    return np.logical_or.reduceat(keep[rows], starts, axis=0)


# ----------------------------------------------------------------------
# per-batch decision
# ----------------------------------------------------------------------
@dataclass(eq=False)
class PrefilterDecision:
    """Outcome of one batch-level evaluation for one query's ΔM plans.

    ``keep`` / ``match`` are ``(plans, 2b)`` over the batch's directed
    updates (:meth:`~repro.graphs.stream.UpdateBatch.directed_updates`): the
    updates carrying each plan's root labels, and those of them certified
    live.  ``masks`` are per-plan boolean arrays over the plan's label-matched
    directed updates, in their order (what the root pass scatters them
    into, :func:`repro.core.matching.trie_roots`) —
    an engine computes the decision in its host stages and hands it to
    ``match_batch(prefilter=...)``, so the match stage never reads the live
    index.  ``estimate_batch`` keeps only the updates with at least one
    surviving orientation (``keep_edge``), shrinking walks and packing; it
    is charged with the decision and built when first read.
    """

    skip_batch: bool
    reason: str  # "" | "no-roots" | "infeasible"
    roots_total: int
    roots_passing: int
    counters: AccessCounters
    batch: UpdateBatch
    keep: np.ndarray
    match: np.ndarray
    keep_edge: np.ndarray

    @cached_property
    def masks(self) -> list[np.ndarray]:
        return [keep[match] for keep, match in zip(self.keep, self.match)]

    @cached_property
    def estimate_batch(self) -> UpdateBatch | None:
        if self.skip_batch:
            return None
        if self.keep_edge.all():
            return self.batch
        return self.batch.subset(self.keep_edge)

    def to_stats(self, maintenance_ns: float = 0.0) -> PrefilterStats:
        skipped = self.roots_total - (0 if self.skip_batch else self.roots_passing)
        return PrefilterStats(
            enabled=True,
            batches_skipped=int(self.skip_batch),
            roots_skipped=int(skipped),
            maintenance_ns=maintenance_ns,
        )


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------
class InvariantIndex:
    """Incrementally-maintained aggregate invariants over a dynamic store.

    Construction performs a full build from the store's current (settled)
    adjacency; :meth:`apply_batch` then maintains every invariant from the
    effective batch in O(|ΔE|) vectorized work, and :meth:`close_batch`
    drops the delete overlay once the store reorganizes.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        #: the plan list :meth:`evaluate` was last handed and its table
        self._solo: tuple[list[MatchPlan], RequirementTable] | None = None
        self.rebuild()

    # -- construction / consistency ------------------------------------
    def rebuild(self) -> None:
        """Full from-scratch build (also the test oracle for maintenance),
        counted from the store's post-batch lists block by block (``read_blocks``):
        one ``bincount`` of ``v · L + label(w)`` is a block's rows of ``deg_label``,
        one of ``label(v) · L + label(w)`` adds its directed label pairs, whose
        upper triangle, diagonal halved (both ends count), is ``pair_counts``."""
        g = self.graph
        n = g.num_vertices
        labels = np.asarray(g.labels[:n], dtype=np.int64)
        L = int(labels.max()) + 1 if n else 1
        self.num_labels = L
        self.label_counts = np.bincount(labels, minlength=L).astype(np.int64)
        self.deg_label = np.zeros((n, L), dtype=np.int64)
        directed = np.zeros(L * L, dtype=np.int64)
        for vertices, block, lengths in g.read_blocks(False):
            lo, to = vertices[0], labels[block]
            rows = np.repeat(vertices - lo, lengths) * L + to
            self.deg_label[lo : lo + vertices.size] = np.bincount(
                rows, minlength=vertices.size * L).reshape(-1, L)
            directed += np.bincount(np.repeat(labels[vertices], lengths) * L + to, minlength=L * L)
        self.deg_total = g.degrees_new().astype(np.int64)
        self.pair_counts = np.triu(directed.reshape(L, L))
        self.pair_counts[np.diag_indices(L)] //= 2
        self.num_edges = g.num_edges
        self._clear_overlay()

    def assert_consistent(self) -> None:
        """Raise if the maintained state differs from a from-scratch rebuild.

        Call on a *settled* store (after ``reorganize``).  This is the
        contract satellite tests exercise under delete-heavy/churn streams
        across every conflict mode.
        """
        fresh = InvariantIndex(self.graph)
        for name in ("label_counts", "deg_label", "deg_total", "pair_counts"):
            a, b = getattr(self, name), getattr(fresh, name)
            if a.shape != b.shape or not np.array_equal(a, b):
                raise AssertionError(f"invariant index desync in {name!r}")
        if self.num_edges != fresh.num_edges:
            raise AssertionError(
                f"invariant index desync in num_edges: {self.num_edges} != {fresh.num_edges}"
            )
        if self._del_vids.size:
            raise AssertionError("delete overlay not cleared on settled store")

    # -- incremental maintenance ---------------------------------------
    def _clear_overlay(self) -> None:
        self._del_vids = np.empty(0, dtype=np.int64)
        self._del_rows = np.empty((0, self.num_labels), dtype=np.int64)
        self._del_total = np.empty(0, dtype=np.int64)
        self._del_pair_counts: np.ndarray | None = None
        self._del_edges = 0

    def _grow(self, n_new: int, L_new: int) -> None:
        """Zero rows for new vertices, zero columns for new labels."""
        n, L = n_new - self.deg_label.shape[0], L_new - self.num_labels
        self.deg_label = np.pad(self.deg_label, ((0, n), (0, L)))
        self.deg_total = np.pad(self.deg_total, (0, n))
        self.pair_counts = np.pad(self.pair_counts, (0, L))
        self.label_counts = np.pad(self.label_counts, (0, L))
        self.num_labels = L_new

    def _scatter(self, edges: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
        """Add ``sign`` per edge to both endpoints' label counts and degrees
        and to its label pair; returns the endpoints' label columns."""
        ends = self.graph.labels[edges]
        np.add.at(self.deg_label, (edges.ravel(), ends[:, ::-1].ravel()), sign)
        np.add.at(self.deg_total, edges.ravel(), sign)
        l0, l1 = ends.T
        np.add.at(self.pair_counts, (np.minimum(l0, l1), np.maximum(l0, l1)), sign)
        return l0, l1

    def apply_batch(self, batch: UpdateBatch) -> AccessCounters:
        """Maintain every invariant from the *effective* batch.

        Must be called right after ``DynamicGraph.apply_batch`` with the
        batch it returned (the exact symmetric difference), while the batch
        is still open.  Builds the delete overlay for union-bound dominance
        and returns the maintenance :class:`AccessCounters` (CPU platform).
        """
        g = self.graph
        c = AccessCounters()
        self._clear_overlay()
        n = g.num_vertices
        n_old = self.deg_label.shape[0]
        if n > n_old:
            new_labels = np.asarray(g.labels[n_old:n], dtype=np.int64)
            self._grow(n, max(self.num_labels, int(new_labels.max()) + 1))
            self.label_counts += np.bincount(new_labels, minlength=self.num_labels)
            c.record_compute(n - n_old)
        ins = batch.insert_edges()
        dels = batch.delete_edges()
        if ins.shape[0]:
            self._scatter(ins, 1)
        if dels.shape[0]:
            l0, l1 = self._scatter(dels, -1)
            # delete overlay: union adjacency = post-batch + deleted-this-batch
            vids = sorted_unique(dels)
            rows = np.zeros((vids.size, self.num_labels), dtype=np.int64)
            np.add.at(rows, (np.searchsorted(vids, dels[:, 0]), l1), 1)
            np.add.at(rows, (np.searchsorted(vids, dels[:, 1]), l0), 1)
            self._del_vids = vids.astype(np.int64)
            self._del_rows = rows
            self._del_total = rows.sum(axis=1)
            dp = np.zeros_like(self.pair_counts)
            np.add.at(dp, (np.minimum(l0, l1), np.maximum(l0, l1)), 1)
            self._del_pair_counts = dp
            self._del_edges = int(dels.shape[0])
        self.num_edges += int(ins.shape[0]) - int(dels.shape[0])
        # O(|ΔE|) scatter-adds
        c.record_compute(4 * len(batch))
        c.record_access(Channel.CPU_DRAM, 0, 2 * len(batch) * _BYTES_PER_ENTRY)
        return c

    def close_batch(self) -> None:
        """Drop the delete overlay once the store has reorganized."""
        self._clear_overlay()

    # -- invariant lookups (union bounds) ------------------------------
    def _union(
        self, verts: np.ndarray, col: np.ndarray, have: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Union degree per vertex of ``verts`` and union neighbor counts
        ``(labels, verts)`` of the labels at ``deg_label`` columns ``col``
        (0 where ``have`` is false): the post-batch state plus the delete
        overlay, added once."""
        total = self.deg_total[verts]
        counts = self.deg_label[verts, col] * have
        if self._del_vids.size:
            pos = np.minimum(self._del_vids.searchsorted(verts), self._del_vids.size - 1)
            hit = self._del_vids[pos] == verts
            total = total + self._del_total[pos] * hit
            counts = counts + self._del_rows[pos, col] * (have & hit)
        return total, counts

    def _feasible(self, table: RequirementTable, at: np.ndarray) -> np.ndarray:
        """Per query, can the union graph host *any* embedding?  Necessary
        conditions only: the graph's vertex-label histogram dominates the
        query's (injectivity), the union edge count covers the query's, and
        the union label-pair histogram dominates the query's — one gather of
        both histograms at ``at`` (:meth:`RequirementTable.lookups`)."""
        pairs = self.pair_counts
        if self._del_pair_counts is not None:
            pairs = pairs + self._del_pair_counts
        held = np.concatenate([self.label_counts, pairs.ravel(), _ZERO])
        short = np.bincount(table.hist_query, held[at] < table.hist_need, len(table.names))
        return (short == 0) & (self.num_edges + self._del_edges >= table.num_edges)

    # -- the decision ---------------------------------------------------
    def decide(
        self, table: RequirementTable, batch: UpdateBatch
    ) -> tuple[dict, list[np.ndarray] | None]:
        """Certify skips for every ``table`` query's ΔM plans against one
        open batch, in one array program: ``({query: PrefilterDecision},
        group masks)``.

        The directed updates' head labels are gathered once (an update's tail
        is its reverse's head) and the dominance table built once over those
        heads and every plan's requirement rows; a plan keeps an update when
        its labels match the plan's root labels (as the root pass,
        :func:`repro.core.matching.trie_roots`, masks them), both
        endpoints dominate and the query is feasible.  For a table built with
        the trie the plans run in, the second value is one keep-mask per root
        group: the OR of its members' (``None`` otherwise).  Each
        decision is charged ``2b + 4·rows`` per plan plus ``b`` when its
        estimate batch is reduced.  Called after :meth:`apply_batch` with the
        same effective batch."""
        b = len(batch)
        directed = batch.directed_updates()[0]
        ends = self.graph.labels[directed]  # (head, tail) labels
        col, have, at = table.lookups(self.num_labels)
        dom = dominance(*self._union(directed[:, 0], col, have), table.deg, table.need)
        match = (((ends[:, 0] == table.pair[:, :1]) | table.wild[:, :1])
                 & ((ends[:, 1] == table.pair[:, 1:]) | table.wild[:, 1:]))
        feasible = self._feasible(table, at)
        keep = (match & dom[table.row[:, 0]] & reverse(dom, b)[table.row[:, 1]]
                & feasible[table.query][:, None])
        by_query = np.logical_or.reduceat(keep, table.firsts, axis=0)
        keep_edge = by_query[:, :b] | by_query[:, b:]
        total = np.add.reduceat(np.add.reduce(match, axis=1), table.firsts)
        passing = np.add.reduceat(np.add.reduce(keep, axis=1), table.firsts)
        reduced = (passing > 0) & ~np.logical_and.reduce(keep_edge, axis=1)
        ops = 2 * b * table.num_plans + 4 * total + b * reduced
        starts = table.starts.tolist()
        decisions = {}
        for q, (name, ok, ops_q, total_q, passing_q) in enumerate(zip(
            table.names, feasible.tolist(), ops.tolist(), total.tolist(), passing.tolist()
        )):
            c = AccessCounters()
            c.record_compute(ops_q)
            skip = not passing_q
            lo, hi = starts[q], starts[q + 1]
            decisions[name] = PrefilterDecision(
                skip_batch=skip,
                reason="" if not skip else ("no-roots" if ok else "infeasible"),
                roots_total=total_q,
                roots_passing=passing_q,
                counters=c,
                batch=batch,
                keep=keep[lo:hi],
                match=match[lo:hi],
                keep_edge=keep_edge[q],
            )
        masks = None
        if table.grouped:
            groups = or_by_group(keep, table.group_rows, table.group_starts)
            masks = [g[m] for g, m in zip(groups, match[table.group_rows[table.group_starts]])]
        return decisions, masks

    def evaluate(self, plans: list[MatchPlan], batch: UpdateBatch) -> PrefilterDecision:
        """One query's decision: the one-query case of :meth:`decide`, its
        table built when the plan list changes (a query set hands the same
        list every batch)."""
        if self._solo is None or self._solo[0] is not plans:
            self._solo = plans, RequirementTable({None: plans})
        return self.decide(self._solo[1], batch)[0][None]


def make_prefilter(name: object, graph) -> InvariantIndex | None:
    """Resolve a ``prefilter=`` value to an index over ``graph`` (or None)."""
    return InvariantIndex(graph) if normalize_prefilter(name) == "invariant" else None
