"""Aggregate-invariant pre-filter index: certify ΔM = 0 before the kernel runs.

Per "Can Aggregate Invariants Accelerate Continuous Subgraph Matching?"
(arXiv:2606.24421, see PAPERS.md), cheap incrementally-maintained aggregate
invariants can *prove* that a batch or a candidate root vertex cannot
produce any match for query Q — before estimation, packing, or the matching
kernel spend a single access.  GCSM's frequency estimate (the source paper's
Sec. IV) is the expensive probabilistic version of the same question; this
module is the certified O(|ΔE|) version.

Invariants maintained (all under :meth:`InvariantIndex.apply_batch`, driven
by the *effective* canonicalized batch so phantom deletes and same-batch
churn can never desynchronize the index from the store):

* **global vertex-label histogram** ``label_counts[ℓ]`` — vertices per label
  (labels are immutable and vertices are never removed, so this only grows
  with new-vertex bursts);
* **global edge label-pair histogram** ``pair_counts[ℓ₁ ≤ ℓ₂]`` — edges per
  unordered endpoint-label pair;
* **per-vertex degree-by-label vectors** ``deg_label[v, ℓ]`` — distinct
  neighbors of ``v`` carrying label ``ℓ`` (plus the total ``deg_total[v]``);
* **k-bit neighborhood label-signature bitmasks** ``sig[v]`` — bit
  ``ℓ mod 64`` set iff ``deg_label[v, ℓ] > 0``; a one-word necessary
  condition tested before the exact count dominance.

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

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.graphs.stream import UpdateBatch, label_pair_mask
from repro.gpu.counters import AccessCounters, Channel
from repro.query.pattern import WILDCARD_LABEL, QueryGraph
from repro.query.plan import MatchPlan
from repro.utils import sorted_unique

__all__ = [
    "PREFILTERS",
    "DEFAULT_PREFILTER",
    "SIGNATURE_BITS",
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
#: width of the neighborhood label-signature bitmask (one machine word)
SIGNATURE_BITS = 64
#: cost-model size of one histogram/counter entry touched by maintenance
_BYTES_PER_ENTRY = 8


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

    def merge(self, other: "PrefilterStats") -> None:
        self.enabled = self.enabled or other.enabled
        self.batches_skipped += other.batches_skipped
        self.roots_skipped += other.roots_skipped
        self.queries_skipped += other.queries_skipped
        self.maintenance_ns += other.maintenance_ns

    def to_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# query requirement vectors
# ----------------------------------------------------------------------
class QueryRequirement:
    """The dominance requirement a data vertex must meet per query vertex.

    Precomputed once per query: per-vertex neighbor-label count vectors
    (wildcard-labeled neighbors contribute only to the total-degree bound),
    total degree bounds, signature bitmasks, and the query's own global
    label/pair histograms for batch-level feasibility.
    """

    def __init__(self, query: QueryGraph) -> None:
        self.query = query  # strong ref keeps the id()-keyed cache sound
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
        self.sig_need: list[np.uint64] = []
        for u in range(query.num_vertices):
            need: dict[int, int] = {}
            for w in query.neighbors(u):
                lw = labels[w]
                if lw != WILDCARD_LABEL:
                    need[lw] = need.get(lw, 0) + 1
            self.adj_need.append(need)
            self.deg_need.append(query.degree(u))
            sig = np.uint64(0)
            for lw in need:
                sig |= np.uint64(1 << (lw % SIGNATURE_BITS))
            self.sig_need.append(sig)


# ----------------------------------------------------------------------
# per-batch decision
# ----------------------------------------------------------------------
@dataclass
class PrefilterDecision:
    """Outcome of one batch-level evaluation for one query's ΔM plans.

    ``masks`` are per-plan boolean arrays aligned with the output of
    :func:`repro.core.matching.delta_roots` for the same (plan, batch) —
    an engine computes the decision in its host stages and hands it to
    ``match_batch(prefilter=...)``, so the match stage never reads the live
    index.  ``estimate_batch`` keeps only updates with
    at least one surviving orientation, shrinking walks and packing.
    """

    skip_batch: bool
    reason: str  # "" | "no-roots" | "infeasible"
    masks: list[np.ndarray] = field(default_factory=list)
    roots_total: int = 0
    roots_passing: int = 0
    estimate_batch: UpdateBatch | None = None
    counters: AccessCounters = field(default_factory=AccessCounters)

    def mask(self, plan_index: int, plan: MatchPlan, roots: np.ndarray) -> np.ndarray:
        """Precomputed root mask for ``plan`` (the masker protocol)."""
        m = self.masks[plan_index]
        if m.shape[0] != roots.shape[0]:
            raise ValueError(
                f"prefilter mask misaligned with roots: {m.shape[0]} != {roots.shape[0]}"
            )
        return m

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
    effective batch in O(|ΔE| + touched·L) vectorized work, and
    :meth:`close_batch` drops the delete overlay once the store reorganizes.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self._requirements: dict[int, QueryRequirement] = {}
        self.rebuild()

    # -- construction / consistency ------------------------------------
    def rebuild(self) -> None:
        """Full from-scratch build (also the test oracle for maintenance)."""
        g = self.graph
        n = g.num_vertices
        labels = np.asarray(g.labels[:n], dtype=np.int64)
        L = int(labels.max()) + 1 if n else 1
        self.num_labels = L
        self.label_counts = np.bincount(labels, minlength=L).astype(np.int64)
        self.deg_label = np.zeros((n, L), dtype=np.int64)
        self.pair_counts = np.zeros((L, L), dtype=np.int64)
        edges = g.edges_new_array()
        if edges.shape[0]:
            l0 = labels[edges[:, 0]]
            l1 = labels[edges[:, 1]]
            np.add.at(self.deg_label, (edges[:, 0], l1), 1)
            np.add.at(self.deg_label, (edges[:, 1], l0), 1)
            np.add.at(self.pair_counts, (np.minimum(l0, l1), np.maximum(l0, l1)), 1)
        self.deg_total = self.deg_label.sum(axis=1)
        self.num_edges = int(edges.shape[0])
        self.sig = self._signature_rows(np.arange(n, dtype=np.int64))
        self._clear_overlay()

    def assert_consistent(self) -> None:
        """Raise if the maintained state differs from a from-scratch rebuild.

        Call on a *settled* store (after ``reorganize``).  This is the
        contract satellite tests exercise under delete-heavy/churn streams
        across every conflict mode.
        """
        fresh = InvariantIndex(self.graph)
        for name in ("label_counts", "deg_label", "deg_total", "pair_counts", "sig"):
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
        self._del_sig = np.empty(0, dtype=np.uint64)
        self._del_pair_counts: np.ndarray | None = None
        self._del_edges = 0

    def _grow(self, n_new: int, L_new: int) -> None:
        n_old, L_old = self.deg_label.shape
        if L_new > L_old:
            grown = np.zeros((n_old, L_new), dtype=np.int64)
            grown[:, :L_old] = self.deg_label
            self.deg_label = grown
            pc = np.zeros((L_new, L_new), dtype=np.int64)
            pc[:L_old, :L_old] = self.pair_counts
            self.pair_counts = pc
            lc = np.zeros(L_new, dtype=np.int64)
            lc[:L_old] = self.label_counts
            self.label_counts = lc
            self.num_labels = L_new
        if n_new > n_old:
            grown = np.zeros((n_new, self.num_labels), dtype=np.int64)
            grown[:n_old] = self.deg_label
            self.deg_label = grown
            self.deg_total = np.concatenate(
                [self.deg_total, np.zeros(n_new - n_old, dtype=np.int64)]
            )
            self.sig = np.concatenate(
                [self.sig, np.zeros(n_new - n_old, dtype=np.uint64)]
            )

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
        labels = g.labels
        n = g.num_vertices
        n_old = self.deg_label.shape[0]
        if n > n_old:
            new_labels = np.asarray(labels[n_old:n], dtype=np.int64)
            L_new = max(self.num_labels, int(new_labels.max()) + 1 if new_labels.size else 1)
            self._grow(n, L_new)
            self.label_counts += np.bincount(new_labels, minlength=self.num_labels)
            c.record_compute(n - n_old)
        ins = batch.insert_edges()
        dels = batch.delete_edges()
        touched_parts = []
        if ins.shape[0]:
            l0 = labels[ins[:, 0]]
            l1 = labels[ins[:, 1]]
            np.add.at(self.deg_label, (ins[:, 0], l1), 1)
            np.add.at(self.deg_label, (ins[:, 1], l0), 1)
            np.add.at(self.deg_total, ins[:, 0], 1)
            np.add.at(self.deg_total, ins[:, 1], 1)
            np.add.at(self.pair_counts, (np.minimum(l0, l1), np.maximum(l0, l1)), 1)
            touched_parts.append(ins.ravel())
        if dels.shape[0]:
            l0 = labels[dels[:, 0]]
            l1 = labels[dels[:, 1]]
            np.subtract.at(self.deg_label, (dels[:, 0], l1), 1)
            np.subtract.at(self.deg_label, (dels[:, 1], l0), 1)
            np.subtract.at(self.deg_total, dels[:, 0], 1)
            np.subtract.at(self.deg_total, dels[:, 1], 1)
            lo, hi = np.minimum(l0, l1), np.maximum(l0, l1)
            np.subtract.at(self.pair_counts, (lo, hi), 1)
            # delete overlay: union adjacency = post-batch + deleted-this-batch
            vids = sorted_unique(dels)
            rows = np.zeros((vids.size, self.num_labels), dtype=np.int64)
            np.add.at(rows, (np.searchsorted(vids, dels[:, 0]), l1), 1)
            np.add.at(rows, (np.searchsorted(vids, dels[:, 1]), l0), 1)
            self._del_vids = vids.astype(np.int64)
            self._del_rows = rows
            self._del_total = rows.sum(axis=1)
            sig = np.zeros(vids.size, dtype=np.uint64)
            present = rows > 0
            for lab in range(self.num_labels):
                sig[present[:, lab]] |= np.uint64(1 << (lab % SIGNATURE_BITS))
            self._del_sig = sig
            dp = np.zeros_like(self.pair_counts)
            np.add.at(dp, (lo, hi), 1)
            self._del_pair_counts = dp
            self._del_edges = int(dels.shape[0])
            touched_parts.append(dels.ravel())
        self.num_edges += int(ins.shape[0]) - int(dels.shape[0])
        touched = 0
        if touched_parts:
            rows = sorted_unique(np.concatenate(touched_parts))
            self.sig[rows] = self._signature_rows(rows)
            touched = int(rows.size)
        # O(|ΔE|) scatter-adds + O(touched · L) exact signature refresh
        c.record_compute(4 * len(batch) + touched * self.num_labels)
        c.record_access(
            Channel.CPU_DRAM, 0,
            (2 * len(batch) + touched * self.num_labels) * _BYTES_PER_ENTRY,
        )
        return c

    def close_batch(self) -> None:
        """Drop the delete overlay once the store has reorganized."""
        self._clear_overlay()

    # -- invariant lookups (union bounds) ------------------------------
    def _signature_rows(self, rows: np.ndarray) -> np.ndarray:
        present = self.deg_label[rows] > 0
        out = np.zeros(rows.shape[0], dtype=np.uint64)
        for lab in range(self.num_labels):
            out[present[:, lab]] |= np.uint64(1 << (lab % SIGNATURE_BITS))
        return out

    def _overlay_hits(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        if self._del_vids.size == 0:
            return None
        pos = np.minimum(
            np.searchsorted(self._del_vids, verts), self._del_vids.size - 1
        )
        hit = self._del_vids[pos] == verts
        if not hit.any():
            return None
        return hit, pos

    def _union_label_col(self, verts: np.ndarray, label: int) -> np.ndarray:
        if label >= self.num_labels or label < 0:
            return np.zeros(verts.shape[0], dtype=np.int64)
        col = self.deg_label[verts, label]
        ov = self._overlay_hits(verts)
        if ov is not None:
            hit, pos = ov
            col = col + np.where(hit, self._del_rows[pos, label], 0)
        return col

    def _union_total(self, verts: np.ndarray) -> np.ndarray:
        total = self.deg_total[verts]
        ov = self._overlay_hits(verts)
        if ov is not None:
            hit, pos = ov
            total = total + np.where(hit, self._del_total[pos], 0)
        return total

    def _union_sig(self, verts: np.ndarray) -> np.ndarray:
        sig = self.sig[verts]
        ov = self._overlay_hits(verts)
        if ov is not None:
            hit, pos = ov
            sig = sig | np.where(hit, self._del_sig[pos], np.uint64(0))
        return sig

    # -- dominance ------------------------------------------------------
    def requirement(self, query: QueryGraph) -> QueryRequirement:
        req = self._requirements.get(id(query))
        if req is None or req.query is not query:
            req = QueryRequirement(query)
            self._requirements[id(query)] = req
        return req

    def vertex_dominates(
        self, verts: np.ndarray, req: QueryRequirement, u: int
    ) -> np.ndarray:
        """Boolean mask: can each data vertex host query vertex ``u``?

        A necessary condition over the union adjacency: total degree,
        signature superset (the one-word fast path), then exact per-label
        neighbor counts (injectivity makes counts, not just presence, the
        requirement — a simple graph's ``deg_label`` counts are distinct
        neighbors, so the comparison is sound).
        """
        if verts.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        ok = self._union_total(verts) >= req.deg_need[u]
        sig_need = req.sig_need[u]
        if sig_need:
            ok &= (self._union_sig(verts) & sig_need) == sig_need
        for lab, cnt in req.adj_need[u].items():
            if not ok.any():
                break
            ok &= self._union_label_col(verts, lab) >= cnt
        return ok

    def root_mask(self, plan: MatchPlan, roots: np.ndarray) -> np.ndarray:
        """Dominance mask over directed roots ``(r, 2)`` for one ΔM plan."""
        if roots.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        req = self.requirement(plan.query)
        u0, u1 = plan.order[0], plan.order[1]
        return self.vertex_dominates(roots[:, 0], req, u0) & self.vertex_dominates(
            roots[:, 1], req, u1
        )

    # -- batch-level feasibility ---------------------------------------
    def query_feasible(self, query: QueryGraph) -> bool:
        """Global dominance: can the union graph host *any* embedding of Q?

        Necessary conditions only: the graph's vertex-label histogram must
        dominate the query's (injectivity), the union edge count must cover
        the query's edge count, and the union label-pair histogram must
        dominate the query's per-pair edge counts.
        """
        req = self.requirement(query)
        for lab, cnt in req.vertex_need.items():
            if lab >= self.num_labels or self.label_counts[lab] < cnt:
                return False
        if self.num_edges + self._del_edges < req.num_edges:
            return False
        for (lo, hi), cnt in req.pair_need.items():
            if hi >= self.num_labels:
                return False
            have = int(self.pair_counts[lo, hi])
            if self._del_pair_counts is not None:
                have += int(self._del_pair_counts[lo, hi])
            if have < cnt:
                return False
        return True

    def evaluate(self, plans: list[MatchPlan], batch: UpdateBatch) -> PrefilterDecision:
        """Certify skips for one query's ΔM plans against one open batch.

        Mirrors :func:`repro.core.matching.delta_roots` exactly (same
        directed order, same label filter) so the per-plan masks align with
        the roots the executor will compute.  Called after
        :meth:`apply_batch` with the same effective batch.
        """
        c = AccessCounters()
        labels = self.graph.labels
        b = len(batch)
        feasible = bool(plans) and self.query_feasible(plans[0].query)
        dir_edges, _dir_signs = batch.directed_updates()
        masks: list[np.ndarray] = []
        total = passing = 0
        keep_edge = np.zeros(b, dtype=bool)
        for plan in plans:
            rows = np.nonzero(label_pair_mask(*labels[dir_edges.T], plan.root_labels()))[0]
            roots = dir_edges[rows]
            if feasible:
                m = self.root_mask(plan, roots)
            else:
                m = np.zeros(rows.size, dtype=bool)
            masks.append(m)
            total += int(rows.size)
            passing += int(m.sum())
            if m.any():
                keep_edge[rows[m] % b] = True
            c.record_compute(int(dir_edges.shape[0]) + 4 * int(rows.size))
        skip = passing == 0
        reason = "" if not skip else ("infeasible" if not feasible else "no-roots")
        estimate_batch: UpdateBatch | None = None
        if not skip:
            if keep_edge.all():
                estimate_batch = batch
            else:
                estimate_batch = UpdateBatch(
                    batch.edges[keep_edge],
                    batch.signs[keep_edge],
                    batch.new_vertex_labels,
                )
                c.record_compute(b)
        return PrefilterDecision(
            skip_batch=skip,
            reason=reason,
            masks=masks,
            roots_total=total,
            roots_passing=passing,
            estimate_batch=estimate_batch,
            counters=c,
        )


def make_prefilter(name: object, graph) -> InvariantIndex | None:
    """Resolve a ``prefilter=`` value to an index over ``graph`` (or None)."""
    return InvariantIndex(graph) if normalize_prefilter(name) == "invariant" else None
