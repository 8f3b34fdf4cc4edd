"""Frontier-based batched WCOJ executor (the warp-centric kernel analog).

The recursive executor in :mod:`repro.testing.kernels` expands one root at a
time, descending per candidate in Python — faithful, but the per-node
interpreter overhead dominates wall-clock.  Real GPU matchers (GSI's
Prealloc-Combine joins, Gunrock's subgraph-matching advance/filter
operators) instead run *level-synchronous*: every partial embedding of one
depth is a row of a frontier, and one kernel launch extends the whole
frontier by one query vertex.  This module is that execution shape in
NumPy:

* The frontier is an ``(n, depth)`` array of bound data vertices plus a
  sign vector; extending a level reads the constraint lists of **all** rows
  in place from the store's per-batch arena of merged lists
  (:func:`intersect_level`, shared with the frequency estimator),
  intersects them with vectorized sorted-set kernels (a segmented binary
  search replaces per-node ``np.intersect1d``), applies label/injectivity
  filters as flat masks, and emits the next frontier with ``np.repeat`` —
  no Python recursion.
* **Counter parity is exact.**  Every neighbor-list access is charged
  through :meth:`~repro.gpu.views.GraphView.fetch_block` (the batched
  equivalent of per-access ``fetch``), every ``record_compute`` /
  ``record_output`` charge of the recursive executor is reproduced as a
  vectorized sum over rows, and per-row constraint ordering replicates the
  smallest-list-first heuristic with a stable argsort.  ``MatchStats``,
  per-channel byte/transaction counters, and the per-vertex access
  histogram are bit-identical to the recursive executor, so every
  simulated time in the reproduction is unchanged.
* Embeddings reach the sink in the **same order** as the recursive
  executor: the frontier preserves lexicographic (root, candidate…) order,
  which is exactly depth-first emission order.

The one modeled divergence is access *order*: the frontier issues all of a
level's reads before the next level's, while recursion interleaves levels
per root.  Only the (stateful, LRU) unified-memory pager can observe this,
and only under eviction pressure — see ``docs/kernel.md``.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import MatchStats
from repro.graphs.attributes import edge_weights
from repro.gpu.views import GraphView
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import EdgeVersion, LevelPlan, MatchPlan
from repro.utils import segment_offsets

__all__ = ["FrontierKernel", "FrontierExecutor", "intersect_level", "segmented_contains"]

_EMPTY = np.empty(0, dtype=np.int64)


def segmented_contains(
    flat: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """Vectorized membership of each query in its own sorted segment.

    ``queries[i]`` is looked up in ``flat[starts[i] : starts[i]+lengths[i]]``
    (each segment sorted ascending) with a *simultaneous* binary search: all
    lanes halve their ``[lo, hi)`` range per iteration, so the whole batch
    costs ``O(len(queries) · log(max segment))`` NumPy ops — the batched
    analog of one GPU thread per (candidate, list) probe.
    """
    out = np.zeros(queries.size, dtype=bool)
    if queries.size == 0 or flat.size == 0:
        return out
    lo = starts.astype(np.int64, copy=True)
    hi = lo + lengths
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        vals = flat[np.where(active, mid, 0)]
        go_right = active & (vals < queries)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    # lo is now the lower bound; a hit iff it is in range and matches
    in_range = lo < starts + lengths
    idx = np.where(in_range, lo, 0)
    out = in_range & (flat[idx] == queries)
    return out


def intersect_level(graph, constraints, rows: np.ndarray, charge):
    """The per-level join: intersect every row's constraint lists.

    Returns ``(cand_flat, cand_cnt)`` *before* any label / injectivity
    filtering: row ``r``'s running candidate set is the sorted slice of
    ``cand_flat`` after ``cand_cnt[:r]`` elements.  Per row the constraints
    are visited smallest-list-first (stable on the versioned degree, the
    recursive kernels' ``sorted``); the first list is materialised as the
    candidate set, the others are probed with :func:`segmented_contains`,
    and a row stops reading once its set empties.  Lists are read in place
    from the graph's epoch arena (:meth:`DynamicGraph.gather`), so nothing
    is merged, concatenated or copied per level.

    The join charges nothing itself.  For each slot and constraint it calls
    ``charge(sel, verts, version, lens, probes)`` once with the row mask
    ``sel`` that reads that constraint now, the vertices read, their list
    lengths, and ``probes`` — the candidates about to be intersected
    against those lists (0 on the first slot, where the list *is* the set).
    """
    n = rows.shape[0]
    k = len(constraints)
    if k == 1:
        order = np.zeros((n, 1), dtype=np.int64)
    else:
        keys = np.empty((n, k), dtype=np.int64)
        for j, c in enumerate(constraints):
            table = (
                graph.degrees_old() if c.version is EdgeVersion.OLD
                else graph.degrees_new()
            )
            keys[:, j] = table[rows[:, c.position]]
        order = np.argsort(keys, axis=1, kind="stable")

    cand_flat = _EMPTY
    cand_cnt = np.zeros(n, dtype=np.int64)
    for s in range(k):
        cidx = order[:, s]
        live = np.ones(n, dtype=bool) if s == 0 else cand_cnt > 0
        starts = np.zeros(n, dtype=np.int64)
        lens = np.zeros(n, dtype=np.int64)
        for j, c in enumerate(constraints):
            sel = live & (cidx == j)
            if not sel.any():
                continue
            verts = rows[sel, c.position]
            g_starts, g_lens = graph.gather(verts, c.version is EdgeVersion.OLD)
            starts[sel] = g_starts
            lens[sel] = g_lens
            charge(sel, verts, c.version, g_lens, int(cand_cnt[sel].sum()))
        flat = graph.arena  # read after this slot's gathers
        if s == 0:
            cand_cnt = lens
            offsets = segment_offsets(lens)
            idx = (
                np.arange(int(offsets[-1]), dtype=np.int64)
                + np.repeat(starts - offsets[:-1], lens)
            )
            cand_flat = flat[idx]
        else:
            found = segmented_contains(
                flat, np.repeat(starts, cand_cnt), np.repeat(lens, cand_cnt), cand_flat
            )
            qrow = np.repeat(np.arange(n, dtype=np.int64), cand_cnt)
            cand_flat = cand_flat[found]
            cand_cnt = np.bincount(qrow[found], minlength=n)
    return cand_flat, cand_cnt


class FrontierKernel:
    """Plan-agnostic level-expansion context: view + labels + filters.

    One kernel instance can expand levels of *any* plan against the same
    frozen adjacency — :class:`FrontierExecutor` binds one to a single plan,
    while the multi-query execution trie
    (:mod:`repro.core.querytrie`) drives one kernel across the whole
    rulebook so a level shared by many plans is expanded exactly once.
    """

    def __init__(
        self,
        view: GraphView,
        labels: np.ndarray,
        filters: dict[int, np.ndarray] | None = None,
        attributes=None,
    ) -> None:
        self.view = view
        self.labels = labels
        self.filters = filters or {}
        #: optional edge-weight provider for predicate pushdown; None falls
        #: back to the deterministic hash weights
        self.attributes = attributes

    # ------------------------------------------------------------------
    def level_candidates(
        self,
        lvl: LevelPlan,
        rows: np.ndarray,
        active: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidates for one level across the whole frontier.

        Returns ``(cand_flat, cand_cnt)``: row ``r``'s candidate set is the
        sorted slice of ``cand_flat`` after ``cand_cnt[:r]`` elements.
        Reproduces the recursive ``_candidates`` charges row by row: every
        list read goes through :meth:`GraphView.fetch_block`, the first list
        charges its length, each intersection ``len(a)+len(b)`` ops, then the
        filter/label/injectivity masks and the final per-candidate charge
        for surviving rows.

        ``active`` is the mask hook for shared multi-query execution: a
        boolean row mask restricting expansion (and every recorded charge)
        to the rows whose query-set bitmask covers this level's branch.
        Inactive rows contribute zero candidates and zero charges — exactly
        as if they had been filtered out of ``rows`` beforehand.
        """
        if active is not None and not bool(active.all()):
            sub_flat, sub_cnt = self.level_candidates(lvl, rows[active])
            cand_cnt = np.zeros(rows.shape[0], dtype=np.int64)
            cand_cnt[active] = sub_cnt
            return sub_flat, cand_cnt
        cons = lvl.constraints
        view = self.view
        counters = view.counters
        n = rows.shape[0]

        def charge(sel, verts, version, lens, probes):
            view.fetch_block(verts, version)  # records every access
            counters.record_compute(probes + int(lens.sum()))

        cand_flat, cand_cnt = intersect_level(view.graph, cons, rows, charge)

        # rows that survived every intersection reach the filtering stage
        # (zero-size rows contribute zero to every charge below, exactly
        # like the recursive early return)
        qv_filter = self.filters.get(lvl.query_vertex)
        if qv_filter is not None:
            counters.record_compute(int(cand_cnt.sum()))
            pos = np.searchsorted(qv_filter, cand_flat)
            ok = pos < qv_filter.size
            keep = np.zeros(cand_flat.size, dtype=bool)
            keep[ok] = qv_filter[pos[ok]] == cand_flat[ok]
        elif lvl.label != WILDCARD_LABEL:
            keep = self.labels[cand_flat] == lvl.label
        else:
            keep = np.ones(cand_flat.size, dtype=bool)
        qrow = np.repeat(np.arange(n, dtype=np.int64), cand_cnt)
        # predicate pushdown: mirrors the recursive executor — predicated
        # constraints in plan order, each charging one weight probe per
        # still-surviving candidate (the per-row sizes sum to exactly the
        # recursive per-root charges)
        for c in (c for c in cons if c.predicate is not None):
            alive = np.flatnonzero(keep)
            counters.record_compute(int(alive.size))
            if alive.size == 0:
                break
            anchors = rows[qrow[alive], c.position]
            if self.attributes is not None:
                w = self.attributes.pair_weights(anchors, cand_flat[alive])
            else:
                w = edge_weights(anchors, cand_flat[alive])
            lo, hi = c.predicate
            keep[alive[~((w >= lo) & (w <= hi))]] = False
        # injectivity: a candidate must differ from every bound vertex of
        # its own row (sequential removal in the recursive executor — the
        # same set either way)
        keep &= (cand_flat[:, None] != rows[qrow]).all(axis=1)
        cand_flat = cand_flat[keep]
        cand_cnt = np.bincount(qrow[keep], minlength=n)
        counters.record_compute(int(cand_cnt.sum()))
        return cand_flat, cand_cnt


class FrontierExecutor(FrontierKernel):
    """Level-synchronous execution of one plan over all of its roots.

    Drop-in peer of the recursive ``_PlanExecutor``: same constructor
    signature, same view/counters contract, bit-identical stats.
    """

    def __init__(
        self,
        plan: MatchPlan,
        view: GraphView,
        labels: np.ndarray,
        sink,
        filters: dict[int, np.ndarray] | None = None,
        attributes=None,
    ) -> None:
        super().__init__(view, labels, filters, attributes)
        self.plan = plan
        self.sink = sink
        self.stats = MatchStats()

    # ------------------------------------------------------------------
    def _inverse_order(self) -> np.ndarray:
        order = self.plan.order
        inverse = np.empty(len(order), dtype=np.int64)
        for pos, u in enumerate(order):
            inverse[u] = pos
        return inverse

    def run(self, roots: np.ndarray, signs: np.ndarray) -> MatchStats:
        """Execute the plan over all ``(n, 2)`` roots with their signs."""
        stats = self.stats
        counters = self.view.counters
        n = int(roots.shape[0])
        stats.roots_processed += n
        stats.tree_nodes += n
        if n == 0:
            return stats
        depth = self.plan.depth
        signs = signs.astype(np.int64, copy=False)
        if depth == 2:
            stats.signed_count += int(signs.sum())
            stats.embeddings_found += n
            counters.record_output(n)
            counters.record_compute(n * depth)
            if self.sink is not None:
                emb = roots[:, self._inverse_order()]
                for e, s in zip(emb.tolist(), signs.tolist()):
                    self.sink(tuple(e), s)
            return stats

        rows = roots.astype(np.int64, copy=False)
        sign = signs
        last_index = len(self.plan.levels) - 1
        for li in range(len(self.plan.levels)):
            cand_flat, cand_cnt = self.level_candidates(self.plan.levels[li], rows)
            total = int(cand_cnt.sum())
            if li == last_index:
                stats.signed_count += int((sign * cand_cnt).sum())
                stats.embeddings_found += total
                stats.tree_nodes += total
                counters.record_output(total)
                counters.record_compute(total * depth)
                if self.sink is not None and total:
                    full = np.concatenate(
                        [np.repeat(rows, cand_cnt, axis=0), cand_flat[:, None]],
                        axis=1,
                    )[:, self._inverse_order()]
                    for e, s in zip(
                        full.tolist(), np.repeat(sign, cand_cnt).tolist()
                    ):
                        self.sink(tuple(e), s)
            else:
                stats.tree_nodes += total
                if total == 0:
                    break
                rows = np.concatenate(
                    [np.repeat(rows, cand_cnt, axis=0), cand_flat[:, None]], axis=1
                )
                sign = np.repeat(sign, cand_cnt)
        return stats
