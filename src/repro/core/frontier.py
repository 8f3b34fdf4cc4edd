"""Frontier-based batched WCOJ kernel (the warp-centric kernel analog).

The recursive executor in :mod:`repro.testing.kernels` expands one root at a
time, descending per candidate in Python — faithful, but the per-node
interpreter overhead dominates wall-clock.  Real GPU matchers (GSI's
Prealloc-Combine joins, Gunrock's subgraph-matching advance/filter
operators) instead run *level-synchronous*: every partial embedding of one
depth is a row of a frontier, and one kernel launch extends the whole
frontier by one query vertex.  This module is that execution shape in
NumPy:

* The frontier is an ``(n, depth)`` array of bound data vertices plus a
  node-line column: the rows of **every** node of one depth of a trie of
  plans advance together (:func:`repro.core.matching.match_trie`, the one
  driver).  What a row reads comes from the depth's operand table, indexed
  by its node's line (:class:`LevelTable`), so the join itself
  (:func:`join_rows`) is a plan-agnostic *row program*: one store read per
  launch for every row and constraint whatever node it belongs to, one
  ``searchsorted`` probe per constraint slot against that block's rank keys,
  flat label / candidate-filter / predicate / injectivity masks — no Python
  recursion, no per-plan loop.
* **Counter parity is exact.**  Neither the join nor the launch charges
  anything: :func:`expand_rows` returns an :class:`AccessLog` of every list
  read in canonical ``(slot, constraint, row)`` order plus its order-free
  compute per row.  The driver settles both once per batch, the
  log through :meth:`~repro.gpu.views.GraphView.fetch_block` in
  trie pre-order — ``(plan, level, slot, constraint, row)`` for a single
  query, the order a plan-by-plan execution would issue — so ``MatchStats``,
  per-channel byte/transaction counters and the per-vertex access histogram
  are bit-identical to the recursive executor, and every simulated time in
  the reproduction is unchanged.

The one modeled divergence is access *order*: the frontier issues all of a
level's reads before the next level's, while recursion interleaves levels
per root.  Only the (stateful, LRU) unified-memory pager can observe this,
and only under eviction pressure — see ``docs/kernel.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.graphs.attributes import edge_weights
from repro.graphs.dynamic_graph import keyed_contains
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import EdgeVersion, LevelPlan
from repro.utils import contains_sorted, segment_indices

__all__ = ["AccessLog", "LevelTable", "level_table", "join_rows", "expand_rows"]

_EMPTY = np.empty(0, dtype=np.int64)
_LAST = np.iinfo(np.int64).max  # sort key of a constraint column a row lacks


class AccessLog(NamedTuple):
    """Every list read of one :func:`join_rows` call, as parallel arrays in
    ``(slot, constraint, row)`` order: frontier row, constraint slot (the
    row's s-th smallest list), vertex read, list length."""

    row: np.ndarray
    slot: np.ndarray
    vertex: np.ndarray
    length: np.ndarray


@dataclass(frozen=True)
class LevelTable:
    """One binding level of ``P`` trie nodes as operand tables, one line per
    node (``K`` = the widest constraint list): constraint ``j`` of line ``p``
    reads the ``old[p, j]`` version of the list of the vertex bound at
    ``position[p, j]`` wherever ``valid[p, j]``.  ``predicates`` lists
    ``(line, position, (lo, hi))`` in constraint order."""

    position: np.ndarray
    old: np.ndarray
    valid: np.ndarray
    label: np.ndarray
    query_vertex: np.ndarray
    predicates: tuple[tuple[int, int, tuple[float, float]], ...]

    def operands(
        self, rows: np.ndarray, line: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(n, K)`` matrices ``verts, old, valid`` of ``rows``, each
        row taking its table ``line``."""
        position = self.position[line]
        verts = rows[np.arange(rows.shape[0])[:, None], position]
        return verts, self.old[line], self.valid[line]


def level_table(levels: tuple[LevelPlan, ...]) -> LevelTable:
    """The operand tables of one level across nodes (one line per node)."""
    shape = (len(levels), max(len(lvl.constraints) for lvl in levels))
    position = np.zeros(shape, dtype=np.int64)
    old = np.zeros(shape, dtype=bool)
    valid = np.zeros(shape, dtype=bool)
    for p, lvl in enumerate(levels):
        for j, c in enumerate(lvl.constraints):
            position[p, j] = c.position
            old[p, j] = c.version is EdgeVersion.OLD
            valid[p, j] = True
    return LevelTable(
        position, old, valid,
        label=np.array([lvl.label for lvl in levels], dtype=np.int64),
        query_vertex=np.array([lvl.query_vertex for lvl in levels], dtype=np.int64),
        predicates=tuple(
            (p, c.position, c.predicate)
            for p, lvl in enumerate(levels)
            for c in lvl.constraints
            if c.predicate is not None
        ),
    )


def join_rows(
    graph, verts: np.ndarray, old: np.ndarray, valid: np.ndarray,
    label: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, AccessLog, np.ndarray]:
    """The per-level join as a row program: intersect every row's lists.

    Row ``r`` intersects the lists of ``verts[r, j]`` (version ``old[r, j]``)
    over its ``valid[r, j]`` columns.  Returns ``(cand_flat, cand_row,
    cand_cnt, log, compute)``: row ``r``'s candidate set is the sorted slice
    of ``cand_flat`` after ``cand_cnt[:r]`` elements, and ``cand_row`` maps
    each candidate back to its row (built once, with the first list, then
    filtered along with the candidates).  Per row the lists are visited
    smallest-first (stable on the versioned length in column order, the
    recursive kernels' ``sorted``); the first is materialised as the
    candidate set, the others are probed through the block's rank keys
    (:func:`keyed_contains`), and a row stops reading once its set empties.
    The whole operand matrix is ONE :meth:`DynamicGraph.operands` read, up
    front — so the block may hold a list no row went on to read; reads are
    free, the log is what is charged — and the slot loop only indexes its
    ``(n, K)`` start / length matrices: nothing is merged, concatenated or
    copied per level.  The log keeps two index columns per slot, the rows
    that read and ``slot * K + constraint``; its ``vertex`` and ``length``
    are one gather per launch from the unsorted operand matrices.

    The sets are *pre-label*, with one exception: given ``label`` (each
    row's wanted label), a row's candidates that cannot match it are dropped
    ahead of the row's **final** probe — after that slot's log entry and
    charge were taken from the unfiltered set.  What a row holds after its
    last probe feeds only the masks of :func:`expand_rows`, which drops
    those candidates anyway, so nothing observable moves; ahead of any
    earlier probe it would change which lists the row still reads.

    The join charges nothing.  ``log`` holds every read for the caller to
    settle; ``compute`` is each row's merge-intersection cost — the first
    list's length, then ``len(set) + len(list)`` per probe.
    """
    n, k = verts.shape
    starts, lens = np.zeros((2, n, k), dtype=np.int64)
    block, keys, starts[valid], lens[valid] = graph.operands(verts[valid], old[valid])
    num_vertices = graph.num_vertices
    arange = np.arange(n, dtype=np.int64)
    slot_starts, slot_lens = starts, lens  # column s = slot s
    if k == 1:
        order = np.zeros((n, 1), dtype=np.int64)
        count = np.ones(n, dtype=np.int64)
    else:
        order = np.where(valid, lens, _LAST).argsort(axis=1, kind="stable")
        count = np.add.reduce(valid, axis=1)
        # a row out of constraints finds an empty segment
        slot_starts, slot_lens = starts[arange[:, None], order], lens[arange[:, None], order]
    cand_flat, cand_cnt = _EMPTY, np.zeros(n, dtype=np.int64)
    compute = np.zeros(n, dtype=np.int64)
    log_rows, log_keys = [], []  # per slot: rows, slot * k + constraint
    for s in range(k):
        reading = (count > s) & (cand_cnt > 0) if s else count > s
        live = arange[reading]
        if s and live.size == 0:
            break
        cons = order[live, s]
        if k > 1:  # the log's canonical order: constraint-major inside a slot
            by = cons.argsort(kind="stable")
            live, cons = live[by], cons[by]
        log_rows.append(live)
        log_keys.append(s * k + cons)
        row_start, row_len = slot_starts[:, s], slot_lens[:, s]
        if s == 0:
            cand_cnt = row_len
            compute += cand_cnt
            qrow = arange.repeat(cand_cnt)
            cand_flat = block[segment_indices(row_start, cand_cnt)]
            continue
        compute[live] += cand_cnt[live] + row_len[live]
        if label is not None:  # charged above on the unfiltered set
            free = (count != s + 1) | (label == WILDCARD_LABEL)
            keep = (free[qrow] | (graph.labels[cand_flat] == label[qrow])).nonzero()[0]
            cand_flat, qrow = cand_flat[keep], qrow[keep]
        found = keyed_contains(keys, num_vertices, row_start[qrow], row_len[qrow], cand_flat)
        found |= ~reading[qrow]  # a row out of constraints keeps its set
        cand_flat, qrow = cand_flat[found], qrow[found]
        cand_cnt = np.bincount(qrow, minlength=n)
    # the log's vertex and length columns: one gather from the unsorted operands
    row = np.concatenate(log_rows)
    slot, cons = np.divmod(np.concatenate(log_keys), k)
    return cand_flat, qrow, cand_cnt, AccessLog(row, slot, verts[row, cons], lens[row, cons]), compute


def expand_rows(
    graph, table: LevelTable, rows: np.ndarray, line: np.ndarray,
    filters: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, AccessLog, np.ndarray]:
    """The level program: the candidates of every row for its node's level.

    One launch of the matcher, :func:`repro.core.matching.expand`'s per
    depth; the frequency walk reads its rows, so a sampled path prunes
    exactly as the executed one does.  Returns
    ``(cand_flat, cand_row, cand_cnt, log, compute)`` — the surviving
    candidates, the row of each, the count per row — and charges nothing:
    ``log`` is the join's access log, left for the caller to settle, and
    ``compute`` the order-free work per row, reproducing the recursive
    ``_candidates`` row by row: the first list charges its length, each
    intersection ``len(a)+len(b)`` ops, then the filter / label / predicate /
    injectivity masks and the final per-candidate charge for surviving rows
    (zero-size rows contribute zero to every charge, exactly like the
    recursive early return).  Everything a row gets depends on that row and
    its line alone, so a reader of some of the rows (the walk, or a shard
    settling the rows of its roots) finds exactly what a launch over them
    returns.
    ``filters`` restricts query vertices to sorted candidate arrays; a
    predicate reads an edge's weight as its hash,
    :func:`~repro.graphs.attributes.edge_weights`.
    """
    n = rows.shape[0]
    # a candidate filter's probe charge counts pre-label candidates
    cand_flat, qrow, cand_cnt, log, work = join_rows(
        graph, *table.operands(rows, line), label=None if filters else table.label[line]
    )
    qline = line[qrow]
    want = table.label[qline]
    keep = (want == WILDCARD_LABEL) | (graph.labels[cand_flat] == want)
    if filters:
        # a candidate index (RapidFlow) encodes the label, so it replaces
        # the label check for its query vertex; one probe per candidate
        query_vertex = table.query_vertex[qline]
        for u, allowed in filters.items():
            sel = query_vertex == u
            work = work + np.bincount(qrow[sel], minlength=n)
            keep[sel] = contains_sorted(allowed, cand_flat[sel])
    # predicate pushdown: mirrors the recursive executor — a node's
    # predicated constraints in order, each charging one weight probe per
    # still-surviving candidate
    for p, position, (lo, hi) in table.predicates:
        alive = (keep & (qline == p)).nonzero()[0]
        work = work + np.bincount(qrow[alive], minlength=n)
        anchors = rows[qrow[alive], position]
        w = edge_weights(anchors, cand_flat[alive])
        keep[alive[~((w >= lo) & (w <= hi))]] = False
    # injectivity: a candidate must differ from every bound vertex of
    # its own row (sequential removal in the recursive executor — the
    # same set either way)
    keep &= np.logical_and.reduce(cand_flat[:, None] != rows[qrow], axis=1)
    cand_flat, qrow = cand_flat[keep], qrow[keep]
    cand_cnt = np.bincount(qrow, minlength=n)
    return cand_flat, qrow, cand_cnt, log, work + cand_cnt

