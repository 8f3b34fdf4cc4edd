"""Dynamic CPU-side graph store (paper Sec. V-A, Fig. 5).

The paper keeps the evolving data graph in pre-allocated pinned arrays
reached through the ``pHost`` / ``pDevice`` tables: one flat address space.
Here that is **one slab** — a ``pool`` of 4-byte entries (:data:`SLAB_DTYPE`,
the ``BYTES_PER_NEIGHBOR`` the cost model prices) plus per-vertex ``offset``
/ ``cap`` tables (the offset table is the address table) beside four length
tables (post-batch degree, base run, stored run, deletion marks).  Each
list is a *window* ``pool[offset[v] : offset[v] + cap[v]]`` holding the sorted
base run with its marks in place and, appended behind it, the open batch's
sorted ``ΔN`` run.  A fresh store is its graph's CSR, narrowed in one copy:
every window holds its run exactly (``offset = indptr[:-1]``, ``cap`` the
degree, 0 for an isolated vertex), so room is given only to the lists that
grow.  The four update rules, each one whole-batch operation:

1. **Insertions append.**  Both orientations of the batch's inserts are
   sorted by (source, neighbor), so every ``ΔN(v)`` is written already
   sorted; a list that outgrows its window (an empty one included) moves to
   one of ``max(need, 2 * cap)`` entries, giving O(1) amortized insertion.
2. **New vertices** get a window sized to the average degree.
3. **Deletions mark in place.**  A deleted neighbor ``v`` is found by the
   batch's one bisection of the settled base runs (the same that tells
   whether each edge is there) and overwritten with ``-(v + 1)`` (vertex 0
   stays representable); decoding preserves order, so the base run stays
   logically sorted.  No delete targets a ``ΔN`` run: a batch is netted
   before it is written and cannot open before reorganize.
4. **Reorganization** (step 5 of the pipeline, run *after* matching) stores
   every touched list's merged ``N'(v)`` as its one sorted base run.

Between steps 1 and 4 — while the incremental matching kernel runs — the
store exposes the two adjacency versions of paper Fig. 2: ``N(v)``, the base
run with marks decoded (deleted edges existed before the batch), and
``N'(v)``, the base run with marks skipped plus ``ΔN(v)``, kept as two
sorted runs for the ``N' = N ∪ ΔN`` split intersections of Sec. V-C.

**Allocator.**  Windows are bumped off the pool's tail and never reused: a
list that outgrows its window moves to one at least twice as large and
leaves the old one dead.  Each dead window is thus at most half the next one
its list held, so a list's dead windows sum to less than its live one (an
empty window leaves nothing dead), the tail stays under twice the live
windows and nothing is compacted.  The CSR start only shortens the chains:
a list that never grows has no dead window.  A full pool is replaced by one
``_GROWTH`` times larger.

**One read, one write.**  :meth:`DynamicGraph.read` gathers any set of
lists in either version as one flat block (marks decoded or dropped, the two
runs of a touched list merged by one sort of ``segment * n + value`` keys):
a launch's operands, DCSR packing and the whole-store readers (in bounded
blocks, :meth:`DynamicGraph.read_blocks`) are that read, and a batch is one
fancy-indexed write ``pool[offset[src] + slot] = value``.
The slab's 4-byte entries are widened to :data:`~repro.utils.VERTEX_DTYPE`
once, on the way out (:meth:`DynamicGraph.read`, :meth:`DynamicGraph.packed_runs`),
so no key (``segment * n + value``, rank keys, edge keys) is ever computed in
32 bits; a write narrows only ids the update keys' ``span² < 2^62`` guard
already bounds (``v ≤ 2^31 − 2``, so a mark ``-(v + 1) ≥ −(2^31 − 1)``).

What the join kernels probe is one launch's operands
(:meth:`DynamicGraph.operands`): the distinct lists it asks for, read once as
a working-set block with rank keys, nothing kept for the next launch (reads
are free, the kernels' access log is what is charged).  A block beats a
whole-graph key pool: probing all 662 k / 962 k directed entries on FR / SF3K
instead of a batch's ≈ 19 k / 27 k working-set elements measured 1.55-1.7x
slower keyed probes.

**A batch costs what it touches**: the versioned degrees are rows of the
length table and every mutation rewrites only what it touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import (
    CONFLICT_MODES, BatchConflictError, CanonicalReport, UpdateBatch,
)
from repro.utils import (
    VERTEX_DTYPE, contains_sorted, require, segment_indices, segment_offsets, sorted_unique,
)

__all__ = [
    "rank_keys",
    "keyed_contains",
    "DynamicGraph",
    "ReorganizeStats",
]

_EMPTY = np.empty(0, dtype=VERTEX_DTYPE)
#: the slab's entry: a neighbour id or a deletion mark, in the 4 bytes the cost
#: model prices per stored neighbour
SLAB_DTYPE = np.int32
#: a list that outgrows its window moves to one at least this many times as
#: large; a full pool is replaced by one this many times the tail it must hold
_GROWTH = 2
#: the whole-store reader's block: at most this many entries per read (a list
#: is never split, so one longer than this is a block of its own)
_BLOCK = 1 << 14


def _decode(values: np.ndarray) -> np.ndarray:
    """Decode a base run: deletion marks ``-(v+1)`` back to ``v``."""
    return np.where(values < 0, -values - 1, values)


def _each(ok: np.ndarray, message: str) -> None:
    """Require a per-vertex verdict everywhere, naming the first offender."""
    if not ok.all():
        raise ValueError(message.format(int(np.argmin(ok))))


@dataclass
class ReorganizeStats:
    """Work accounting for one :meth:`DynamicGraph.reorganize` call.

    ``merged_elements`` is the total number of elements the linear-time merge
    touched; the bench harness prices it with the CPU cost model to reproduce
    Table III.
    """

    lists_touched: int = 0
    merged_elements: int = 0
    deletions_dropped: int = 0
    insertions_merged: int = 0


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _sort_runs(block: np.ndarray, lengths: np.ndarray, num_vertices: int) -> np.ndarray:
    """Each segment of ``block`` sorted by one stable sort of ``segment * n +
    value`` keys: sorted runs end to end are what a merge sort is fast on."""
    segment = (np.arange(lengths.size) * num_vertices).repeat(lengths)
    keys = segment + block
    keys.sort(kind="stable")
    return keys - segment


def _bisect(pool, starts, lengths, values, depth):
    """``(slot, found)``: where each ``values[i]`` sits or would sit in the
    sorted window ``pool[starts[i] : starts[i] + lengths[i]]``, and whether it
    is there — ``depth`` halving steps over every window at once, the same
    count whatever the batch (``2**depth`` must exceed every length).

    A probe past a window reads its last entry (of an empty window, the
    entry before it): it steps on only when every entry of the window is
    smaller, and the slot is then clamped to the window's end."""
    last = starts + lengths - 1
    below = starts - 1  # the last entry known to be smaller than the value
    for k in reversed(range(depth)):
        ahead = below + (1 << k)
        below += (1 << k) * (pool[np.minimum(ahead, last)] < values)
    slot = np.minimum(below, last) + 1
    found = slot <= last  # the range test first: an empty window shares the next one's offset
    found[found] = pool[slot[found]] == values[found]
    return slot - starts, found


def _conflict_diagnostic(rows, sizes, insert, present, max_examples: int = 4) -> str:
    """The ``strict`` mode's batch-level diagnostic, one ``(lo, hi)`` row per
    edge of the batch with its update count, its winner's kind and presence."""

    def sample(mask: np.ndarray) -> str:
        edges = rows[mask][:max_examples]
        text = ", ".join(f"({u}, {v})" for u, v in edges.tolist())
        extra = int(np.count_nonzero(mask)) - edges.shape[0]
        return text + (f", ... +{extra} more" if extra > 0 else "")

    parts = []
    repeated = sizes > 1
    if repeated.any():
        parts.append(f"{int(np.count_nonzero(repeated))} edge(s) updated "
                     f"more than once in the batch: {sample(repeated)}")
    dup = insert & present
    if dup.any():
        parts.append(f"{int(np.count_nonzero(dup))} insert(s) of existing "
                     f"edges: {sample(dup)}")
    phantom = ~insert & ~present
    if phantom.any():
        parts.append(f"{int(np.count_nonzero(phantom))} delete(s) of "
                     f"non-existent edges: {sample(phantom)}")
    return ("strict conflict mode rejected the batch: " + "; ".join(parts)
            + " (use conflict mode 'coalesce' or 'ignore' to net these out)")


def rank_keys(
    starts: np.ndarray, lengths: np.ndarray, values: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Rank keys of sorted segments laid end to end: element ``values[i]`` of
    the segment at offset ``start`` gets ``start * num_vertices + values[i]``.
    Offsets increase and values stay below ``num_vertices``, so the keys of
    the whole buffer are sorted."""
    return (starts * num_vertices).repeat(lengths) + values


def keyed_contains(
    keys: np.ndarray,
    num_vertices: int,
    starts: np.ndarray,
    lengths: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """Membership of ``queries[i]`` in the segment ``(starts[i], lengths[i])``
    of the buffer ranked by ``keys``: one binary search over all segments.

    The range test is not optional: an empty segment shares its offset with
    the next one, whose elements the key equality alone would report."""
    probe = starts * num_vertices + queries
    pos = keys.searchsorted(probe)
    found = pos < starts + lengths
    found[found] = keys[pos[found]] == probe[found]
    return found


class DynamicGraph:
    """Mutable adjacency-list graph with the paper's update protocol."""

    def __init__(self, initial: StaticGraph) -> None:
        n = initial.num_vertices
        self._labels: np.ndarray = initial.labels.copy()
        degs = initial.degrees()
        self._avg_degree = max(1, int(round(float(degs.mean())) if n else 1))
        self._bind(np.zeros((7, n), dtype=np.int64))
        self._new_len[:] = self._base_len[:] = self._total_len[:] = self._cap[:] = degs
        # the slab starts as the CSR, narrowed in one copy: each window holds
        # its run exactly (an isolated vertex's is empty); the pool has room
        # for the tail to double twice (it stays under twice the live
        # windows, see the module docstring)
        self._offset[:], self._tail = initial.indptr[:-1], int(initial.indptr[-1])
        self._pool = np.empty(2 * _GROWTH * self._tail, dtype=SLAB_DTYPE)
        self._pool[: self._tail] = initial.indices
        self._touched: np.ndarray = _EMPTY  # sorted; replaced, never written
        self._batch_open = False
        self._num_edges = initial.num_edges
        self._max_degree = int(degs.max(initial=0))
        #: classification of the most recent :meth:`apply_batch` input
        self.last_canonical_report: CanonicalReport | None = None

    def _bind(self, tables: np.ndarray) -> None:
        """Name the rows of the per-vertex table: window offset and capacity,
        post-batch degree, base-run / stored-run lengths, deletion marks in the
        base run, 1 where the open batch touched the list; ``_deg`` is the two
        versioned degrees (row 1 = OLD: the base run)."""
        self._tables = tables
        (self._offset, self._cap, self._new_len, self._base_len, self._total_len,
         self._marks, self._in_batch) = tables
        self._deg = tables[2:4]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._tables.shape[1]

    @property
    def num_edges(self) -> int:
        """Undirected edge count of the *current* (post-batch) state."""
        return self._num_edges

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def batch_open(self) -> bool:
        """True between :meth:`apply_batch` and :meth:`reorganize`."""
        return self._batch_open

    @property
    def touched_vertices(self) -> set[int]:
        """Vertices whose lists were modified by the open batch."""
        return set(self._touched.tolist())

    def degrees_new(self) -> np.ndarray:
        """Post-batch degrees of every vertex: a read-only view of the live
        table, which every mutation rewrites — copy it to keep it."""
        return _read_only(self._new_len.view())

    def max_degree(self) -> int:
        """The largest post-batch degree, kept by :meth:`apply_batch` (recounted
        only when a vertex holding it lost edges)."""
        return self._max_degree

    # ------------------------------------------------------------------
    # Fig. 2 adjacency versions: the one bulk read
    # ------------------------------------------------------------------
    def run_lengths(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(base_len, total_len)`` of the stored runs of ``vertices``."""
        return self._base_len[vertices], self._total_len[vertices]

    def packed_runs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(base_len, total_len, block)`` for bulk packing of ``vertices``:
        ``block`` is their stored runs (base run with its marks, then ``ΔN``)
        laid end to end, one gather from the pool, widened."""
        base_len, total_len = self.run_lengths(vertices)
        block = self._pool[segment_indices(self._offset[vertices], total_len)]
        return base_len, total_len, block.astype(VERTEX_DTYPE)

    def read(self, vertices: np.ndarray, old) -> tuple[np.ndarray, np.ndarray]:
        """The store's one bulk read: ``(block, lengths)``, the lists of
        ``vertices`` laid end to end — ``N`` where ``old`` (a scalar, or one
        flag per vertex: a launch's operands mix versions) is true, ``N'``
        elsewhere.

        One gather of the stored runs, widened to ``VERTEX_DTYPE``; marks are
        decoded for ``N`` and dropped for ``N'``, whose two sorted runs are
        then merged by one sort of ``segment * n + value`` keys.  Both passes
        run only if the length tables say some list asked for has marks, or a
        ``ΔN`` run."""
        if isinstance(old, np.ndarray):
            old = old.astype(bool, copy=False)
        else:
            old = np.full(vertices.shape, old, dtype=bool)
        base, total = self._base_len[vertices], self._total_len[vertices]
        marks = self._marks[vertices]
        lengths = np.where(old, base, total)
        block = self._pool[segment_indices(self._offset[vertices], lengths)].astype(VERTEX_DTYPE)
        if marks.any():
            marked = block < 0
            block[marked] = -block[marked] - 1
            block = block[~marked | old.repeat(lengths)]
            lengths = lengths - np.where(old, 0, marks)
        merge = ~old & (total > base)
        if merge.any():
            picked = merge.repeat(lengths)
            block[picked] = _sort_runs(block[picked], lengths[merge], self.num_vertices)
        return block, lengths

    def read_blocks(self, old: bool):
        """The whole store in one version, in ascending vertex blocks: yields
        ``(vertices, block, lengths)``, one :meth:`read` each, so a reader of
        every list holds at most ``_BLOCK`` entries (or one longer list) at a
        time.  A block ends before and after each list that reaches a multiple
        of ``_BLOCK`` in the concatenated lists, so every other block lies
        within one such stride."""
        ends = segment_offsets(self._deg[int(old)]) // _BLOCK
        at = np.flatnonzero(ends[1:] > ends[:-1])
        cuts = np.concatenate([[0], np.stack([at, at + 1], axis=1).ravel(), [ends.size - 1]])
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            if hi > lo:  # cuts repeat around adjacent such lists: no empty block
                vertices = np.arange(lo, hi)
                yield (vertices, *self.read(vertices, old))

    def operands(
        self, vertices: np.ndarray, old: bool | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One launch's lists: ``(block, keys, starts, lengths)`` — the distinct
        lists asked for, read once and laid end to end, their
        :func:`rank_keys` for :func:`keyed_contains` probes, and each
        operand's segment of ``block``.  ``old`` picks ``N`` (true) or ``N'``
        per element; a scalar applies to all of them.

        A list the open batch did not touch is one list in both versions, so
        its asks fold to one ``(vertex, version)`` key before the keys are
        deduped.  No traffic is charged here: callers record every access
        themselves."""
        # a key packs (vertex, version), 1 = OLD; an untouched list is filed under OLD
        asked = 2 * vertices + (np.asarray(old) | (self._in_batch[vertices] == 0))
        lists = sorted_unique(asked)
        block, lengths = self.read(lists >> 1, (lists & 1).astype(bool))
        num_vertices = self.num_vertices
        require(block.size * num_vertices < 2**62,
                f"{block.size} elements overflow the int64 rank keys")
        starts, at = segment_offsets(lengths)[:-1], lists.searchsorted(asked)
        keys = rank_keys(starts, lengths, block, num_vertices)
        return block, keys, starts[at], lengths[at]

    def _move(self, vertices: np.ndarray, cap: np.ndarray, keep: np.ndarray) -> None:
        """Give ``vertices`` fresh windows of ``cap`` entries bumped off the
        tail, carrying over the first ``keep`` of each; the windows they
        leave are dead.  A full pool is replaced by a larger one."""
        bounds = self._tail + segment_offsets(cap)
        if bounds[-1] > self._pool.size:
            pool = np.empty(_GROWTH * int(bounds[-1]), dtype=SLAB_DTYPE)
            pool[: self._tail] = self._pool[: self._tail]
            self._pool = pool
        offset = self._offset[vertices]
        source = segment_indices(offset, keep)  # one gather, one scatter
        self._pool[source + (bounds[:-1] - offset).repeat(keep)] = self._pool[source]
        self._offset[vertices], self._cap[vertices] = bounds[:-1], cap
        self._tail = int(bounds[-1])

    # ------------------------------------------------------------------
    # update protocol
    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch, mode: str = "strict") -> UpdateBatch:
        """Step 1 of the pipeline: net ``ΔE``, classify it against the store
        and fold it in, in one pass.

        Arbitrary real-world streams — duplicate inserts, phantom deletes,
        same-batch churn pairs — are either rejected with a batch-level
        diagnostic (``mode="strict"``, the default for the raw store:
        :class:`~repro.graphs.stream.BatchConflictError`, raised before any
        write and before :attr:`last_canonical_report` changes) or netted to
        their exact effect: ``"coalesce"`` keeps the last update of each edge
        (the state a sequential replay reaches), ``"ignore"`` the first, and
        both drop store-level no-ops.  Returns the *effective* batch — the
        raw one itself when it is clean, else its surviving updates in order
        and orientation — which callers running the incremental matcher must
        use for root generation so ΔM equals the true state difference.

        One key column ``src * span + dst`` holds both orientations of every
        update, interleaved, so one stable sort lays each directed edge's
        updates together in stream order (the winner is the first or the
        last) and each list's updates by neighbour.  One fixed-depth
        bisection of the settled base runs (:func:`_bisect`) answers whether
        each winner's edge is there and at which slot; an endpoint the store
        never saw is absent without a probe.  A kept delete marks its slot,
        a kept insert lands after the base run at its rank among its list's
        inserts, read off the column's runs — one write.  The batch stays
        "open" — :meth:`reorganize` must be called after matching.
        """
        require(not self._batch_open, "previous batch not reorganized yet")
        require(mode in CONFLICT_MODES,
                f"unknown conflict mode {mode!r}; expected one of {CONFLICT_MODES}")
        n, size = self._tables.shape[1], batch.signs.size
        span = int(np.maximum.reduce(batch.edges, axis=None, initial=n - 1)) + 1
        require(span * span < 2**62, f"{span} vertices overflow the int64 edge keys")
        src, dst = batch.edges.ravel(), batch.edges[:, ::-1].ravel()  # update i: entries 2i, 2i+1
        keys = src * span + dst
        order = keys.argsort(kind="stable")
        keys = keys[order]
        win = np.empty(keys.size, dtype=bool)  # the first (ignore) or last update of each edge
        if mode == "ignore":
            win[:1], win[1:] = True, keys[1:] != keys[:-1]
        else:
            win[-1:], win[:-1] = True, keys[1:] != keys[:-1]
        entry = order[win]
        src, dst, insert = src[entry], dst[entry], batch.signs[entry >> 1] > 0
        # the store is settled: a neighbour's slot in N' is its base-run slot
        known = np.maximum(src, dst) < n
        slot, present = np.zeros(entry.size, dtype=np.int64), np.zeros(entry.size, dtype=bool)
        slot[known], present[known] = _bisect(
            self._pool, self._offset[src[known]], self._base_len[src[known]], dst[known],
            self._max_degree.bit_length())
        keep, lohi = insert != present, src < dst  # each edge once, on its (lo, hi) row
        phantom, valid, duplicate, new = np.bincount(
            (2 * insert + keep)[lohi], minlength=4).tolist()
        report = CanonicalReport(
            mode, input_size=size, output_size=new + valid, new_inserts=new,
            duplicate_inserts=duplicate, valid_deletes=valid, phantom_deletes=phantom,
            intra_batch_dropped=size - (entry.size >> 1))
        if mode == "strict" and report.anomalies:
            sizes = np.diff(win.nonzero()[0], prepend=-1)
            raise BatchConflictError(_conflict_diagnostic(
                np.stack([src, dst], axis=1)[lohi], sizes[lohi], insert[lohi], present[lohi]
            ), report)
        self.last_canonical_report = report
        if report.output_size < size:
            kept = (entry >> 1)[keep & lohi]
            kept.sort()
            batch = batch.subset(kept)

        src, dst, insert, slot = src[keep], dst[keep], insert[keep], slot[keep]
        self._batch_open = True
        grown = int(np.maximum.reduce(src, initial=n - 1)) + 1
        if grown > n:
            self._grow_vertices(grown, batch.new_vertex_labels)
        # each touched list's updates are one run of the column: its inserts'
        # ranks and counts are differences of one running count
        bounds = np.empty(src.size + 1, dtype=bool)
        bounds[1:-1], bounds[[0, -1]] = src[1:] != src[:-1], True
        bounds = bounds.nonzero()[0]
        inserts = segment_offsets(insert)  # the inserts before each entry
        self._touched = touched = src[bounds[:-1]]
        at_run, runs = inserts[bounds], bounds[1:] - bounds[:-1]
        added = at_run[1:] - at_run[:-1]
        # the store was settled: a list's degree before the batch is its base run
        before = self._base_len[touched]
        self._marks[touched] = runs - added
        self._total_len[touched] = need = before + added
        self._new_len[touched] = after = need - runs + added
        self._in_batch[touched] = 1
        top = int(np.maximum.reduce(after, initial=0))
        if top >= self._max_degree:
            self._max_degree = top
        elif self._max_degree in before:
            self._max_degree = int(np.maximum.reduce(self._new_len, initial=0))
        # an insert lands after the base run, at its rank among its list's inserts
        rank = inserts[:-1] - at_run[:-1].repeat(runs)
        slot = np.where(insert, self._base_len[src] + rank, slot)
        # a list that outgrew its window moves first, to one at least
        # doubled (a zero-capacity window too) that fits its stored runs
        cap = self._cap[touched]
        move = need > cap
        if move.any():
            moved = touched[move]
            self._move(moved, np.maximum(need[move], _GROWTH * cap[move]), self._base_len[moved])
        # the one bulk write; the deletion mark of v is -(v+1)
        self._pool[self._offset[src] + slot] = np.where(insert, dst, -(dst + 1))
        self._num_edges += new - valid
        return batch

    def reorganize(self) -> ReorganizeStats:
        """Step 5 of the pipeline: restore the sorted invariant.

        Every touched list is replaced by its merged ``N'`` — one gather, the
        marks dropped if any, one sort, one scatter
        (:func:`repro.testing.oracles.merge_runs_reference` is the scalar
        oracle) — and the batch is closed; the work accounting is four sums
        over the length tables.
        """
        require(self._batch_open, "no open batch to reorganize")
        touched = self._touched
        total, lengths = self._total_len[touched], self._new_len[touched]
        stats = ReorganizeStats(
            lists_touched=int(touched.size),
            merged_elements=int(lengths.sum()),
            deletions_dropped=int(self._marks[touched].sum()),
            insertions_merged=int((total - self._base_len[touched]).sum()),
        )
        slots = segment_indices(self._offset[touched], total)
        block = self._pool[slots]
        if stats.deletions_dropped:
            block = block[block >= 0]
            slots = segment_indices(self._offset[touched], lengths)
        self._pool[slots] = _sort_runs(block, lengths, self.num_vertices)
        self._base_len[touched] = self._total_len[touched] = lengths
        self._marks[touched] = self._in_batch[touched] = 0
        self._touched = _EMPTY
        self._batch_open = False
        return stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grow_vertices(self, new_count: int, new_labels: dict[int, int] | None) -> None:
        old = self.num_vertices
        fresh = np.arange(old, new_count)
        self._bind(np.pad(self._tables, ((0, 0), (0, fresh.size))))
        cap = np.full(fresh.size, max(2, self._avg_degree), dtype=np.int64)
        self._move(fresh, cap, np.zeros_like(fresh))  # no window yet: nothing to carry
        grown_labels = np.zeros(new_count, dtype=np.int64)
        grown_labels[:old] = self._labels
        if new_labels:
            for v, lab in new_labels.items():
                if old <= v < new_count:
                    grown_labels[v] = lab
        self._labels = grown_labels

    # ------------------------------------------------------------------
    # conversions / oracles
    # ------------------------------------------------------------------
    def csr_new(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR export of the *current* (post-batch) adjacency.

        Returns ``(indptr, flat)``: ``flat[indptr[v]:indptr[v+1]]`` is the
        sorted post-batch neighbor list of ``v`` — one bulk read.
        """
        block, lengths = self.read(np.arange(self.num_vertices), False)
        return segment_offsets(lengths), block

    def edges_new_array(self) -> np.ndarray:
        """The undirected post-batch edge list (``v < w``) as an ``(m, 2)``
        array, source-major with ascending neighbors: the order of a
        per-vertex adjacency scan, written block by block
        (:meth:`read_blocks`), ``m`` half the degree sum."""
        out = np.empty((int(self._new_len.sum()) // 2, 2), dtype=VERTEX_DTYPE)
        at = 0
        for vertices, block, lengths in self.read_blocks(False):
            src = np.repeat(vertices, lengths)
            keep = src < block
            end = at + int(np.count_nonzero(keep))
            out[at:end, 0], out[at:end, 1] = src[keep], block[keep]
            at = end
        return out

    def snapshot(self) -> StaticGraph:
        """Materialize the *current* state as a :class:`StaticGraph`.

        With an open batch this is ``G_{k+1}`` (post-update); after
        :meth:`reorganize` (or before :meth:`apply_batch`) it is the settled
        snapshot.
        """
        return StaticGraph.from_edges(
            self.num_vertices, self.edges_new_array(), self._labels.copy()
        )

    def check_invariants(self) -> None:
        """Validate store invariants (used by property tests and the fuzzer),
        one pass over the slab, each failure naming its first vertex.

        Windows lie inside the pool and live non-empty ones do not overlap
        (an isolated vertex's empty window may share an offset); every base
        run (decoded) and every ΔN run is strictly sorted; the marks in a
        base run number ``marks[v]``; ΔN is disjoint from the surviving base
        run (a duplicate-insert corruption shows up here as a repeated
        neighbor); a closed batch has neither marks nor ΔN; the post-batch
        degrees (and their maximum) are exact; and ``num_edges`` is exact:
        half the sum of post-batch degrees.
        """
        n = self.num_vertices
        offset, cap, base, total = self._offset, self._cap, self._base_len, self._total_len
        _each((0 <= base) & (base <= total) & (total <= cap) & (0 <= offset)
              & (offset + cap <= self._tail) & (self._tail <= self._pool.size),
              "run lengths of {} out of bounds")
        held = np.flatnonzero(cap)  # an empty window holds nothing to overlap
        order = held[np.argsort(offset[held], kind="stable")]
        apart = np.ones(n, dtype=bool)
        apart[order[1:]] = (offset + cap)[order[:-1]] <= offset[order[1:]]
        _each(apart, "window of {} overlaps another live window")
        block = self._pool[segment_indices(offset, total)]
        owner = np.repeat(np.arange(n), total)
        in_base = np.arange(block.size) - np.repeat(segment_offsets(total)[:-1] + base, total) < 0
        marked = block < 0

        def lists(elements: np.ndarray) -> np.ndarray:
            return np.bincount(owner[elements], minlength=n) == 0

        value = _decode(block)
        unsorted = np.zeros(block.size, dtype=bool)  # against the entry before it in its run
        unsorted[1:] = (
            (owner[1:] == owner[:-1]) & (in_base[1:] == in_base[:-1]) & (value[1:] <= value[:-1])
        )
        _each(lists(unsorted & in_base), "base run of {} not strictly sorted")
        _each(np.bincount(owner[marked & in_base], minlength=n) == self._marks,
              "deletion-mark count of {} out of step with its base run")
        if not self._batch_open:
            _each(total == base, "closed batch but delta at {}")
            _each(lists(marked), "closed batch but deletion mark at {}")
        _each(lists((unsorted | marked) & ~in_base),  # a mark never sits in ΔN
              "delta run of {} not strictly sorted (duplicate insert?)")
        keys = owner * n + value
        dup = np.zeros(block.size, dtype=bool)
        dup[~in_base] = contains_sorted(keys[in_base & ~marked], keys[~in_base])
        _each(lists(dup), "delta run of {} duplicates base neighbors")
        _each(self._new_len == total - self._marks, "post-batch degree of {} out of step")
        _each(self._in_batch == np.bincount(self._touched, minlength=n), "touched flag of {} wrong")
        require(self._max_degree == int(self._new_len.max(initial=0)),
                f"max_degree={self._max_degree} is not the largest post-batch degree")
        degree_sum = int(total.sum()) - int(np.count_nonzero(marked))
        require(degree_sum == 2 * self._num_edges,
                f"num_edges={self._num_edges} inconsistent with adjacency "
                f"(degree sum {degree_sum})")

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"open_batch={self._batch_open}, touched={len(self._touched)})"
        )

