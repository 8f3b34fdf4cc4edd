"""Dynamic CPU-side graph store (paper Sec. V-A, Fig. 5).

The paper maintains the evolving data graph on the CPU as per-vertex
neighbor arrays with four update rules, each one whole-batch operation here:

1. **Insertions append.**  Both orientations of the batch's inserts are
   sorted by (source, neighbor), so each vertex's appended run ``ΔN(v)`` is
   written already sorted, in one piece; arrays are pre-allocated at 2x and
   doubled until the run fits, giving O(1) amortized insertion.
2. **New vertices** get an array sized to the average degree, and their
   host/device addresses are appended to ``pHost`` / ``pDevice``.
3. **Deletions mark in place.**  A deleted neighbor ``v`` is found by binary
   search in the sorted base run (one keyed search for the whole batch) and
   overwritten with a negative sentinel, ``-(v + 1)`` so vertex 0 is
   representable; the encoding is order-preserving under decode, so the base
   run stays logically sorted.  No delete targets a ``ΔN`` run: batches are
   netted against the store first and cannot open before reorganize.
4. **Reorganization** (step 5 of the pipeline, run *after* matching) stores
   every touched list's merged ``N'(v)`` as its one sorted base run.

Between steps 1 and 4 — i.e. exactly while the incremental matching kernel
runs — the store exposes the two adjacency versions of paper Fig. 2:

* ``N(v)``  — the *pre-batch* list: the base run with deletion marks decoded
  back to their original values (deleted edges existed before the batch).
* ``N'(v)`` — the *post-batch* list as two sorted runs: the base run with
  deletion marks skipped, plus the sorted appended run ``ΔN(v)``.  Keeping
  the two runs separate is what lets the matching kernel perform the
  ``N' = N ∪ ΔN`` split intersections described in Sec. V-C.

``host_address`` / ``device_address`` mirror the paper's ``pHost`` /
``pDevice`` indirection tables: synthetic addresses that the simulated GPU
zero-copy channel dereferences, so the reproduction exercises the same
data-path shape even without real pinned memory.

Run lengths live in three int64 tables (base length, stored length, deletion
marks in the base run), touched in O(|ΔE|) per batch; ``touched`` is the
sorted array of the open batch's distinct endpoints, the lists whose ``N``
and ``N'`` differ.  Everything read in bulk hangs off one :class:`_Epoch` per
store state — read-only versioned degree tables and a lazily filled CSR
*arena* of merged lists with rank keys (:meth:`DynamicGraph.gather`) —
dropped by ``apply_batch`` and ``reorganize``.  The store reads it too: "is
``(u, v)`` an edge, and at which slot" is a keyed probe of the settled arena
(:meth:`DynamicGraph.contains_edges`, the delete slots), and the ``N'``
``reorganize`` stores is the one the open arena already merged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import CanonicalReport, UpdateBatch
from repro.utils import VERTEX_DTYPE, require, segment_offsets

__all__ = [
    "rank_keys",
    "keyed_contains",
    "DynamicGraph",
    "FrozenDynamicGraph",
    "ReorganizeStats",
]

_EMPTY = np.empty(0, dtype=VERTEX_DTYPE)


def _decode(values: np.ndarray) -> np.ndarray:
    """Decode a base run: deletion marks ``-(v+1)`` back to ``v``."""
    out = values.copy()
    neg = out < 0
    if neg.any():
        out[neg] = -out[neg] - 1
    return out


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


def rank_keys(
    starts: np.ndarray, lengths: np.ndarray, values: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Rank keys of sorted segments laid end to end: element ``values[i]`` of
    the segment at offset ``start`` gets ``start * num_vertices + values[i]``.
    Offsets increase and values stay below ``num_vertices``, so the keys of
    the whole buffer are sorted."""
    return np.repeat(starts * num_vertices, lengths) + values


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
    pos = np.searchsorted(keys, probe)
    found = pos < starts + lengths
    found[found] = keys[pos[found]] == probe[found]
    return found


class _Epoch:
    """Bulk read-side state of one store state (settled, or one open batch).

    ``deg_old`` / ``deg_new`` are the versioned list lengths.  ``flat`` is the
    arena: merged versioned lists appended on first use, ``start_old[v]`` /
    ``start_new[v]`` their offsets (-1 until loaded).  Both pairs are the rows
    of one ``(2, n)`` table (``deg`` / ``start``, row 1 = OLD), so a gather
    mixing versions is one indexed read.  A vertex the open
    batch did not touch has one slot, shared by both versions, holding its
    stored run verbatim.  ``keys`` holds the :func:`rank_keys` of the arena,
    so ``keys[:used]`` is sorted and :func:`keyed_contains` probes any list
    with one ``searchsorted``.  ``flat[:used]`` / ``keys[:used]`` are
    never rewritten and growth copies them into the replacement buffers before
    publishing those, so a reference read after a :meth:`DynamicGraph.gather`
    covers every segment that gather (or an earlier one) returned, whichever
    thread grew it.

    Cheap to create (every mutation makes one); the O(n) tables are built by
    the first reader (``apply_batch`` probes the settled epoch).  ``lock``
    serialises that build and every load: fleet shards match one graph on
    worker threads, a pipelined reader shares its epoch with ``reorganize``.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.flat: np.ndarray | None = None  # None until :meth:`build`

    def build(self, base_len, total_len, marks, touched) -> None:
        n = base_len.size
        self.deg = _read_only(np.stack([total_len - marks, base_len]))
        self.deg_new, self.deg_old = self.deg
        self.touched = np.zeros(n, dtype=bool)
        self.touched[touched] = True
        self.start = np.full((2, n), -1, dtype=np.int64)
        self.start_new, self.start_old = self.start
        self.used = 0
        self.keys = np.empty(4096, dtype=np.int64)
        self.flat = np.empty(4096, dtype=VERTEX_DTYPE)


class DynamicGraph:
    """Mutable adjacency-list graph with the paper's update protocol."""

    def __init__(self, initial: StaticGraph) -> None:
        n = initial.num_vertices
        self._labels: np.ndarray = initial.labels.copy()
        self._arrays: list[np.ndarray] = []
        self._realloc_count = 0
        degs = initial.degrees()
        self._avg_degree = max(1, int(round(float(degs.mean())) if n else 1))
        for v in range(n):
            nbrs = initial.neighbors(v)
            cap = max(2, 2 * nbrs.size)
            arr = np.empty(cap, dtype=VERTEX_DTYPE)
            arr[: nbrs.size] = nbrs
            self._arrays.append(arr)
        # per-vertex run lengths: base run, base + appended run, and the
        # deletion marks inside the base run
        self._base_len: np.ndarray = degs.astype(np.int64)
        self._total_len: np.ndarray = self._base_len.copy()
        self._marks: np.ndarray = np.zeros(n, dtype=np.int64)
        self._epoch = _Epoch()
        # pHost / pDevice analogs: synthetic addresses into a flat pinned space.
        self.host_address = np.arange(n, dtype=np.int64)
        self.device_address = np.arange(n, dtype=np.int64)
        self._touched: np.ndarray = _EMPTY  # sorted; replaced, never written
        self._batch_open = False
        self._num_edges = initial.num_edges
        #: classification of the most recent :meth:`apply_batch` input
        self.last_canonical_report: CanonicalReport | None = None
        # copy-on-write freeze support (see :meth:`freeze`): while any
        # frozen view is live, the first in-place mutation of a vertex's
        # array since the latest freeze replaces it with a private copy so
        # frozen readers keep seeing the epoch they captured.
        self._active_freezes = 0
        self._freeze_serial = 0
        self._owner_serial: list[int] = [0] * n

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._arrays)

    @property
    def num_edges(self) -> int:
        """Undirected edge count of the *current* (post-batch) state."""
        return self._num_edges

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def realloc_count(self) -> int:
        """Number of capacity-doubling reallocations performed so far."""
        return self._realloc_count

    @property
    def batch_open(self) -> bool:
        """True between :meth:`apply_batch` and :meth:`reorganize`."""
        return self._batch_open

    @property
    def touched_vertices(self) -> set[int]:
        """Vertices whose lists were modified by the open batch."""
        return set(self._touched.tolist())

    def label(self, v: int) -> int:
        return int(self._labels[v])

    def degree_new(self, v: int) -> int:
        """Post-batch degree of ``v`` (deletions excluded, insertions included)."""
        return int(self._total_len[v] - self._marks[v])

    def degree_old(self, v: int) -> int:
        """Pre-batch degree of ``v`` (the base-run length)."""
        return int(self._base_len[v])

    def _epoch_state(self) -> _Epoch:
        """The current epoch with its tables built."""
        epoch = self._epoch
        with epoch.lock:
            if epoch.flat is None:
                epoch.build(self._base_len, self._total_len, self._marks, self._touched)
        return epoch

    def degrees_new(self) -> np.ndarray:
        """Post-batch degrees of every vertex: a read-only table, one per
        epoch (a later batch never changes a table already handed out)."""
        return self._epoch_state().deg_new

    def degrees_old(self) -> np.ndarray:
        """Pre-batch degrees of every vertex (read-only, one per epoch)."""
        return self._epoch_state().deg_old

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(self.degrees_new().max())

    # ------------------------------------------------------------------
    # Fig. 2 adjacency versions
    # ------------------------------------------------------------------
    def neighbors_old(self, v: int) -> np.ndarray:
        """``N(v)``: the sorted pre-batch neighbor list.

        Deletion marks are decoded back to their original vertex ids because
        the deleted edges were present before the batch; appended insertions
        are excluded.
        """
        base = self._arrays[v][: self._base_len[v]]
        return _decode(base) if self._marks[v] else base

    def neighbors_new_parts(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``N'(v)`` as its two sorted runs ``(base_kept, delta)``.

        ``base_kept`` is the base run with deletion marks skipped;
        ``delta`` is the sorted appended run ``ΔN(v)``.  The union of the two
        runs is exactly the post-batch adjacency of ``v``.
        """
        arr = self._arrays[v]
        base = arr[: self._base_len[v]]
        if self._marks[v]:
            base = base[base >= 0]
        delta = arr[self._base_len[v] : self._total_len[v]]
        return base, delta

    def neighbors_new(self, v: int) -> np.ndarray:
        """``N'(v)`` materialized as one sorted array (convenience/oracle)."""
        base, delta = self.neighbors_new_parts(v)
        if delta.size == 0:
            return base
        merged = np.empty(base.size + delta.size, dtype=VERTEX_DTYPE)
        merged[: base.size] = base
        merged[base.size :] = delta
        merged.sort()
        return merged

    def delta_neighbors(self, v: int) -> np.ndarray:
        """``ΔN(v)``: the sorted neighbors appended by the open batch."""
        return self._arrays[v][self._base_len[v] : self._total_len[v]]

    def base_run_raw(self, v: int) -> np.ndarray:
        """The base run *with* deletion marks (``-(w+1)`` entries) intact.

        This is exactly the byte layout the paper copies into the DCSR
        ``colidx`` array for an updated list ("the deleted neighbors are
        marked, and the new neighbors are appended", Sec. V-B).
        """
        return self._arrays[v][: self._base_len[v]]

    def packed_run_raw(self, v: int) -> np.ndarray:
        """Both stored runs of ``v`` as one contiguous view.

        The base run (marks intact) and the appended delta run are adjacent
        in the backing array, so the full DCSR payload of a vertex is a
        single zero-copy slice — what bulk cache packing copies per vertex.
        """
        return self._arrays[v][: self._total_len[v]]

    def run_lengths(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(base_len, total_len)`` of the stored runs of ``vertices``."""
        return self._base_len[vertices], self._total_len[vertices]

    def packed_runs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """``(base_len, total_len, views)`` for bulk packing of ``vertices``.

        ``views`` are zero-copy :meth:`packed_run_raw` slices; the loop binds
        the stores to locals so per-vertex cost is one list index and one
        slice — the Python-side floor for a list-of-arrays store.
        """
        base_len, total_len = self.run_lengths(vertices)
        arrays = self._arrays
        views = [
            arrays[v][:t] for v, t in zip(vertices.tolist(), total_len.tolist())
        ]
        return base_len, total_len, views

    def contains_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Whether each ``(us[i], vs[i])`` (endpoints in range) is an edge of
        the current (post-batch) state: one keyed probe of the arena."""
        starts, lengths = self.gather(us, old=False)
        return keyed_contains(self.arena_keys, self.num_vertices, starts, lengths, vs)

    def has_edge_new(self, u: int, v: int) -> bool:
        """:meth:`contains_edges` for one edge."""
        return bool(self.contains_edges(np.array([u]), np.array([v]))[0])

    # ------------------------------------------------------------------
    # the epoch arena (what the join kernels read)
    # ------------------------------------------------------------------
    def gather(
        self, vertices: np.ndarray, old: bool | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` of the merged lists of ``vertices`` inside
        :attr:`arena`, loading the ones not there yet.  ``old`` picks ``N``
        (true) or ``N'`` per element; a scalar applies to all of them.

        Read :attr:`arena` / :attr:`arena_keys` *after* the last gather whose
        segments they must cover (see :class:`_Epoch`).  No traffic is charged
        here: callers record every access themselves.
        """
        epoch = self._epoch_state()
        with epoch.lock:
            version = np.asarray(old, dtype=np.intp)  # the tables' row: 1 = OLD
            starts = epoch.start[version, vertices]
            if starts.size and starts.min() < 0:
                for row in (1, 0):
                    need = vertices[(starts < 0) & (version == row)]
                    # retested: the OLD load also placed the shared slots of
                    # the untouched vertices, which serve NEW
                    need = need[epoch.start[row, need] < 0]
                    if need.size:
                        self._load(epoch, np.unique(need), bool(row))
                starts = epoch.start[version, vertices]
        return starts, epoch.deg[version, vertices]

    @property
    def arena(self) -> np.ndarray:
        """The flat buffer :meth:`gather` offsets point into."""
        return self._epoch_state().flat

    @property
    def arena_keys(self) -> np.ndarray:
        """The :func:`rank_keys` of the filled arena, for
        :func:`keyed_contains` probes of the lists :meth:`gather` returned."""
        epoch = self._epoch_state()
        with epoch.lock:
            return epoch.keys[: epoch.used]

    def _load(self, epoch: _Epoch, vertices: np.ndarray, old: bool) -> None:
        """Append the lists of the distinct ``vertices`` to the arena (caller
        holds ``epoch.lock``).  Offsets are published only once the bytes are
        in place; lists come from *this* graph's arrays, so a frozen view that
        adopted the epoch never dereferences the live store."""
        touched = epoch.touched[vertices]
        stored = epoch.deg_old[vertices]
        arrays = self._arrays
        merged = self.neighbors_old if old else self.neighbors_new
        chunks = [
            merged(v) if hit else arrays[v][:size]
            for v, size, hit in zip(vertices.tolist(), stored.tolist(), touched.tolist())
        ]
        lengths = stored if old else epoch.deg_new[vertices]
        used = epoch.used
        offsets = used + segment_offsets(lengths)
        end = int(offsets[-1])
        require(
            end * self.num_vertices < 2**62,
            f"arena of {end} elements over {self.num_vertices} vertices "
            "overflows the int64 rank keys (segment_start * num_vertices + value)",
        )
        if end > epoch.flat.size:
            size = max(end, 2 * epoch.flat.size)
            flat = np.empty(size, dtype=VERTEX_DTYPE)
            keys = np.empty(size, dtype=np.int64)
            flat[:used] = epoch.flat[:used]
            keys[:used] = epoch.keys[:used]
            epoch.flat, epoch.keys = flat, keys
        np.concatenate(chunks, out=epoch.flat[used:end])
        epoch.keys[used:end] = rank_keys(
            offsets[:-1], lengths, epoch.flat[used:end], self.num_vertices
        )
        epoch.used = end
        (epoch.start_old if old else epoch.start_new)[vertices] = offsets[:-1]
        # untouched: no marks, no ΔN — N and N' are the one stored run
        shared = vertices[~touched]
        (epoch.start_new if old else epoch.start_old)[shared] = offsets[:-1][~touched]

    # ------------------------------------------------------------------
    # copy-on-write freeze (pipelined execution support)
    # ------------------------------------------------------------------
    def freeze(self) -> "FrozenDynamicGraph":
        """Capture an immutable logical view of the current store state.

        The frozen view shares the per-vertex arrays with the live store;
        any later in-place mutation (deletion marks, ΔN appends,
        reorganize write-backs) first replaces the affected array with a private
        copy, so the view keeps reading the exact epoch it captured — at the
        cost of copying only the lists the subsequent batches actually
        touch.  This is what lets the pipelined engine run the matching
        kernel of batch *k* on a worker thread while the host reorganizes
        batch *k* and applies batch *k+1* (the software analog of the
        double-buffered pinned arrays a real host-device pipeline uses).

        Call :meth:`FrozenDynamicGraph.release` (or use the view as a
        context manager) once the reader is done, so the store can drop the
        copy-on-write guard and return to zero-overhead mutation.
        """
        self._freeze_serial += 1
        self._active_freezes += 1
        return FrozenDynamicGraph(self)

    def _release_freeze(self) -> None:
        require(self._active_freezes > 0, "no active freeze to release")
        self._active_freezes -= 1

    def _cow(self, v: int) -> np.ndarray:
        """Make ``v``'s array private to the live store if a freeze holds a
        reference to it; returns the (possibly replaced) array."""
        if self._active_freezes and self._owner_serial[v] < self._freeze_serial:
            self._arrays[v] = self._arrays[v].copy()
            self._owner_serial[v] = self._freeze_serial
        return self._arrays[v]

    # ------------------------------------------------------------------
    # update protocol
    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch, mode: str = "strict") -> UpdateBatch:
        """Step 1 of the pipeline: fold ``ΔE`` into the store.

        The batch is first canonicalized against the current store
        (:meth:`~repro.graphs.stream.UpdateBatch.canonicalize`), so arbitrary
        real-world streams — duplicate inserts, phantom deletes, same-batch
        churn pairs — are either rejected up front with a batch-level
        diagnostic (``mode="strict"``, the default for the raw store) or
        netted to their exact effect (``"coalesce"`` / ``"ignore"``) before
        any mutation.  Returns the *effective* batch, which callers running
        the incremental matcher must use for root generation so ΔM equals
        the true state difference.

        Both orientations of the effective batch are placed at once: each
        directed update gets its slot in its source's array — a delete the
        base entry it marks (its position in the settled arena), an insert
        its rank in the sorted ``ΔN`` run — and each touched vertex takes one
        write.  Every check that can reject the batch precedes the first
        write.  The batch stays "open" — :meth:`reorganize` must be called
        after matching.
        """
        require(not self._batch_open, "previous batch not reorganized yet")
        effective, report = batch.canonicalize(self, mode=mode)
        self.last_canonical_report = report
        edges, signs = effective.directed_updates()
        # per source vertex: its deletes, then its inserts, each ascending
        order = np.lexsort((edges[:, 1], signs, edges[:, 0]))
        src, dst, deleted = edges[order, 0], edges[order, 1], signs[order] < 0
        # a settled list's arena slot is its stored base run verbatim, so the
        # keyed search's offset into the slot is the array index to mark
        starts, _ = self.gather(src[deleted], old=False)
        probe = starts * self.num_vertices + dst[deleted]
        marked = np.searchsorted(self.arena_keys, probe) - starts

        self._epoch = _Epoch()  # before the first mutation: also dropped if one raises
        self._batch_open = True
        grown = effective.max_vertex() + 1
        if grown > self.num_vertices:
            self._grow_vertices(grown, effective.new_vertex_labels)
        np.add.at(self._marks, src[deleted], 1)
        np.add.at(self._total_len, src[~deleted], 1)
        self._touched, first = np.unique(src, return_index=True)
        bounds = np.append(first, src.size)
        # an insert lands after the base run, at its rank among its source's inserts
        run_start = np.repeat(first + self._marks[self._touched], np.diff(bounds))
        slot = self._base_len[src] + np.arange(src.size) - run_start
        slot[deleted] = marked
        value = np.where(deleted, -(dst + 1), dst)  # the deletion mark of v is -(v+1)
        for v, lo, hi, need in zip(
            self._touched.tolist(), first.tolist(), bounds[1:].tolist(),
            self._total_len[self._touched].tolist(),
        ):
            fits = need <= self._arrays[v].size
            arr = self._cow(v) if fits else self._reallocate(v, need)
            arr[slot[lo:hi]] = value[lo:hi]
        self._num_edges += int(effective.signs.sum())  # inserts minus deletes
        return effective

    def reorganize(self) -> ReorganizeStats:
        """Step 5 of the pipeline: restore the sorted invariant.

        Every touched list is replaced by its ``N'`` as the open epoch's
        arena holds it (:meth:`gather` — merged once per batch, where the
        kernels read it; :func:`repro.testing.oracles.merge_runs_reference`
        is the scalar oracle) and the batch is closed; the work accounting
        is four sums over the length tables.
        """
        require(self._batch_open, "no open batch to reorganize")
        touched = self._touched
        starts, lengths = self.gather(touched, old=False)
        flat = self.arena
        stats = ReorganizeStats(
            lists_touched=int(touched.size),
            merged_elements=int(lengths.sum()),
            deletions_dropped=int(self._marks[touched].sum()),
            insertions_merged=int((self._total_len[touched] - self._base_len[touched]).sum()),
        )
        for v, lo, hi in zip(touched.tolist(), starts.tolist(), (starts + lengths).tolist()):
            self._cow(v)[: hi - lo] = flat[lo:hi]  # frozen kernels keep the old layout
        self._base_len[touched] = self._total_len[touched] = lengths
        self._marks[touched] = 0
        self._epoch = _Epoch()
        self._touched = _EMPTY
        self._batch_open = False
        return stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grow_vertices(self, new_count: int, new_labels: dict[int, int] | None) -> None:
        old = self.num_vertices
        for v in range(old, new_count):
            cap = max(2, self._avg_degree)
            self._arrays.append(np.empty(cap, dtype=VERTEX_DTYPE))
            # fresh arrays are private: no frozen view references them
            self._owner_serial.append(self._freeze_serial)
        zeros = np.zeros(new_count - old, dtype=np.int64)
        self._base_len = np.concatenate([self._base_len, zeros])
        self._total_len = np.concatenate([self._total_len, zeros])
        self._marks = np.concatenate([self._marks, zeros])
        grown_labels = np.zeros(new_count, dtype=np.int64)
        grown_labels[:old] = self._labels
        if new_labels:
            for v, lab in new_labels.items():
                if old <= v < new_count:
                    grown_labels[v] = lab
        self._labels = grown_labels
        addr = np.arange(new_count, dtype=np.int64)
        addr[:old] = self.host_address
        self.host_address = addr
        self.device_address = addr.copy()

    def _reallocate(self, v: int, need: int) -> np.ndarray:
        """Replace ``v``'s array by one doubled until ``need`` entries fit."""
        old = self._arrays[v]
        cap = max(1, old.size)
        while cap < need:
            cap *= 2
        arr = np.empty(cap, dtype=VERTEX_DTYPE)
        arr[: self._base_len[v]] = old[: self._base_len[v]]
        self._arrays[v] = arr
        self._owner_serial[v] = self._freeze_serial  # replacement is private
        self._realloc_count += 1
        return arr

    # ------------------------------------------------------------------
    # conversions / oracles
    # ------------------------------------------------------------------
    def csr_new(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR export of the *current* (post-batch) adjacency.

        Returns ``(indptr, flat)``: ``flat[indptr[v]:indptr[v+1]]`` is the
        sorted post-batch neighbor list of ``v``.  Untouched vertices
        contribute zero-copy views of their stored base run, so the export
        costs one concatenation rather than a Python loop per edge.
        """
        n = self.num_vertices
        chunks = [self.neighbors_new(v) for v in range(n)]
        flat = np.concatenate(chunks) if n else _EMPTY.copy()
        return segment_offsets(self._total_len - self._marks), flat

    def edges_new_array(self) -> np.ndarray:
        """Undirected post-batch edge list as an ``(m, 2)`` array.

        Each edge appears once with ``v < w``, enumerated source-major with
        ascending neighbors — the exact order of a per-vertex adjacency scan.
        """
        indptr, flat = self.csr_new()
        src = np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), np.diff(indptr)
        )
        keep = src < flat
        return np.stack([src[keep], flat[keep]], axis=1).astype(VERTEX_DTYPE, copy=False)

    def edges_old_array(self) -> np.ndarray:
        """Undirected pre-batch edge list (``v < w``), requires an open batch."""
        require(self._batch_open, "edges_old_array requires an open batch")
        n = self.num_vertices
        chunks = [self.neighbors_old(v) for v in range(n)]
        flat = np.concatenate(chunks) if n else _EMPTY.copy()
        src = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), self._base_len)
        keep = src < flat
        return np.stack([src[keep], flat[keep]], axis=1).astype(VERTEX_DTYPE, copy=False)

    def snapshot(self) -> StaticGraph:
        """Materialize the *current* state as a :class:`StaticGraph`.

        With an open batch this is ``G_{k+1}`` (post-update); after
        :meth:`reorganize` (or before :meth:`apply_batch`) it is the settled
        snapshot.
        """
        return StaticGraph.from_edges(
            self.num_vertices, self.edges_new_array(), self._labels.copy()
        )

    def snapshot_old(self) -> StaticGraph:
        """Materialize the pre-batch state ``G_k`` (requires an open batch)."""
        return StaticGraph.from_edges(
            self.num_vertices, self.edges_old_array(), self._labels.copy()
        )

    def check_invariants(self) -> None:
        """Validate store invariants (used by property tests and the fuzzer).

        Beyond the original sorted-run checks this validates that every ΔN
        run is strictly sorted and disjoint from the surviving base run (a
        duplicate-insert corruption shows up here as a repeated neighbor),
        and that ``num_edges`` is exact: half the sum of post-batch degrees.
        """
        degree_sum = 0
        for v in range(self.num_vertices):
            require(self._base_len[v] <= self._total_len[v] <= self._arrays[v].size,
                    f"run lengths of {v} out of bounds")
            base = self._arrays[v][: self._base_len[v]]
            decoded = _decode(base)
            require(bool(np.all(decoded[1:] > decoded[:-1])) if decoded.size > 1 else True,
                    f"base run of {v} not strictly sorted")
            delta = self._arrays[v][self._base_len[v] : self._total_len[v]]
            kept = base[base >= 0]
            require(base.size - kept.size == self._marks[v],
                    f"deletion-mark count of {v} out of step with its base run")
            degree_sum += int(kept.size + delta.size)
            if not self._batch_open:
                require(delta.size == 0, f"closed batch but delta at {v}")
                require(bool(base.size == 0 or base.min() >= 0),
                        f"closed batch but deletion mark at {v}")
            else:
                require(bool(np.all(delta[1:] > delta[:-1])) if delta.size > 1 else True,
                        f"delta run of {v} not strictly sorted (duplicate insert?)")
                if delta.size and kept.size:
                    pos = np.searchsorted(kept, delta)
                    dup = (pos < kept.size) & (kept[np.minimum(pos, kept.size - 1)] == delta)
                    require(not bool(dup.any()),
                            f"delta run of {v} duplicates base neighbors")
        require(degree_sum == 2 * self._num_edges,
                f"num_edges={self._num_edges} inconsistent with adjacency "
                f"(degree sum {degree_sum})")

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"open_batch={self._batch_open}, touched={len(self._touched)})"
        )


class FrozenDynamicGraph(DynamicGraph):
    """Immutable logical snapshot of a :class:`DynamicGraph` epoch.

    Created by :meth:`DynamicGraph.freeze`.  Shares the parent's per-vertex
    arrays (zero copies at capture time) and relies on the parent's
    copy-on-write guard to keep every shared array byte-stable: the parent
    replaces an array with a private copy before its first post-freeze
    mutation, so reads through this view always see the captured epoch.

    Every read-side accessor of :class:`DynamicGraph` (``neighbors_old`` /
    ``neighbors_new_parts`` / ``packed_runs`` / ``snapshot`` / ...) works
    unchanged because the view carries its own copies of the length tables
    and batch bookkeeping.  Mutators (:meth:`apply_batch`,
    :meth:`reorganize`, :meth:`freeze`) are blocked.
    """

    def __init__(self, parent: DynamicGraph) -> None:
        # Deliberately does NOT chain to DynamicGraph.__init__: the view
        # aliases the parent's arrays instead of building fresh ones.
        self._parent = parent
        self._released = False
        self._labels = parent._labels
        self._arrays = list(parent._arrays)  # shallow: shares the ndarrays
        self._base_len = parent._base_len.copy()
        self._total_len = parent._total_len.copy()
        self._marks = parent._marks.copy()
        # same store state, so the arena the estimator filled serves the
        # kernel too; loads go through this view's own (COW-stable) arrays
        self._epoch = parent._epoch
        self._realloc_count = parent._realloc_count
        self._avg_degree = parent._avg_degree
        self.host_address = parent.host_address
        self.device_address = parent.device_address
        self._touched = parent._touched
        self._batch_open = parent._batch_open
        self._num_edges = parent._num_edges
        self.last_canonical_report = parent.last_canonical_report
        # the view itself never mutates, so its own COW machinery is inert
        self._active_freezes = 0
        self._freeze_serial = 0
        self._owner_serial = []

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the parent's copy-on-write guard for this view (idempotent)."""
        if not self._released:
            self._released = True
            self._parent._release_freeze()

    def __enter__(self) -> "FrozenDynamicGraph":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    # -- mutators are blocked ------------------------------------------
    def apply_batch(self, batch: UpdateBatch, mode: str = "strict") -> UpdateBatch:
        require(False, "frozen view is immutable (apply_batch)")
        raise AssertionError  # pragma: no cover - require always raises

    def reorganize(self) -> ReorganizeStats:
        require(False, "frozen view is immutable (reorganize)")
        raise AssertionError  # pragma: no cover - require always raises

    def freeze(self) -> "FrozenDynamicGraph":
        require(False, "cannot freeze a frozen view; freeze the live store")
        raise AssertionError  # pragma: no cover - require always raises

    def __repr__(self) -> str:
        return (
            f"FrozenDynamicGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"open_batch={self._batch_open}, released={self._released})"
        )
