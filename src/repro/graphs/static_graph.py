"""Immutable CSR graph with vertex labels.

``StaticGraph`` is the exchange format of the library: generators produce it,
the stream deriver consumes it to build the initial snapshot ``G_0`` plus the
update sequence, and the reference matcher runs directly on it.  The dynamic
store (:mod:`repro.graphs.dynamic_graph`) is initialized from a
``StaticGraph`` and can be converted back for oracle comparisons.

Graphs are simple (no self loops, no parallel edges), undirected, and carry an
integer label per vertex — matching the paper's ``G = (V, E, L)`` definition
(Sec. II-A).  Adjacency is stored CSR-style with each neighbor run sorted
ascending, which is what both the WCOJ set intersections and the binary-search
deletion marking rely on.

An *edge set* is one sorted int64 array of :func:`repro.utils.edge_keys`
(``lo * n + hi``): construction dedupes with it.
``without_edges`` masks the CSR itself: each removed edge's two directed
entries are found by a binary search in their rows' runs and dropped.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.utils import (
    VERTEX_DTYPE, as_vertex_ids, edge_keys, require, sorted_unique,
)

__all__ = ["StaticGraph"]


class StaticGraph:
    """Compressed-sparse-row undirected labeled graph.

    Parameters
    ----------
    indptr:
        ``int64[n+1]`` CSR row pointer.
    indices:
        ``int64[2m]`` concatenated sorted neighbor lists.
    labels:
        ``int64[n]`` vertex labels.  Defaults to all-zero labels.
    """

    __slots__ = ("indptr", "indices", "labels", "_num_edges")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = as_vertex_ids(indices)
        n = self.indptr.shape[0] - 1
        if labels is None:
            labels = np.zeros(n, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.size and self.labels.min() < 0:
            v = int(self.labels.argmin())
            raise ValueError(f"vertex {v} has label {int(self.labels[v])}: vertex labels "
                             f"must be >= 0 (-1 is the query wildcard)")
        self._num_edges = int(self.indices.shape[0]) // 2
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray | Sequence[tuple[int, int]],
        labels: np.ndarray | None = None,
    ) -> "StaticGraph":
        """Build from an ``(m, 2)`` edge array; duplicates/self-loops dropped.

        Each undirected edge is stored in both adjacency directions.  An
        int64 ``edges`` is read in place, copied only to drop self loops.
        """
        edge_arr = as_vertex_ids(edges).reshape(-1, 2)
        loops = edge_arr[:, 0] == edge_arr[:, 1]
        if loops.any():
            edge_arr = edge_arr[~loops]
        require(
            bool(edge_arr.size == 0 or (edge_arr.min() >= 0 and edge_arr.max() < num_vertices)),
            "edge endpoint out of range",
        )
        keys = sorted_unique(edge_keys(edge_arr[:, 0], edge_arr[:, 1], num_vertices))
        return cls._from_edge_keys(num_vertices, keys, labels)

    @classmethod
    def _from_edge_keys(
        cls, num_vertices: int, keys: np.ndarray, labels: np.ndarray | None
    ) -> "StaticGraph":
        """CSR of the edge set ``keys`` (sorted, distinct), built in the one
        ``2m`` buffer that becomes ``indices``: both orientations written as
        directed ``src * n + dst`` keys, one sort in place, the row pointer
        found by a binary search per row, the keys decoded in place."""
        if keys.size == 0:  # also the zero-vertex graph, which has no key base
            return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                       np.empty(0, dtype=VERTEX_DTYPE), labels)
        n, m = num_vertices, keys.size
        directed = np.empty(2 * m, dtype=VERTEX_DTYPE)
        forward, flipped = directed[:m], directed[m:]
        # the flipped half is lo, then hi * n + lo; the forward half is its
        # scratch (lo * n, hi, hi * n) until it takes the keys themselves
        np.floor_divide(keys, n, out=flipped)
        np.multiply(flipped, n, out=forward)
        np.subtract(keys, forward, out=forward)
        forward *= n
        flipped += forward
        forward[:] = keys
        directed.sort()
        indptr = directed.searchsorted(np.arange(n + 1) * n)
        np.remainder(directed, n, out=directed)
        return cls(indptr, directed, labels)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.indptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def degrees(self) -> np.ndarray:
        """``int64[n]`` degree vector."""
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor view (no copy) of vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def _row_ids(self) -> np.ndarray:
        """The source vertex of every entry of ``indices``, in the narrowest
        unsigned dtype that holds ``n - 1`` (two bytes an entry up to 65 536
        vertices), not an int64 the size of ``indices``."""
        n = self.num_vertices
        return np.repeat(np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0))), self.degrees())

    def label(self, v: int) -> int:
        return int(self.labels[v])

    def edge_array(self) -> np.ndarray:
        """Return the ``(m, 2)`` canonical (u < v) edge array."""
        rows = self._row_ids()
        upper = rows < self.indices
        edges = np.empty((int(np.count_nonzero(upper)), 2), dtype=VERTEX_DTYPE)
        edges[:, 0] = rows[upper]
        edges[:, 1] = self.indices[upper]
        return edges

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the adjacency structure.

        Used for the Table I "Size" column analog: 4 bytes per stored
        directed neighbor entry plus the row-pointer array — the same
        accounting the paper's C++/CUDA implementation would report for its
        ``int32`` neighbor lists.
        """
        return int(self.indices.shape[0]) * 4 + (self.num_vertices + 1) * 8

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def without_edges(self, edges: np.ndarray) -> "StaticGraph":
        """Copy of the graph with the given undirected edges removed: one mask
        over the CSR, no rebuild.  The two directed entries of each removed
        edge are found by one probe of the CSR and cleared, the kept entries
        compressed and ``indptr`` recounted."""
        edge_arr = as_vertex_ids(edges).reshape(-1, 2)
        n = self.num_vertices
        # an endpoint outside the graph names no edge, and its key would alias one
        edge_arr = edge_arr[(edge_arr.min(axis=1) >= 0) & (edge_arr.max(axis=1) < n)]
        lo, hi = np.divmod(sorted_unique(edge_keys(edge_arr[:, 0], edge_arr[:, 1], n)), n)
        rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        at = self._entries(rows, cols)
        found = at >= 0
        keep = np.ones(self.indices.size, dtype=bool)
        keep[at[found]] = False
        indptr = self.indptr.copy()
        indptr[1:] -= np.bincount(rows[found], minlength=n).cumsum()
        return StaticGraph(indptr, self.indices[keep], self.labels.copy(), validate=False)

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Where each directed entry ``(rows[i], cols[i])`` sits in ``indices``,
        ``-1`` if absent: the CSR's directed keys ``row * n + col`` are sorted,
        so one binary search probes them, run by run without materialising
        them — every query takes its step at once, the few probe the many."""
        lo, end = self.indptr[rows], self.indptr[rows + 1]
        hi = end.copy()
        live = np.flatnonzero(lo < hi)
        while live.size:
            mid = (lo[live] + hi[live]) >> 1
            right = self.indices[mid] < cols[live]
            lo[live[right]] = mid[right] + 1
            hi[live[~right]] = mid[~right]
            live = live[lo[live] < hi[live]]
        hit = lo < end
        hit[hit] = self.indices[lo[hit]] == cols[hit]
        return np.where(hit, lo, -1)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        require(self.indptr.ndim == 1 and self.indptr.size >= 1, "bad indptr")
        require(bool(self.indptr[0] == 0), "indptr must start at 0")
        require(bool(np.all(np.diff(self.indptr) >= 0)), "indptr must be monotone")
        require(int(self.indptr[-1]) == int(self.indices.shape[0]), "indptr/indices mismatch")
        require(self.labels.shape[0] == self.num_vertices, "labels length mismatch")
        if self.indices.size == 0:
            return
        require(
            bool(self.indices.min() >= 0 and self.indices.max() < self.num_vertices),
            "neighbor out of range",
        )

        indptr, indices = self.indptr, self.indices
        starts = indptr[1:-1]
        starts = starts[starts < indices.size]  # entries that open a run
        bad = np.zeros(indices.size, dtype=bool)  # per entry, shared by the checks

        def check(what: str) -> None:
            if bad.any():
                row = indptr.searchsorted(bad.argmax(), side="right") - 1
                raise ValueError(what.format(int(row)))

        # each entry against the one before it, unless it opens a run: the
        # next run may start anywhere
        np.less(indices[1:], indices[:-1], out=bad[1:])
        bad[starts] = False
        check("neighbors of {} not sorted")
        np.equal(indices[1:], indices[:-1], out=bad[1:])
        bad[starts] = False
        check("duplicate neighbor at {}")
        np.equal(indices, self._row_ids(), out=bad)
        check("self loop at {}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.labels, other.labels)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"StaticGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"max_deg={self.max_degree()}, labels={int(self.labels.max(initial=0)) + 1})"
        )
