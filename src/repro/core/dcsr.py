"""Doubly Compressed Sparse Row cache buffer (paper Sec. V-B, Fig. 6).

The neighbor lists of the selected (frequent) vertices are packed into three
arrays and shipped to the GPU in **one** DMA transaction:

* ``rowidx``  — the selected vertex ids, sorted ascending (the kernel binary
  searches this array on every access to decide cache hit vs. zero-copy).
* ``colidx``  — the lists themselves, copied *as stored on the CPU after
  step 3*: the base run keeps its negative deletion marks and the appended
  (sorted) new neighbors follow it.
* ``rowptr``  — per selected vertex a pair ``(base_start, delta_start)``
  into ``colidx``; ``delta_start == -1`` when the vertex gained no new
  neighbors this batch.  A final sentinel entry carries ``len(colidx)`` so
  run lengths are recoverable (paper: "The last entry of rowptr indicates
  the length of colidx").

Because all three array sizes are known before copying, the buffer is
allocated contiguously and moved with a single DMA request — the design
point the paper calls out against per-list transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.utils import VERTEX_DTYPE, contains_sorted, require, segment_offsets

__all__ = ["DcsrCache", "packed_size_bytes", "probe_cost"]


def packed_size_bytes(list_length: int) -> int:
    """Buffer bytes one cached vertex costs: its colidx entries plus its
    rowidx entry and rowptr pair (all int32 on the device)."""
    return (list_length + 3) * BYTES_PER_NEIGHBOR


def probe_cost(num_cached):
    """Comparison count of one rowidx binary search over ``num_cached``
    rows (array-valued: a fleet prices each shard's directory at once)."""
    return np.maximum(1, np.ceil(np.log2(np.asarray(num_cached) + 1))).astype(np.int64)


@dataclass(frozen=True)
class DcsrCache:
    """Immutable packed cache; the cached view probes its ``rowidx``."""

    rowidx: np.ndarray  # (k,) sorted selected vertices
    rowptr: np.ndarray  # (k+1, 2) [base_start, delta_start|-1]; sentinel row
    colidx: np.ndarray  # packed neighbor data (marks + deltas preserved)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: DynamicGraph, vertices: np.ndarray) -> "DcsrCache":
        """Pack the current (mid-batch) lists of ``vertices`` (vectorized).

        ``vertices`` may arrive in any order; they are sorted and deduplicated
        (rowidx must support binary search).

        The paper's single-DMA packing (Sec. V-B) sizes the buffer first and
        then copies: ``rowptr`` comes from one prefix sum over the stored run
        lengths, and because each vertex's base and delta runs are adjacent
        in the store (:meth:`~repro.graphs.dynamic_graph.DynamicGraph.packed_runs`)
        ``colidx`` is a single gather from its pool — one bulk
        copy, no per-vertex Python bookkeeping.  Produces arrays bit-identical
        to :func:`repro.testing.oracles.build_reference` (enforced by
        ``tests/test_dcsr.py``).
        """
        verts = np.sort(np.asarray(vertices, dtype=VERTEX_DTYPE).ravel())
        if verts.size > 1:
            # already sorted, so dedup is one adjacent-difference mask
            # (np.unique would redo the sort / hash the values)
            keep = np.empty(verts.size, dtype=bool)
            keep[0] = True
            np.not_equal(verts[1:], verts[:-1], out=keep[1:])
            verts = verts[keep]
        if verts.size:
            require(
                bool(verts[0] >= 0 and verts[-1] < graph.num_vertices),
                "cache vertex out of range",
            )
        k = verts.size
        base_len, total_len, colidx = graph.packed_runs(verts)
        offsets = segment_offsets(total_len)
        rowptr = np.empty((k + 1, 2), dtype=np.int64)
        rowptr[:k, 0] = offsets[:k]
        rowptr[:k, 1] = np.where(total_len > base_len, offsets[:k] + base_len, -1)
        rowptr[k, 0] = offsets[k]
        rowptr[k, 1] = -1
        return cls(verts, rowptr, colidx)

    # ------------------------------------------------------------------
    @property
    def num_cached(self) -> int:
        return int(self.rowidx.shape[0])

    @property
    def total_bytes(self) -> int:
        """Device-buffer footprint (int32 entries, as in the paper's kernel)."""
        return int(
            self.rowidx.shape[0] * BYTES_PER_NEIGHBOR
            + self.rowptr.size * BYTES_PER_NEIGHBOR
            + self.colidx.shape[0] * BYTES_PER_NEIGHBOR
        )

    def lookup_block(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized hit test: boolean per vertex, True where cached.

        This is the probe the paper's kernel performs before every
        neighbor-list read (Sec. V-C), one ``searchsorted`` for the block; its
        *cost* is charged per access by the caller (:func:`probe_cost`).
        """
        return contains_sorted(self.rowidx, vertices)
