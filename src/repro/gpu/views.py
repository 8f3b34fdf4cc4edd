"""Device graph views: where the matching kernel's reads are served from.

The executor (:mod:`repro.core.matching`) is backend-agnostic: every
neighbor-list access goes through a :class:`GraphView`, which returns the
requested runs *and* records the traffic on the channel that system would
use.  The four views here model the paper's baselines:

* :class:`HostCPUView`   — CPU baselines: everything is a host DRAM read.
* :class:`ZeroCopyView`  — the ZC baseline: every access crosses PCIe in
  128 B cache lines.
* :class:`UnifiedMemoryView` — the UM baseline: page-granular migration
  through an LRU page cache; cold pages fault.
* :class:`FullDeviceView` — the VSGM baseline: data was bulk-copied to the
  GPU beforehand, so accesses are global-memory reads (the upload itself is
  charged by the caller through :class:`~repro.gpu.transfer.DmaEngine`).

GCSM's cached view (DCSR cache + zero-copy fallback) lives with the cache
logic in :mod:`repro.core.cache`.

The returned arrays follow the Fig. 2 version semantics of
:class:`~repro.query.plan.EdgeVersion`: ``OLD`` yields the single sorted
pre-batch run, ``NEW``/``CURRENT`` yield the (base-kept, delta) pair of
sorted runs whose union is the post-batch list.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.gpu.memory import HostMemoryLayout, UnifiedMemoryPager
from repro.query.plan import EdgeVersion
from repro.utils import contains_sorted

__all__ = [
    "GraphView",
    "HostCPUView",
    "ZeroCopyView",
    "UnifiedMemoryView",
    "FullDeviceView",
]

_EMPTY = np.empty(0, dtype=np.int64)


class GraphView(ABC):
    """Backend-routing wrapper around the dynamic graph.

    ``fetch(v, version)`` returns a tuple of sorted runs whose union is the
    requested adjacency version of ``v``, recording the access.
    """

    #: which platform prices this view's counters (see clock.simulated_time_ns)
    platform: str = "gpu"

    def __init__(self, graph: DynamicGraph, device: DeviceConfig,
                 counters: AccessCounters) -> None:
        self.graph = graph
        self.device = device
        self.counters = counters

    # -- data plumbing ---------------------------------------------------
    def _runs(self, v: int, version: EdgeVersion) -> tuple[np.ndarray, ...]:
        if version is EdgeVersion.OLD:
            return (self.graph.neighbors_old(v),)
        base, delta = self.graph.neighbors_new_parts(v)
        if delta.size:
            return (base, delta)
        return (base,)

    @staticmethod
    def _nbytes(runs: tuple[np.ndarray, ...]) -> int:
        return sum(r.size for r in runs) * BYTES_PER_NEIGHBOR

    # -- public API --------------------------------------------------------
    def fetch(self, v: int, version: EdgeVersion) -> tuple[np.ndarray, ...]:
        runs = self._runs(v, version)
        self._record(v, self._nbytes(runs))
        return runs

    def degree_bound(self, v: int, version: EdgeVersion) -> int:
        """Length of the versioned list *without* charging an access (the
        kernel knows list lengths from its offset arrays)."""
        if version is EdgeVersion.OLD:
            return self.graph.degree_old(v)
        return self.graph.degree_new(v)

    def fetch_block(self, vertices: np.ndarray, lengths: np.ndarray) -> None:
        """Record one neighbor-list access per element of ``vertices``, each
        reading a list of the paired length, in array order.

        Counter-equivalent to calling :meth:`fetch` once per element (the
        returned runs discarded); subclasses override with vectorized
        recording where their channel model is order-insensitive.  The base
        implementation replays the accesses one by one, so a stateful view
        (the UM pager) sees exactly the sequence it is handed.
        """
        nbytes = lengths * BYTES_PER_NEIGHBOR
        for v, b in zip(vertices.tolist(), nbytes.tolist()):
            self._record(v, b)

    @abstractmethod
    def _record(self, v: int, nbytes: int) -> None:
        """Charge ``nbytes`` of neighbor-list traffic for vertex ``v``."""


class HostCPUView(GraphView):
    """CPU execution: neighbor lists stream from host DRAM."""

    platform = "cpu"

    def _record(self, v: int, nbytes: int) -> None:
        self.counters.record_access(Channel.CPU_DRAM, v, nbytes)

    def fetch_block(self, vertices: np.ndarray, lengths: np.ndarray) -> None:
        self.counters.record_access_block(
            Channel.CPU_DRAM, vertices, lengths * BYTES_PER_NEIGHBOR
        )


class ZeroCopyView(GraphView):
    """The ZC baseline: all lists pinned on the host, read over PCIe."""

    def _record(self, v: int, nbytes: int) -> None:
        lines = self.device.zero_copy_lines(nbytes)
        self.counters.record_access(Channel.ZERO_COPY, v, nbytes, transactions=lines)

    def fetch_block(self, vertices: np.ndarray, lengths: np.ndarray) -> None:
        nbytes = lengths * BYTES_PER_NEIGHBOR
        # elementwise analog of device.zero_copy_lines (ceil division, 0 for 0)
        lines = -(-nbytes // self.device.zero_copy_line_bytes)
        self.counters.record_access_block(
            Channel.ZERO_COPY, vertices, nbytes, transactions=lines
        )


class UnifiedMemoryView(GraphView):
    """The UM baseline: managed memory with demand paging.

    The pager persists across fetches within a batch (pages stay resident
    between kernel accesses) and is reset per batch by default, matching a
    fresh kernel launch with cold device caches.

    This view keeps the base class's loop-based :meth:`fetch_block`: the LRU
    pager is access-order sensitive, so a block is replayed access by access
    in the order it is handed over — the matcher's settle order, see
    ``docs/kernel.md``.  (Absent eviction pressure the fault/hit totals are
    order-independent.)
    """

    def __init__(self, graph: DynamicGraph, device: DeviceConfig,
                 counters: AccessCounters) -> None:
        super().__init__(graph, device, counters)
        # every list at its stored length, appended run included
        _, stored = graph.run_lengths(np.arange(graph.num_vertices))
        self.layout = HostMemoryLayout(stored)
        self.pager = UnifiedMemoryPager(device)

    def _record(self, v: int, nbytes: int) -> None:
        pages = self.layout.pages_for(v, nbytes, self.device.um_page_bytes)
        hits, faults = self.pager.access(pages)
        self.counters.record_um_hit(hits)
        self.counters.record_um_fault(faults)
        # resident-page reads still cost global-memory bandwidth
        self.counters.record_access(Channel.UM, v, nbytes, transactions=len(pages))
        self.counters.bytes_by_channel[Channel.GPU_GLOBAL] += nbytes


class FullDeviceView(GraphView):
    """The VSGM baseline: the k-hop neighborhood was bulk-uploaded first.

    ``resident`` is the set of vertices whose lists were copied; VSGM's
    construction guarantees every matched vertex is within the query
    diameter of an updated edge, so fallthrough zero-copy reads indicate a
    modeling hole — they are still served (and charged) rather than crashing.
    """

    def __init__(self, graph: DynamicGraph, device: DeviceConfig,
                 counters: AccessCounters, resident: set[int]) -> None:
        super().__init__(graph, device, counters)
        self.resident = resident
        self.fallthrough_accesses = 0
        self._resident_sorted: np.ndarray | None = None

    def _record(self, v: int, nbytes: int) -> None:
        if v in self.resident:
            self.counters.record_access(Channel.GPU_GLOBAL, v, nbytes)
        else:  # pragma: no cover - guarded by VSGM's k-hop construction
            self.fallthrough_accesses += 1
            lines = self.device.zero_copy_lines(nbytes)
            self.counters.record_access(Channel.ZERO_COPY, v, nbytes, transactions=lines)

    def fetch_block(self, vertices: np.ndarray, lengths: np.ndarray) -> None:
        if self._resident_sorted is None:
            self._resident_sorted = np.sort(
                np.fromiter(self.resident, dtype=np.int64, count=len(self.resident))
            )
        hit = contains_sorted(self._resident_sorted, vertices)
        nbytes = lengths * BYTES_PER_NEIGHBOR
        self.counters.record_access_block(
            Channel.GPU_GLOBAL, vertices[hit], nbytes[hit]
        )
        miss = ~hit
        if miss.any():  # pragma: no cover - guarded by VSGM's k-hop construction
            self.fallthrough_accesses += int(miss.sum())
            miss_bytes = nbytes[miss]
            lines = -(-miss_bytes // self.device.zero_copy_line_bytes)
            self.counters.record_access_block(
                Channel.ZERO_COPY, vertices[miss], miss_bytes, transactions=lines
            )
