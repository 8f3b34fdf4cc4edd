"""Device graph views: where the matching kernel's reads are served from.

The executor (:mod:`repro.core.matching`) is backend-agnostic — the
paper's "all the GPU versions use the same GPU kernel" — and *where a list
lives* is the whole of a :class:`GraphView`: its one :meth:`~GraphView.classify`
says, per access of a block, which channel serves it, in how many
transactions and at what probe cost; recording that
(:meth:`~GraphView.fetch_block`) is the base class's.  A view only
classifies: every list the kernel reads comes from the store's one bulk read
(:meth:`~repro.graphs.dynamic_graph.DynamicGraph.read`, one per launch
through ``operands``), whichever channel the view says serves it.  The four
views here model the paper's baselines:

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
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Accesses, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.gpu.memory import HostMemoryLayout, UnifiedMemoryPager
from repro.utils import contains_sorted, sorted_unique

__all__ = [
    "GraphView",
    "HostCPUView",
    "ZeroCopyView",
    "UnifiedMemoryView",
    "FullDeviceView",
]

_GLOBAL, _ZERO_COPY = Channel.GPU_GLOBAL.slot, Channel.ZERO_COPY.slot


class GraphView(ABC):
    """Where each neighbor-list access of the kernel is served from."""

    #: which platform prices this view's counters (see clock.simulated_time_ns)
    platform: str = "gpu"
    #: who settles the kernel's roots: one device (a fleet's view: its shards)
    num_readers: int = 1

    def __init__(self, graph: DynamicGraph, device: DeviceConfig,
                 counters: AccessCounters) -> None:
        self.graph = graph
        self.device = device
        self.counters = counters

    def charge(self, roots: np.ndarray, outputs: np.ndarray, ops: np.ndarray) -> None:
        """A settle's roots, embeddings and compute ops, one entry per reader."""
        self.counters.record_output(sum(outputs.tolist()))
        self.counters.record_compute(sum(ops.tolist()))

    def fetch_block(self, vertices: np.ndarray, lengths: np.ndarray, reader=None) -> Accesses:
        """Record one neighbor-list access per element of ``vertices``, each
        reading a list of the paired length, in array order; returns the
        block as classified, for a caller that attributes it further
        (``reader``, who reads each access, is a fleet's view's)."""
        acc = self.classify(vertices, lengths)
        self.counters.record(vertices, acc)
        return acc

    @abstractmethod
    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        """Where each access of the block is served from, in array order.

        Pure but for the view's own tallies (hits / misses) and, under
        unified memory, the pager — which is why a block is classified
        exactly once, in the order the kernel issues it."""

    def _hit_or_zero_copy(
        self, hit: np.ndarray, lengths: np.ndarray, ops: int = 0
    ) -> Accesses:
        """Hits are one global-memory read each, misses cross PCIe in
        zero-copy lines (ceil division, 0 for 0); ``ops`` per access."""
        nbytes = lengths * BYTES_PER_NEIGHBOR
        return Accesses(
            np.where(hit, _GLOBAL, _ZERO_COPY), nbytes,
            np.where(hit, 1, self.device.zero_copy_lines(nbytes)),
            np.full(hit.shape[0], ops, dtype=np.int64),
        )


class HostCPUView(GraphView):
    """CPU execution: neighbor lists stream from host DRAM."""

    platform = "cpu"

    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        n = vertices.shape[0]
        return Accesses(
            np.full(n, Channel.CPU_DRAM.slot), lengths * BYTES_PER_NEIGHBOR,
            np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
        )


class ZeroCopyView(GraphView):
    """The ZC baseline: all lists pinned on the host, read over PCIe."""

    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        return self._hit_or_zero_copy(np.zeros(vertices.shape[0], dtype=bool), lengths)


class UnifiedMemoryView(GraphView):
    """The UM baseline: managed memory with demand paging.

    The pager persists across fetches within a batch (pages stay resident
    between kernel accesses) and is reset per batch by default, matching a
    fresh kernel launch with cold device caches.

    The LRU pager is access-order sensitive, so :meth:`classify` walks the
    block access by access in the order it is handed over — the matcher's
    settle order, see ``docs/kernel.md`` — and reports each access's faults
    and hits.  (Absent eviction pressure the totals are order-independent.)
    ``layout`` places the lists of a graph that is not at hand (a replayed
    trace); by default every list sits at its stored length.
    """

    def __init__(self, graph: DynamicGraph, device: DeviceConfig,
                 counters: AccessCounters, layout: HostMemoryLayout | None = None) -> None:
        super().__init__(graph, device, counters)
        if layout is None:  # every list at its stored length, appended run included
            layout = HostMemoryLayout(graph.run_lengths(np.arange(graph.num_vertices))[1])
        self.layout = layout
        self.pager = UnifiedMemoryPager(device)

    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        n, nbytes = vertices.shape[0], lengths * BYTES_PER_NEIGHBOR
        first, stop = self.layout.page_spans(vertices, nbytes, self.device.um_page_bytes)
        touched = np.zeros((n, 2), dtype=np.int64)
        for i, (lo, hi) in enumerate(zip(first.tolist(), stop.tolist())):
            touched[i] = self.pager.access(range(lo, hi))
        # resident-page reads still cost global-memory bandwidth: tabulate
        # charges the UM channel's bytes to GPU_GLOBAL as well
        return Accesses(
            np.full(n, Channel.UM.slot), nbytes, stop - first,
            np.zeros(n, dtype=np.int64), faults=touched[:, 1], hits=touched[:, 0],
        )


class FullDeviceView(GraphView):
    """The VSGM baseline: the k-hop neighborhood was bulk-uploaded first.

    ``resident`` holds the vertices whose lists were copied, snapshotted at
    construction (a set changed afterwards is not seen); VSGM's
    construction guarantees every matched vertex is within the query
    diameter of an updated edge, so fallthrough zero-copy reads indicate a
    modeling hole — they are still served (and charged) rather than crashing.
    """

    def __init__(self, graph: DynamicGraph, device: DeviceConfig,
                 counters: AccessCounters, resident) -> None:
        super().__init__(graph, device, counters)
        self._resident = sorted_unique(np.fromiter(resident, dtype=np.int64))
        self.fallthrough_accesses = 0

    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        hit = contains_sorted(self._resident, vertices)
        self.fallthrough_accesses += int(hit.size - np.count_nonzero(hit))
        return self._hit_or_zero_copy(hit, lengths)
