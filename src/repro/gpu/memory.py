"""Host memory layout and the unified-memory pager.

Unified memory (paper Sec. II-C) maps CPU allocations into the GPU address
space and migrates data on demand at 4 KiB page granularity.  The paper's UM
baseline allocates *all* neighbor lists as managed memory; every cold access
triggers a page fault that stalls the kernel and moves a full page across
PCIe even when only a handful of neighbors are needed — which is why UM ends
up 69-210x slower than zero-copy.

:class:`HostMemoryLayout` assigns every vertex's neighbor list a byte range
in a flat host address space (the analog of the per-vertex
``cudaMallocManaged`` regions laid out by the allocator), and
:class:`UnifiedMemoryPager` implements the device-side LRU page cache.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.utils import require

__all__ = ["HostMemoryLayout", "UnifiedMemoryPager"]

#: each list's allocation is padded to this many bytes
ALIGNMENT_BYTES = 64


class HostMemoryLayout:
    """Byte offsets of per-vertex neighbor lists in host memory.

    Built from the per-vertex list lengths at batch time.  Each list is
    padded to its allocation capacity (the doubling growth of the dynamic
    store), mirroring how separately-allocated lists really land on distinct
    page ranges.
    """

    def __init__(self, list_lengths: np.ndarray) -> None:
        lengths = np.asarray(list_lengths, dtype=np.int64)
        require(bool(np.all(lengths >= 0)), "negative list length")
        sizes = lengths * BYTES_PER_NEIGHBOR
        padded = ((sizes + ALIGNMENT_BYTES - 1) // ALIGNMENT_BYTES) * ALIGNMENT_BYTES
        self.offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(padded, out=self.offsets[1:])

    def page_spans(
        self, vertices: np.ndarray, nbytes: np.ndarray, page_bytes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(first, stop)``: the page ids ``[first, stop)`` that reading
        ``nbytes`` of each vertex's list touches (an empty span for 0 bytes)."""
        start = self.offsets[vertices]
        first = start // page_bytes
        return first, np.where(nbytes > 0, (start + nbytes - 1) // page_bytes + 1, first)


class UnifiedMemoryPager:
    """Device-side LRU page cache for unified memory.

    ``access(pages)`` returns ``(hits, faults)``: already-resident pages are
    refreshed in LRU order; missing pages fault in, evicting the least
    recently used pages once the cache is full.
    """

    def __init__(self, device: DeviceConfig) -> None:
        self.capacity_pages = device.um_cache_pages()
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.total_hits = 0
        self.total_faults = 0
        self.total_evictions = 0

    def access(self, pages: range) -> tuple[int, int]:
        hits = 0
        faults = 0
        for page in pages:
            if page in self._resident:
                self._resident.move_to_end(page)
                hits += 1
            else:
                faults += 1
                self._resident[page] = None
                if len(self._resident) > self.capacity_pages:
                    self._resident.popitem(last=False)
                    self.total_evictions += 1
        self.total_hits += hits
        self.total_faults += faults
        return hits, faults
