"""Tests for host memory layout, the UM pager, DMA engine, and graph views."""

import numpy as np
import pytest

from repro.graphs import DynamicGraph, StaticGraph, UpdateBatch
from repro.gpu import (
    AccessCounters,
    Channel,
    DeviceConfig,
    DmaEngine,
    FullDeviceView,
    HostCPUView,
    HostMemoryLayout,
    UnifiedMemoryPager,
    UnifiedMemoryView,
    ZeroCopyView,
    default_device,
)
from tests.test_views_semantics import read_list


class TestHostMemoryLayout:
    def test_offsets_aligned_and_monotone(self):
        layout = HostMemoryLayout(np.array([3, 0, 100, 1]))
        assert layout.offsets[0] == 0
        assert bool(np.all(np.diff(layout.offsets) >= 0))
        for off in layout.offsets:
            assert off % 64 == 0
        assert layout.offsets[-1] == 64 + 0 + 448 + 64

    def test_pages_for(self):
        layout = HostMemoryLayout(np.array([2000, 2000]))
        first, stop = layout.page_spans(np.array([0, 0, 1]), np.array([2000 * 4, 0, 4]), 4096)
        assert (first[0], stop[0]) == (0, 2)  # pages 0 and 1
        assert stop[1] == first[1]  # reading nothing touches no page
        # second vertex starts at byte 8000 -> page 1
        assert (first[2], stop[2]) == (1, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            HostMemoryLayout(np.array([-1]))


class TestUnifiedMemoryPager:
    def make(self, pages):
        return UnifiedMemoryPager(
            DeviceConfig(global_memory_bytes=4096 * pages, um_cache_fraction=1.0)
        )

    def test_cold_faults_then_hits(self):
        p = self.make(4)
        hits, faults = p.access(range(0, 2))
        assert (hits, faults) == (0, 2)
        hits, faults = p.access(range(0, 2))
        assert (hits, faults) == (2, 0)

    def test_lru_eviction(self):
        p = self.make(2)
        p.access(range(0, 2))  # pages 0,1 resident
        p.access(range(0, 1))  # refresh page 0 -> LRU order: 1, 0
        p.access(range(5, 6))  # evicts page 1
        hits, faults = p.access(range(1, 2))
        assert faults == 1  # page 1 was evicted
        assert p.total_evictions == 2


class TestDmaEngine:
    def test_transfer_records_and_prices(self):
        d = default_device()
        c = AccessCounters()
        eng = DmaEngine(d, c)
        t = eng.transfer(10_000)
        assert c.dma_bytes == 10_000 and c.dma_requests == 1
        assert t == pytest.approx(d.dma_time_ns(10_000, 1))
        # ten requests of the same bytes pay ten setups (why DCSR ships once)
        assert sum(eng.transfer(1_000) for _ in range(10)) > t
        assert c.dma_requests == 11


def _store_with_batch():
    g = StaticGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    dg = DynamicGraph(g)
    dg.apply_batch(UpdateBatch([(0, 3), (1, 2)], [1, -1]))
    return dg


class TestViews:
    def test_version_semantics_shared_by_all_views(self):
        dg = _store_with_batch()
        d = default_device()
        for cls in (HostCPUView, ZeroCopyView, UnifiedMemoryView):
            view = cls(dg, d, AccessCounters())
            assert read_list(view, 1, True).tolist() == [0, 2]  # deletion still visible in N
            assert read_list(view, 1, False).tolist() == [0]  # (1,2) deleted
            assert read_list(view, 0, False).tolist() == [1, 2, 3]
            assert view.counters.vertex_access_counts(5).tolist() == [1, 2, 0, 0, 0]

    def test_host_cpu_channel(self):
        dg = _store_with_batch()
        c = AccessCounters()
        view = HostCPUView(dg, default_device(), c)
        read_list(view, 0, True)
        assert c.bytes_by_channel[Channel.CPU_DRAM] == 2 * 4
        assert c.bytes_by_channel[Channel.ZERO_COPY] == 0

    def test_zero_copy_channel_lines(self):
        dg = _store_with_batch()
        c = AccessCounters()
        view = ZeroCopyView(dg, default_device(), c)
        read_list(view, 0, False)  # 3 neighbors = 12 bytes -> 1 line
        assert c.transactions_by_channel[Channel.ZERO_COPY] == 1
        assert c.bytes_by_channel[Channel.ZERO_COPY] == 12

    def test_um_view_faults_then_hits(self):
        dg = _store_with_batch()
        c = AccessCounters()
        view = UnifiedMemoryView(dg, default_device(), c)
        read_list(view, 0, False)
        first_faults = c.um_faults
        assert first_faults >= 1
        read_list(view, 0, False)
        assert c.um_faults == first_faults  # now resident
        assert c.um_hits >= 1

    def test_full_device_view_resident_vs_fallthrough(self):
        dg = _store_with_batch()
        c = AccessCounters()
        view = FullDeviceView(dg, default_device(), c, resident={0, 1, 2, 3})
        read_list(view, 0, False)
        assert c.bytes_by_channel[Channel.GPU_GLOBAL] > 0
        assert c.bytes_by_channel[Channel.ZERO_COPY] == 0
        read_list(view, 4, False)
        assert view.fallthrough_accesses == 1
        assert c.bytes_by_channel[Channel.ZERO_COPY] > 0

    def test_degree_bound_free(self):
        dg = _store_with_batch()
        c = AccessCounters()
        ZeroCopyView(dg, default_device(), c)
        assert dg.run_lengths(np.array([0]))[0][0] == 2 == dg.read(np.array([0]), True)[1][0]
        assert dg.degrees_new()[0] == 3 == dg.read(np.array([0]), False)[1][0]
        assert c.total_access_count == 0  # lengths and store reads are free: views charge

    def test_vertex_histogram_counts_fetches(self):
        dg = _store_with_batch()
        c = AccessCounters()
        view = ZeroCopyView(dg, default_device(), c)
        for _ in range(5):
            read_list(view, 2, True)
        assert c.vertex_access_counts(5)[2] == 5
