"""Tests for the device cost model, counters, and simulated clock."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gpu import (
    AccessCounters,
    Channel,
    DeviceConfig,
    TimeBreakdown,
    default_device,
    simulated_time_ns,
)
from repro.gpu.counters import Accesses
from repro.graphs.datasets import DEVICE_KERNEL_RESERVE_BYTES


class TestDeviceConfig:
    def test_zero_copy_lines_round_up(self):
        d = default_device()
        assert d.zero_copy_lines(0) == 0
        assert d.zero_copy_lines(1) == 1
        assert d.zero_copy_lines(128) == 1
        assert d.zero_copy_lines(129) == 2
        assert d.zero_copy_lines(4 * 128) == 4
        # elementwise over a block, as the views call it
        assert d.zero_copy_lines(np.array([0, 1, 128, 129])).tolist() == [0, 1, 1, 2]
        assert d.peer_lines(np.array([0, 1, 129])).tolist() == [0, 1, 2]

    def test_channel_cost_ordering(self):
        """Per-byte: GPU global << PCIe zero-copy << UM faulting."""
        d = default_device()
        nbytes = 4096
        gpu = d.gpu_read_time_ns(nbytes)
        zc = d.zero_copy_time_ns(d.zero_copy_lines(nbytes))
        um = d.um_fault_time_ns(1)  # one page = 4096 bytes
        assert gpu < zc < um
        assert um / zc > 10  # faults are catastrophically slower

    def test_dma_amortizes_only_in_bulk(self):
        d = default_device()
        small = 512
        # small transfer: DMA setup dominates, zero-copy wins
        assert d.dma_time_ns(small) > d.zero_copy_time_ns(d.zero_copy_lines(small))
        # bulk transfer: DMA bandwidth wins over per-line overheads
        bulk = 50_000_000
        assert d.dma_time_ns(bulk) < d.zero_copy_time_ns(d.zero_copy_lines(bulk))

    def test_memory_budget_partition(self):
        d = default_device()
        assert d.cache_buffer_bytes + DEVICE_KERNEL_RESERVE_BYTES == d.global_memory_bytes

    def test_scaled_override(self):
        d = replace(default_device(), pcie_bandwidth_bpns=8.0)
        assert d.pcie_bandwidth_bpns == 8.0
        assert d.gpu_global_bandwidth_bpns == default_device().gpu_global_bandwidth_bpns

    def test_um_cache_pages(self):
        d = DeviceConfig(global_memory_bytes=4096 * 10, um_cache_fraction=0.5)
        assert d.um_cache_pages() == 5


class TestAccessCounters:
    def test_record_access_accumulates(self):
        c = AccessCounters()
        c.record_access(Channel.ZERO_COPY, 3, 256, transactions=2)
        c.record_access(Channel.ZERO_COPY, 3, 128, transactions=1)
        c.record_access(Channel.GPU_GLOBAL, 5, 64)
        assert c.bytes_by_channel[Channel.ZERO_COPY] == 384
        assert c.transactions_by_channel[Channel.ZERO_COPY] == 3
        assert c.vertex_access_counts(8).tolist() == [0, 0, 0, 2, 0, 1, 0, 0]
        assert c.total_access_count == 3

    def test_vertex_histogram_grows(self):
        c = AccessCounters()
        c.record_access(Channel.CPU_DRAM, 5000, 4)
        assert c.vertex_access_counts(6000)[5000] == 1

    def test_top_fraction_share(self):
        c = AccessCounters()
        for _ in range(80):
            c.record_access(Channel.CPU_DRAM, 1, 4)
        for v in (2, 3, 4, 5):
            for _ in range(5):
                c.record_access(Channel.CPU_DRAM, v, 4)
        # 5 accessed vertices; top-20% = 1 vertex = 80 of 100 accesses
        assert c.top_fraction_share(0.2) == pytest.approx(0.8)
        assert c.top_fraction_share(1.0) == pytest.approx(1.0)

    def test_top_fraction_empty(self):
        assert AccessCounters().top_fraction_share(0.05) == 0.0

    def test_merge(self):
        a, b = AccessCounters(), AccessCounters()
        a.record_access(Channel.ZERO_COPY, 1, 100)
        # a block carrying faults, as the unified-memory view records them
        b.record(np.array([2000]), Accesses(
            np.array([Channel.ZERO_COPY.slot]), np.array([50]), np.array([1]), np.array([0]),
            faults=np.array([3]), hits=np.array([0]),
        ))
        b.record_dma(1000)
        b.record_compute(7)
        a.merge(b)
        assert a.bytes_by_channel[Channel.ZERO_COPY] == 150
        assert a.um_faults == 3
        assert a.dma_bytes == 1000
        assert a.compute_ops == 7
        assert a.vertex_access_counts(2001)[2000] == 1


class TestSimulatedTime:
    def test_gpu_zero_copy_stalls_add(self):
        d = default_device()
        c = AccessCounters()
        c.record_compute(1000)
        base = simulated_time_ns(c, d)
        c.record_access(Channel.ZERO_COPY, 0, 1024, transactions=8)
        assert simulated_time_ns(c, d) > base

    def test_gpu_overlap_semantics(self):
        """Compute and global-memory streams overlap (max), not add."""
        d = default_device()
        c = AccessCounters()
        c.record_compute(10_000_000)
        compute_only = simulated_time_ns(c, d)
        c.record_access(Channel.GPU_GLOBAL, 0, 100)  # tiny read hides under compute
        assert simulated_time_ns(c, d) == pytest.approx(compute_only)

    def test_cpu_platform_slower_per_op(self):
        d = default_device()
        c = AccessCounters()
        c.record_compute(1_000_000)
        assert simulated_time_ns(c, d, platform="cpu") > simulated_time_ns(c, d, platform="gpu")
        assert simulated_time_ns(c, d, platform="cpu") > simulated_time_ns(
            c, d, platform="cpu_estimator"
        )

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            simulated_time_ns(AccessCounters(), default_device(), platform="tpu")
        with pytest.raises(ValueError, match="cpu_scalar"):  # the retired single-thread pricing
            simulated_time_ns(AccessCounters(), default_device(), platform="cpu_scalar")

    def test_dma_included_for_gpu(self):
        d = default_device()
        c = AccessCounters()
        c.record_dma(1_000_000)
        assert simulated_time_ns(c, d) == pytest.approx(d.dma_time_ns(1_000_000))


class TestTimeBreakdown:
    def test_total_and_fractions(self):
        t = TimeBreakdown(update_ns=1, estimate_ns=2, pack_ns=3, match_ns=4, reorg_ns=0)
        assert t.total_ns == 10
        assert t.fe_fraction == pytest.approx(0.2)
        assert t.dc_fraction == pytest.approx(0.3)

    def test_empty_fractions(self):
        t = TimeBreakdown()
        assert t.fe_fraction == 0.0 and t.dc_fraction == 0.0

    def test_add_and_scale(self):
        t = TimeBreakdown(1, 1, 1, 1, 1) + TimeBreakdown(1, 2, 3, 4, 5)
        assert t.total_ns == 20
        assert t.scaled(0.5).total_ns == pytest.approx(10.0)
