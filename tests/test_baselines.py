"""Tests for the baseline systems (paper Sec. VI-A).

Key invariant: every system returns the *same* ΔM for the same batch — they
differ only in data movement.  Plus the qualitative cost relationships the
paper reports: UM ≫ ZC, VSGM copy-bound and capacity-limited, CPU slower
than GPU variants on compute-heavy batches.
"""

import pytest

from repro.core.baselines import (
    SYSTEM_NAMES,
    SYSTEMS,
    VsgmCapacityError,
    make_system,
)
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu import DeviceConfig
from repro.query import QueryGraph
from repro.testing.reference import count_embeddings

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
TAILED = QueryGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 1, 1], name="tailed")


def small_case(seed=1):
    g = erdos_renyi(50, 5.0, num_labels=2, seed=seed)
    return derive_stream(g, update_fraction=0.4, batch_size=16, seed=seed)


class TestAgreement:
    @pytest.mark.parametrize("name", ["ZC", "UM", "Naive", "VSGM", "CPU"])
    def test_all_systems_match_gcsm_and_oracle(self, name):
        g0, batches = small_case()
        gcsm = make_system("GCSM", g0, TAILED, seed=3)
        other = make_system(name, g0, TAILED, seed=3)
        prev = count_embeddings(g0, TAILED)
        for batch in batches[:3]:
            a = gcsm.process_batch(batch)
            b = other.process_batch(batch)
            now = count_embeddings(gcsm.snapshot(), TAILED)
            assert a.delta_count == b.delta_count == now - prev
            prev = now

    def test_factory_rejects_unknown(self):
        g0, _ = small_case()
        with pytest.raises(ValueError):
            make_system("FPGA", g0, TRIANGLE)

    def test_system_names_registry(self):
        assert set(SYSTEM_NAMES) == {
            "GCSM", "Pipelined", "ZC", "UM", "Naive", "VSGM", "CPU", "RapidFlow",
        }
        assert SYSTEM_NAMES == tuple(SYSTEMS)


class TestCostShape:
    def big_case(self):
        g = powerlaw_graph(4000, 10.0, max_degree=120, num_labels=2, seed=5)
        return derive_stream(g, num_updates=128, batch_size=128, seed=5)

    def test_um_much_slower_than_zc(self):
        g0, batches = self.big_case()
        zc = make_system("ZC", g0, TRIANGLE).process_batch(batches[0])
        g0, batches = self.big_case()
        um = make_system("UM", g0, TRIANGLE).process_batch(batches[0])
        assert um.breakdown.total_ns > 10 * zc.breakdown.total_ns

    def test_gcsm_faster_than_zc(self):
        g0, batches = self.big_case()
        zc = make_system("ZC", g0, TRIANGLE).process_batch(batches[0])
        g0, batches = self.big_case()
        gcsm = make_system("GCSM", g0, TRIANGLE, seed=6).process_batch(batches[0])
        assert gcsm.breakdown.total_ns < zc.breakdown.total_ns
        assert gcsm.cpu_access_bytes < zc.cpu_access_bytes

    def test_cpu_has_no_pcie_traffic(self):
        g0, batches = self.big_case()
        cpu = make_system("CPU", g0, TRIANGLE).process_batch(batches[0])
        assert cpu.cpu_access_bytes == 0
        from repro.gpu import Channel

        assert cpu.match_counters.bytes_by_channel[Channel.CPU_DRAM] > 0

    def test_vsgm_copy_dominated(self):
        """Fig. 13: VSGM's match time ~ GCSM's, but its DC time dominates."""
        g0, batches = self.big_case()
        vsgm = make_system("VSGM", g0, TRIANGLE).process_batch(batches[0])
        assert vsgm.breakdown.pack_ns > vsgm.breakdown.match_ns
        # the kernel itself runs entirely from device memory
        assert vsgm.cpu_access_bytes == 0

    def test_naive_uses_restricted_budget(self):
        from repro.core.baselines import NAIVE_CACHE_BUDGET_BYTES

        g0, batches = self.big_case()
        naive = make_system("Naive", g0, TRIANGLE, seed=7)
        r = naive.process_batch(batches[0])
        assert r.cache_bytes <= NAIVE_CACHE_BUDGET_BYTES + 64
        assert r.estimation is None


class TestVsgmCapacity:
    def test_capacity_error_on_big_khop(self):
        g = powerlaw_graph(4000, 12.0, max_degree=150, num_labels=1, seed=8)
        g0, batches = derive_stream(g, num_updates=256, batch_size=256, seed=8)
        device = DeviceConfig(
            global_memory_bytes=20_000,
            cache_buffer_bytes=10_000,
        )
        vsgm = make_system("VSGM", g0, TRIANGLE, device=device)
        with pytest.raises(VsgmCapacityError):
            vsgm.process_batch(batches[0])
        # the store was left consistent (reorganized) despite the failure
        assert not vsgm.graph.batch_open

    def test_small_batch_fits(self):
        g = erdos_renyi(200, 4.0, num_labels=1, seed=9)
        g0, batches = derive_stream(g, num_updates=8, batch_size=8, seed=9)
        vsgm = make_system("VSGM", g0, TRIANGLE)
        r = vsgm.process_batch(batches[0])
        assert r.cache_bytes > 0
        assert r.cached_vertices.size > 0

    def test_non_strict_mode_allows_overflow(self):
        g = powerlaw_graph(2000, 10.0, max_degree=100, num_labels=1, seed=10)
        g0, batches = derive_stream(g, num_updates=128, batch_size=128, seed=10)
        device = DeviceConfig(
            global_memory_bytes=20_000,
            cache_buffer_bytes=10_000,
        )
        vsgm = make_system("VSGM", g0, TRIANGLE, device=device, strict_capacity=False)
        r = vsgm.process_batch(batches[0])  # no crash
        assert r.cache_bytes > device.cache_buffer_bytes
