"""Tests for the multi-GPU fan-out plug (``repro.multigpu``).

``GCSMEngine(devices=1)`` *is* the single-device engine — no fleet placement
is loaded, so the N=1 equivalence holds by construction (asserted cheaply
below).  Everything else (partitioners, the peer read path, the collective
model, fleet reports) is tested on ``devices > 1``.
"""

import numpy as np
import pytest

from repro.core.baselines import make_system
from repro.core.engine import GCSMEngine
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import ClusterConfig, DeviceConfig, default_cluster
from repro.multigpu import (
    FrequencyPartitioner,
    HashPartitioner,
    LoadBalanceReport,
    FleetPlacement,
    MincutPartitioner,
    RangePartitioner,
    ShardedDeviceView,
    adjacency_csr,
    make_partitioner,
    weighted_cut,
)
from repro.multigpu.comm import allreduce_delta_ns, comm_report
from repro.query import QueryGraph
from repro.testing import assign_reference

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
TAILED = QueryGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 1, 1], name="tailed")
PATH3 = QueryGraph(3, [(0, 1), (1, 2)], [0, 1, 0], name="path3")

#: three (graph, query, stream) workloads for the equivalence invariant
WORKLOADS = [
    ("er-triangle", lambda: erdos_renyi(60, 6.0, num_labels=1, seed=11), TRIANGLE),
    ("pl-tailed", lambda: powerlaw_graph(300, 6.0, max_degree=40, num_labels=2, seed=12), TAILED),
    ("er-path", lambda: erdos_renyi(80, 5.0, num_labels=2, seed=13), PATH3),
]


def _stream(build, *, batches=3, batch_size=24, seed=5):
    g = build()
    g0, bs = derive_stream(
        g, num_updates=batches * batch_size, batch_size=batch_size, seed=seed
    )
    return g0, bs[:batches]


class TestSingleDeviceEquivalence:
    """``GCSMEngine(devices=1)`` == ``GCSMEngine()``: the same code path."""

    @pytest.mark.parametrize("name,build,query", WORKLOADS,
                             ids=[w[0] for w in WORKLOADS])
    def test_bit_identical(self, name, build, query):
        g0, batches = _stream(build)
        single = GCSMEngine(g0, query, seed=9)
        fleet = GCSMEngine(g0, query, devices=1, seed=9)
        assert fleet.fleet is None and type(fleet.placement) is type(single.placement)
        for batch in batches:
            a = single.process_batch(batch)
            b = fleet.process_batch(batch)
            assert a.delta_count == b.delta_count
            assert a.match_stats.roots_processed == b.match_stats.roots_processed
            assert a.match_stats.embeddings_found == b.match_stats.embeddings_found
            for ch in Channel:
                assert a.match_counters.bytes_by_channel[ch] == \
                    b.match_counters.bytes_by_channel[ch], ch
                assert a.match_counters.transactions_by_channel[ch] == \
                    b.match_counters.transactions_by_channel[ch], ch
            assert a.breakdown.total_ns == b.breakdown.total_ns
            assert a.breakdown.match_ns == b.breakdown.match_ns
            assert a.breakdown.pack_ns == b.breakdown.pack_ns
            assert (a.cache_hits, a.cache_misses) == (b.cache_hits, b.cache_misses)
            assert np.array_equal(a.cached_vertices, b.cached_vertices)
            assert b.breakdown.comm_ns == 0.0  # no collective on one device

    def test_adaptive_walks_also_equivalent(self):
        g0, batches = _stream(WORKLOADS[0][1], batches=2)
        single = GCSMEngine(g0, TRIANGLE, adaptive_walks=True, seed=4)
        fleet = GCSMEngine(g0, TRIANGLE, devices=1, adaptive_walks=True, seed=4)
        for batch in batches:
            a, b = single.process_batch(batch), fleet.process_batch(batch)
            assert a.delta_count == b.delta_count
            assert a.breakdown.total_ns == b.breakdown.total_ns


class TestMultiDeviceCorrectness:
    """Sharding must never change ΔM, for any N or partitioner."""

    @pytest.mark.parametrize("partitioner", ["hash", "range", "freq", "mincut"])
    @pytest.mark.parametrize("devices", [2, 4])
    def test_delta_counts_match_single_gpu(self, devices, partitioner):
        g0, batches = _stream(WORKLOADS[1][1])
        single = GCSMEngine(g0, TAILED, seed=9)
        fleet = GCSMEngine(
            g0, TAILED, devices=devices, partitioner=partitioner, seed=9
        )
        for batch in batches:
            a, b = single.process_batch(batch), fleet.process_batch(batch)
            assert a.delta_count == b.delta_count
            # the disjoint root cover preserves total roots too
            assert a.match_stats.roots_processed == b.match_stats.roots_processed

    def test_fleet_reports_populated(self):
        g0, batches = _stream(WORKLOADS[0][1], batches=1)
        fleet = GCSMEngine(g0, TRIANGLE, devices=4, seed=9)
        result = fleet.process_batch(batches[0])
        assert len(result.shard_reports) == 4
        assert result.load_balance is not None
        assert result.load_balance.num_devices == 4
        assert 0 <= result.load_balance.straggler < 4
        assert result.load_balance.max_ns >= result.load_balance.mean_ns
        assert result.load_balance.imbalance >= 1.0
        assert sum(result.load_balance.shard_roots) == \
            result.match_stats.roots_processed
        assert result.comm is not None
        assert result.comm.allreduce_ns > 0
        assert result.breakdown.comm_ns == result.comm.allreduce_ns

    def test_peer_traffic_appears_only_when_sharded(self):
        g0, batches = _stream(WORKLOADS[0][1], batches=1)
        one = GCSMEngine(g0, TRIANGLE, devices=1, seed=9)
        four = GCSMEngine(g0, TRIANGLE, devices=4, seed=9)
        r1 = one.process_batch(batches[0])
        r4 = four.process_batch(batches[0])
        assert r1.match_counters.bytes_by_channel[Channel.PEER] == 0
        assert r4.match_counters.bytes_by_channel[Channel.PEER] > 0

    def test_match_time_scales_down(self):
        g0, batches = _stream(
            lambda: powerlaw_graph(1500, 10.0, max_degree=120, num_labels=1, seed=20),
            batches=2, batch_size=96,
        )
        times = {}
        for n in (1, 8):
            e = GCSMEngine(g0, TRIANGLE, devices=n, seed=9)
            times[n] = sum(e.process_batch(b).breakdown.match_ns for b in batches)
        assert times[8] < times[1]  # sharded kernel phase is faster...
        assert times[8] > times[1] / 8  # ...but sub-linearly (PEER stalls)


class TestPartitioners:
    def _graph(self):
        return DynamicGraph(powerlaw_graph(400, 8.0, max_degree=60, seed=3))

    @pytest.mark.parametrize("name", ["hash", "range", "freq", "mincut"])
    def test_complete_cover(self, name):
        g = self._graph()
        freqs = np.zeros(g.num_vertices)
        freqs[::7] = 1.0
        owner = make_partitioner(name).assign(g, freqs, 4)
        assert owner.shape == (g.num_vertices,)
        assert owner.min() >= 0 and owner.max() < 4
        assert owner.dtype == np.int64

    def test_hash_deterministic(self):
        g = self._graph()
        a = HashPartitioner().assign(g, None, 4)
        b = HashPartitioner().assign(g, None, 4)
        assert np.array_equal(a, b)

    def test_range_is_contiguous(self):
        g = self._graph()
        owner = RangePartitioner().assign(g, None, 4)
        assert np.all(np.diff(owner) >= 0)  # non-decreasing == contiguous ranges

    def test_freq_without_estimates_falls_back_to_hash(self):
        g = self._graph()
        assert np.array_equal(
            FrequencyPartitioner().assign(g, None, 4),
            HashPartitioner().assign(g, None, 4),
        )

    def test_freq_respects_load_cap(self):
        g = self._graph()
        freqs = g.degrees_new().astype(float)  # everything is hot
        owner = FrequencyPartitioner(balance_slack=0.25).assign(g, freqs, 4)
        degrees = g.degrees_new().astype(np.int64)
        load = np.bincount(owner, weights=degrees, minlength=4)
        cap = 1.25 * degrees.sum() / 4
        assert load.max() <= cap + degrees.max()  # cap enforced pre-move

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_partitioner("metis")

    def test_freq_vectorized_matches_reference(self):
        g = self._graph()
        rng = np.random.default_rng(41)
        freqs = rng.random(g.num_vertices)
        freqs[rng.random(g.num_vertices) < 0.6] = 0.0  # mixed hot/cold
        p = FrequencyPartitioner()
        for k in (2, 4, 7):
            assert np.array_equal(
                p.assign(g, freqs, k), assign_reference(p, g, freqs, k)
            )

    def test_mincut_deterministic_with_roots(self):
        g = self._graph()
        freqs = g.degrees_new().astype(float)
        rng = np.random.default_rng(17)
        roots = rng.integers(0, g.num_vertices, size=(64, 2)).astype(np.int64)
        a = MincutPartitioner().assign(g, freqs, 4, roots=roots)
        b = MincutPartitioner().assign(g, freqs, 4, roots=roots)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4

    def test_mincut_respects_degree_mass_cap(self):
        g = self._graph()
        freqs = g.degrees_new().astype(float)
        owner = MincutPartitioner(balance_slack=0.20).assign(g, freqs, 4)
        degrees = g.degrees_new().astype(np.int64)
        load = np.bincount(owner, weights=degrees, minlength=4)
        cap = 1.20 * degrees.sum() / 4
        assert load.max() <= cap + degrees.max()  # cap enforced pre-move

    def test_mincut_cuts_fewer_weighted_edges_than_hash(self):
        g = self._graph()
        freqs = g.degrees_new().astype(float)
        rowptr, cols, _ = adjacency_csr(g)
        hash_owner = HashPartitioner().assign(g, None, 4)
        cut_owner = MincutPartitioner().assign(g, freqs, 4)
        hash_cut, _ = weighted_cut(rowptr, cols, hash_owner, freqs)
        mc_cut, _ = weighted_cut(rowptr, cols, cut_owner, freqs)
        assert mc_cut < hash_cut

    def test_counters_priced(self):
        g = self._graph()
        counters = AccessCounters()
        HashPartitioner().assign(g, None, 2, counters)
        assert counters.compute_ops > 0


class TestLoadBalanceReport:
    def test_idle_fleet_is_balanced_with_no_straggler(self):
        rep = LoadBalanceReport(
            shard_match_ns=(0.0, 0.0, 0.0, 0.0), shard_roots=(0, 0, 0, 0)
        )
        assert rep.imbalance == 1.0
        assert rep.straggler is None
        payload = rep.to_dict()
        assert payload["imbalance"] == 1.0
        assert payload["straggler"] is None

    def test_busy_fleet_straggler_identified(self):
        rep = LoadBalanceReport(
            shard_match_ns=(10.0, 40.0, 30.0), shard_roots=(1, 4, 3)
        )
        assert rep.straggler == 1
        assert rep.imbalance == pytest.approx(40.0 / (80.0 / 3))


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_devices=0)
        with pytest.raises(ValueError):
            ClusterConfig(interconnect="smoke-signals")

    def test_allreduce_zero_on_one_device(self):
        assert default_cluster(1).allreduce_time_ns(64) == 0.0

    def test_allreduce_grows_with_devices(self):
        t = [default_cluster(n).allreduce_time_ns(64) for n in (2, 4, 8)]
        assert t[0] < t[1] < t[2]

    def test_pcie_peer_reads_cost_more_than_nvlink(self):
        nv = default_cluster(2, "nvlink").device()
        pc = default_cluster(2, "pcie").device()
        assert pc.peer_time_ns(pc.peer_lines(4096)) > nv.peer_time_ns(nv.peer_lines(4096))

    def test_interconnect_changes_fleet_timing(self):
        g0, batches = _stream(WORKLOADS[0][1], batches=1)
        nv = GCSMEngine(
            g0, TRIANGLE, devices=ClusterConfig(num_devices=4, interconnect="nvlink"),
            seed=9)
        pc = GCSMEngine(
            g0, TRIANGLE, devices=ClusterConfig(num_devices=4, interconnect="pcie"),
            seed=9)
        rn, rp = nv.process_batch(batches[0]), pc.process_batch(batches[0])
        assert rp.delta_count == rn.delta_count  # cost model never changes results
        assert rp.breakdown.match_ns > rn.breakdown.match_ns


class TestShardedView:
    def _setup(self):
        g = DynamicGraph(erdos_renyi(40, 6.0, seed=2))
        device = DeviceConfig()
        owner = np.zeros(g.num_vertices, dtype=np.int64)
        owner[1::2] = 1  # odd vertices owned by shard 1
        from repro.core.dcsr import DcsrCache

        cache0 = DcsrCache.build(g, np.arange(0, g.num_vertices, 2, dtype=np.int64))
        cache1 = DcsrCache.build(g, np.arange(1, g.num_vertices, 2, dtype=np.int64))
        counters = AccessCounters()
        view = ShardedDeviceView(
            g, device, counters, cache0,
            shard_id=0, owner=owner, peer_caches=[cache0, cache1],
        )
        return g, view, counters

    def test_remote_cached_read_uses_peer_channel(self):
        from repro.query.plan import EdgeVersion

        g, view, counters = self._setup()
        v = 1  # remote-owned, cached at shard 1
        runs = view.fetch(v, EdgeVersion.NEW)
        assert sum(r.size for r in runs) == g.neighbors_new(v).size
        assert counters.bytes_by_channel[Channel.PEER] > 0
        assert view.remote_hits == 1 and view.remote_misses == 0
        assert view.total_hits == 1

    def test_local_read_unchanged(self):
        from repro.query.plan import EdgeVersion

        g, view, counters = self._setup()
        view.fetch(0, EdgeVersion.NEW)  # owned + cached locally
        assert counters.bytes_by_channel[Channel.PEER] == 0
        assert view.hits == 1


class TestCommModel:
    def test_allreduce_delta_zero_single_device(self):
        assert allreduce_delta_ns(default_cluster(1), num_plans=6) == 0.0

    def test_comm_report_aggregates(self):
        a, b = AccessCounters(), AccessCounters()
        a.record_access(Channel.PEER, 0, 256, transactions=2)
        b.record_access(Channel.ZERO_COPY, 1, 128, transactions=1)
        report = comm_report([a, b], allreduce_ns=42.0)
        assert report.peer_bytes == 256
        assert report.peer_transactions == 2
        assert report.zero_copy_bytes == 128
        assert report.allreduce_ns == 42.0
        assert report.peer_fraction == pytest.approx(256 / 384)
        assert report.to_dict()["peer_bytes"] == 256


class TestFactoryRouting:
    def test_devices_routes_to_fleet_engine(self):
        g0, _ = _stream(WORKLOADS[0][1], batches=1)
        system = make_system("GCSM", g0, TRIANGLE, devices=2, partitioner="range")
        assert isinstance(system.fleet, FleetPlacement)
        assert system.num_devices == 2
        assert system.fleet.partitioner.name == "range"

    def test_default_stays_single_gpu(self):
        g0, _ = _stream(WORKLOADS[0][1], batches=1)
        system = make_system("GCSM", g0, TRIANGLE)
        assert isinstance(system, GCSMEngine)
        assert system.fleet is None and system.num_devices == 1
