"""Tests for the multi-GPU fan-out plug (``repro.multigpu``).

``GCSMEngine(devices=1)`` *is* the single-device engine — no fleet placement
is loaded, so the N=1 equivalence holds by construction (asserted cheaply
below).  Everything else (the owner map, the peer read path, the collective
model, fleet reports, the one pack against each device packing alone) is
tested on ``devices > 1``.
"""

import numpy as np
import pytest

from repro.core.baselines import make_system
from repro.core.engine import GCSMEngine
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import ClusterConfig, DeviceConfig
from repro.graphs.datasets import DATASETS
from repro.gpu.clock import simulated_time_ns
from repro.multigpu import FleetPlacement, LoadBalanceReport, ShardedDeviceView, hash_owners
from repro.multigpu.comm import allreduce_delta_ns, comm_report
from repro.query import QueryGraph, query_by_name
from repro.testing import sharded_view

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
    """Sharding must never change ΔM, for any N."""

    @pytest.mark.parametrize("devices", [2, 4])
    def test_delta_counts_match_single_gpu(self, devices):
        g0, batches = _stream(WORKLOADS[1][1])
        single = GCSMEngine(g0, TAILED, seed=9)
        fleet = GCSMEngine(g0, TAILED, devices=devices, seed=9)
        for batch in batches:
            a, b = single.process_batch(batch), fleet.process_batch(batch)
            assert a.delta_count == b.delta_count
            # the disjoint root cover preserves total roots too
            assert a.match_stats.roots_processed == b.match_stats.roots_processed

    def test_fleet_reports_populated(self):
        g0, batches = _stream(WORKLOADS[0][1], batches=1)
        fleet = GCSMEngine(g0, TRIANGLE, devices=4, seed=9)
        result = fleet.process_batch(batches[0])
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


class TestOwnerMap:
    def test_deterministic_balanced_cover(self):
        owner = hash_owners(400, 4)
        assert owner.dtype == np.int64 and owner.shape == (400,)
        assert np.array_equal(owner, hash_owners(400, 4))
        # an odd multiplier permutes the low bits: every shard gets n / 4
        assert np.bincount(owner, minlength=4).tolist() == [100] * 4

    def test_owner_map_is_charged_to_pack(self):
        g0, batches = _stream(WORKLOADS[0][1], batches=1)
        engine = GCSMEngine(g0, TRIANGLE, devices=2, seed=9)
        shipped = []
        prepare = engine.fleet.prepare

        def keep(*args):
            shipped.append(prepare(*args))
            return shipped[-1]

        engine.fleet.prepare = keep
        result = engine.process_batch(batches[0])
        counters = AccessCounters()
        counters.record_compute(engine.graph.num_vertices)
        owner_ns = simulated_time_ns(counters, engine.device, platform="cpu")
        assert owner_ns > 0
        assert result.breakdown.pack_ns == owner_ns + max(shipped[0].pack_ns)

    def test_fleet_builds_no_dense_frequency_vector(self):
        """The owner map reads no estimate, so a fleet batch leaves the
        estimate's dense ``|V|`` vector unbuilt (it is built when read)."""
        g0, batches = derive_stream(
            DATASETS["FR"].build(0), num_updates=96, batch_size=96, seed=1
        )
        engine = GCSMEngine(g0, query_by_name("Q1"), devices=2, seed=0)
        result = engine.process_batch(batches[0])
        assert result.estimation is not None
        assert "frequencies" not in vars(result.estimation)


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
        assert ClusterConfig(num_devices=1).allreduce_time_ns(64) == 0.0

    def test_allreduce_grows_with_devices(self):
        t = [ClusterConfig(num_devices=n).allreduce_time_ns(64) for n in (2, 4, 8)]
        assert t[0] < t[1] < t[2]

    def test_pcie_peer_reads_cost_more_than_nvlink(self):
        nv = ClusterConfig(num_devices=2, interconnect="nvlink").device()
        pc = ClusterConfig(num_devices=2, interconnect="pcie").device()
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
        from repro.core.dcsr import DcsrCache

        g = DynamicGraph(erdos_renyi(40, 6.0, seed=2))
        owner = np.zeros(g.num_vertices, dtype=np.int64)
        owner[1::2] = 1  # odd vertices owned by shard 1
        caches = [DcsrCache.build(g, np.arange(s, g.num_vertices, 2, dtype=np.int64))
                  for s in (0, 1)]
        counters = AccessCounters()
        view = sharded_view(g, DeviceConfig(), counters, caches, owner)
        return g, view, counters

    @staticmethod
    def read_by_shard_zero(view, v):
        lengths = view.graph.read(np.array([v]), False)[1]
        view.fetch_block(np.array([v]), lengths, np.zeros(1, dtype=np.int64))
        return int(lengths[0])

    def test_remote_cached_read_uses_peer_channel(self):
        g, view, counters = self._setup()
        size = self.read_by_shard_zero(view, 1)  # remote-owned, cached at shard 1
        assert counters.bytes_by_channel[Channel.PEER] == 4 * size > 0
        assert view.shard_counters[0].bytes_by_channel[Channel.PEER] == 4 * size
        assert not view.shard_counters[1].bytes_by_channel[Channel.PEER]
        assert (view.hits, view.misses) == (1, 0)

    def test_local_read_unchanged(self):
        g, view, counters = self._setup()
        size = self.read_by_shard_zero(view, 0)  # owned + cached locally
        assert counters.bytes_by_channel[Channel.PEER] == 0
        assert counters.bytes_by_channel[Channel.GPU_GLOBAL] == 4 * size
        assert (view.hits, view.misses) == (1, 0)


class TestOneSettlePerBatch:
    """A fleet settles each batch's one expansion once, whatever its size
    (it used to settle once per shard), on a single query and a rulebook."""

    @pytest.mark.parametrize("devices", [2, 4])
    def test_settle_is_entered_once_per_batch(self, devices):
        from repro.core.matching import settle
        from repro.core.multiquery import Rulebook
        from repro.testing import count_calls

        g0, batches = _stream(WORKLOADS[1][1], batches=3, batch_size=24)
        rulebook = Rulebook([TAILED, TRIANGLE, PATH3])
        for query in (TAILED, rulebook):
            engine = GCSMEngine(g0, query, devices=devices, seed=9)
            for batch in batches:
                result = []
                calls = count_calls(lambda: result.append(engine.process_batch(batch)),
                                    settle.__code__)
                assert calls == 1
                assert len(result[0].load_balance.shard_roots) == devices


class TestShardCounters:
    """A fleet settles a batch once; each shard's counters and roots are
    what the kernel launched over the shard's roots alone — those whose
    first endpoint it owns — records, read by that shard."""

    def test_each_shard_counts_what_its_roots_read(self):
        from repro.core.dcsr import DcsrCache
        from repro.core.matching import expand, settle
        from repro.core.querytrie import solo_trie
        from repro.query.plan import compile_delta_plans
        from repro.testing.oracles import delta_roots

        g = powerlaw_graph(300, 6.0, max_degree=40, num_labels=2, seed=12)
        g0, batches = derive_stream(g, num_updates=96, batch_size=32, seed=13)
        graph, device = DynamicGraph(g0), DeviceConfig()
        trie = solo_trie(compile_delta_plans(query_by_name("Q1")))
        owner = hash_owners(graph.num_vertices, 3)
        caches = [DcsrCache.build(graph, np.flatnonzero(owner == s)[::2]) for s in range(3)]
        read = np.zeros(3, dtype=np.int64)
        for raw in batches:
            batch = graph.apply_batch(raw)
            fleet = sharded_view(graph, device, AccessCounters(), caches, owner)
            settle(expand(trie, batch, graph), fleet)
            for shard in range(3):
                keep = [
                    owner[delta_roots(node.members[0].plan, batch, graph.labels)[0][:, 0]] == shard
                    for node in trie.levels[0].nodes
                ]
                alone = sharded_view(graph, device, AccessCounters(), caches, owner)
                stats = settle(expand(trie, batch, graph, prefilter=keep), alone)[0][None]
                mine = fleet.shard_counters[shard].summary()
                assert mine == {**alone.counters.summary(), "accesses": 0.0}
                assert fleet.shard_roots[shard] == alone.shard_roots.sum() == stats.roots_processed
                read[shard] += alone.counters.total_access_count
            graph.reorganize()
        assert read.all()  # every shard read something


class TestCommModel:
    def test_allreduce_delta_zero_single_device(self):
        assert allreduce_delta_ns(ClusterConfig(num_devices=1), num_plans=6) == 0.0

    def test_comm_report_aggregates(self):
        a, b = AccessCounters(), AccessCounters()
        a.record_access(Channel.PEER, 0, 256, transactions=2)
        b.record_access(Channel.ZERO_COPY, 1, 128, transactions=1)
        a.merge(b)
        report = comm_report(a, allreduce_ns=42.0)
        assert report.peer_bytes == 256
        assert report.allreduce_ns == 42.0


class TestFactoryRouting:
    def test_devices_routes_to_fleet_engine(self):
        g0, _ = _stream(WORKLOADS[0][1], batches=1)
        system = make_system("GCSM", g0, TRIANGLE, devices=2)
        assert isinstance(system.fleet, FleetPlacement)
        assert system.num_devices == 2

    def test_default_stays_single_gpu(self):
        g0, _ = _stream(WORKLOADS[0][1], batches=1)
        system = make_system("GCSM", g0, TRIANGLE)
        assert isinstance(system, GCSMEngine)
        assert system.fleet is None and system.num_devices == 1


#: a per-device budget that binds on every smoke workload: each shard keeps
#: a strict prefix of its owned ranked vertices on some batch
TIGHT_BUDGET = 1024


def check_against_per_shard_packs(name: str, devices: int, budget: int | None = None) -> None:
    """A fleet's smoke run (``tests/test_parity_digests.py``'s inputs) against
    its devices packing alone (``repro.testing.shard_packs``): after every
    ``prepare`` the cached vertices (shard-major, rank order within a
    shard), each shard's buffer bytes and pack time are the per-shard
    packs', and every access the fleet classifies has the channel,
    transactions and probe ops of the owner's own cache
    (``repro.testing.classify_by_owner``)."""
    from repro.core.multiquery import MultiQueryEngine
    from repro.query.generator import rulebook_suite
    from repro.testing import classify_by_owner, shard_packs
    from tests.test_parity_digests import WORKLOADS as SMOKE, smoke_inputs

    g0, batches = smoke_inputs(name)
    settings = dict(seed=0, devices=devices, cache_budget_bytes=budget)
    engine = (MultiQueryEngine(g0, rulebook_suite(24, num_labels=3, seed=0), **settings)
              if name == "az24" else GCSMEngine(g0, query_by_name(SMOKE[name][1]), **settings))
    fleet, packs, seen = engine.fleet, [], {"cut": 0, "peer": 0, "accesses": 0}
    prepare, classify = fleet.prepare, ShardedDeviceView.classify

    def checked_prepare(*args):
        shipped = prepare(*args)
        ranked = engine.policy.rank(engine.graph, shipped.estimation)
        alone = shard_packs(engine.graph, ranked, shipped.owner, devices,
                            engine.cache_budget_bytes, engine.device)
        assert shipped.selected.tolist() == np.concatenate([s for s, _, _ in alone]).tolist()
        assert shipped.nbytes.tolist() == [cache.total_bytes for _, cache, _ in alone]
        assert shipped.pack_ns.tolist() == [ns for _, _, ns in alone]
        owned = np.bincount(shipped.owner[ranked], minlength=devices)
        seen["cut"] += int((owned > [s.size for s, _, _ in alone]).any())
        packs[:] = [cache for _, cache, _ in alone]
        return shipped

    def checked_classify(view, vertices, lengths, reader):
        acc = classify(view, vertices, lengths, reader)
        want = classify_by_owner(packs, view.owner, view.device, vertices, lengths, reader)
        for column in ("channel", "nbytes", "transactions", "ops"):
            assert getattr(acc, column).tolist() == getattr(want, column).tolist(), column
        seen["peer"] += int((acc.channel == Channel.PEER.slot).sum())
        seen["accesses"] += vertices.size
        return acc

    fleet.prepare = checked_prepare
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShardedDeviceView, "classify", checked_classify)
        for batch in batches:
            engine.process_batch(batch)
    assert seen["accesses"] and seen["peer"]  # the checks had reads to check
    assert bool(seen["cut"]) == (budget is not None)  # a tight budget binds


class TestPerShardPackOracle:
    """The fleet packs one union cache in one pass over an owner column; it
    equals every device selecting, packing and pricing its own, and its one
    probe of the union equals a probe of the owner's cache."""

    @pytest.mark.parametrize("budget", [None, TIGHT_BUDGET], ids=["default", "tight"])
    @pytest.mark.parametrize("devices", [2, 4])
    @pytest.mark.parametrize("name", ["fr", "ca", "sf3k", "az24"])
    def test_the_fleet_packs_as_its_devices_alone(self, name, devices, budget):
        check_against_per_shard_packs(name, devices, budget)
