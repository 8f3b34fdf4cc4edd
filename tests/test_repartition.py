"""Tests for online repartitioning (``repro.multigpu.repartition``).

Three layers: the config normalizer (CLI/engine argument forms), the
:class:`OwnershipManager` unit behavior (EWMA heat, due-schedule, drift
detection, payback-filtered migration priced as interconnect traffic), and
the end-to-end invariant — a repartitioning fleet recovers its cut-rate
after a hotness drift while ΔM stays bit-identical to a single GPU.
"""

import numpy as np
import pytest

from repro.core.engine import GCSMEngine
from repro.gpu.counters import AccessCounters
from repro.gpu.device import DeviceConfig
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.multigpu import (
    OwnershipManager,
    RepartitionConfig,
    normalize_repartition,
)
from repro.query import QueryGraph

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


class TestNormalize:
    def test_off_forms(self):
        assert normalize_repartition(None) is None
        assert normalize_repartition(False) is None

    def test_true_gives_defaults(self):
        cfg = normalize_repartition(True)
        assert cfg == RepartitionConfig()

    def test_mapping_overrides(self):
        cfg = normalize_repartition({"every": 2, "threshold": 0.1})
        assert cfg.every == 2
        assert cfg.threshold == 0.1
        assert cfg.horizon == RepartitionConfig().horizon  # untouched knob

    def test_config_passthrough(self):
        cfg = RepartitionConfig(every=7)
        assert normalize_repartition(cfg) is cfg

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            normalize_repartition({"cadence": 3})

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            normalize_repartition("every-batch")


def _manager(**overrides) -> OwnershipManager:
    cfg = RepartitionConfig(**overrides)
    return OwnershipManager(num_devices=2, config=cfg, device=DeviceConfig())


def _graph(n=200, seed=3) -> DynamicGraph:
    return DynamicGraph(powerlaw_graph(n, 8.0, max_degree=40, seed=seed))


class TestOwnershipManager:
    def test_ewma_folds_and_grows(self):
        mgr = _manager(ewma=0.5)
        mgr.observe(np.array([8.0, 0.0]))
        assert mgr.heat.tolist() == [4.0, 0.0]
        mgr.observe(np.array([8.0, 0.0, 2.0]))  # graph grew by one vertex
        assert mgr.heat.tolist() == [6.0, 0.0, 1.0]
        assert mgr.batches_seen == 2

    def test_not_due_is_a_no_op(self):
        mgr = _manager(every=4)
        g = _graph()
        owner = np.arange(g.num_vertices, dtype=np.int64) % 2
        mgr.observe(np.ones(g.num_vertices))  # batches_seen = 1, not % 4
        new, rep = mgr.step(g, owner)
        assert new is owner
        assert not rep.evaluated and not rep.triggered
        assert rep.repartition_ns == 0.0

    def test_single_device_never_evaluates(self):
        cfg = RepartitionConfig(every=1)
        mgr = OwnershipManager(num_devices=1, config=cfg, device=DeviceConfig())
        g = _graph()
        mgr.observe(np.ones(g.num_vertices))
        _, rep = mgr.step(g, np.zeros(g.num_vertices, dtype=np.int64))
        assert not rep.evaluated

    def test_below_threshold_keeps_map(self):
        mgr = _manager(every=1, threshold=0.99, imbalance_threshold=100.0)
        g = _graph()
        owner = np.arange(g.num_vertices, dtype=np.int64) % 2
        mgr.observe(g.degrees_new().astype(float))
        counters = AccessCounters()
        new, rep = mgr.step(g, owner, counters)
        assert rep.evaluated and not rep.triggered
        assert np.array_equal(new, owner)
        assert rep.cut_rate_before == rep.cut_rate_after
        assert counters.compute_ops > 0  # evaluation is host work

    def test_drift_triggers_paid_migration(self):
        mgr = _manager(every=1, threshold=0.0, horizon=100.0)
        g = _graph()
        # deliberately terrible sticky map: alternating owners cut ~half
        # the heat-weighted edges, far above any sane threshold
        owner = np.arange(g.num_vertices, dtype=np.int64) % 2
        mgr.observe(g.degrees_new().astype(float))
        counters = AccessCounters()
        new, rep = mgr.step(g, owner, counters)
        assert rep.evaluated and rep.triggered
        assert rep.moved > 0
        assert rep.migration_bytes > 0
        assert rep.repartition_ns > 0.0  # migration is not free
        assert rep.cut_rate_after < rep.cut_rate_before
        assert int((new != owner).sum()) == rep.moved

    def test_zero_horizon_blocks_all_moves(self):
        mgr = _manager(every=1, threshold=0.0, horizon=0.0)
        g = _graph()
        owner = np.arange(g.num_vertices, dtype=np.int64) % 2
        mgr.observe(g.degrees_new().astype(float))
        new, rep = mgr.step(g, owner)
        # a move can never repay its migration bytes within zero batches
        assert rep.triggered and rep.moved == 0
        assert rep.repartition_ns == 0.0
        assert np.array_equal(new, owner)


class TestEndToEnd:
    def _stream(self, batches=6, batch_size=32):
        g = powerlaw_graph(400, 8.0, max_degree=60, num_labels=1, seed=21)
        return derive_stream(
            g, num_updates=batches * batch_size, batch_size=batch_size, seed=7
        )

    def test_repartitioning_fleet_matches_single_gpu(self):
        g0, batches = self._stream()
        single = GCSMEngine(g0, TRIANGLE, seed=9)
        fleet = GCSMEngine(
            g0, TRIANGLE, devices=2, partitioner="mincut", seed=9,
            repartition={"every": 1, "threshold": 0.0,
                         "imbalance_threshold": 1.0, "horizon": 100.0},
        )
        reports = []
        for batch in batches:
            a, b = single.process_batch(batch), fleet.process_batch(batch)
            assert a.delta_count == b.delta_count  # ΔM bit-identical
            reports.append(b)
        # the forced-trigger config must have replanned at least once, and
        # every migration shows up in the dedicated time lane
        evaluated = [r.repartition for r in reports if r.repartition is not None]
        assert any(r.evaluated for r in evaluated)
        for r, rep in zip(reports, [x.repartition for x in reports]):
            if rep is not None and rep.moved:
                assert r.breakdown.repartition_ns >= rep.repartition_ns > 0.0

    def test_cut_rate_recovers_after_drift(self):
        g0, batches = self._stream(batches=8)
        fleet = GCSMEngine(
            g0, TRIANGLE, devices=2, partitioner="mincut", seed=9,
            repartition={"every": 2, "threshold": 0.05, "horizon": 50.0},
        )
        rates = []
        for batch in batches:
            rep = fleet.process_batch(batch).repartition
            if rep is not None and rep.triggered:
                rates.append((rep.cut_rate_before, rep.cut_rate_after))
        # every replan must leave the heat-weighted cut no worse than it
        # found it (refinement only accepts cut-reducing moves)
        for before, after in rates:
            assert after <= before

    def test_repartition_off_keeps_report_none(self):
        g0, batches = self._stream(batches=2)
        fleet = GCSMEngine(g0, TRIANGLE, devices=2, seed=9)
        for batch in batches:
            assert fleet.process_batch(batch).repartition is None
