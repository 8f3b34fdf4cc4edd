"""The fan-out plug: the engine's pack and match stages over N devices.

:class:`FleetPlacement` is what ``GCSMEngine(devices=N)`` runs for
``N > 1``: the ``cached`` placement fanned out over a fleet.  Every host
stage (update, prefilter, reorganize) and every schedule is the engine's own.

* **Expand** — view-free, shared: the kernel's joins run once for the
  whole batch, ahead of the estimate (the single-device ``prepare``'s).
* **Estimate** — host-side, shared: one random-walk pass reading that
  expansion; its estimates drive both cache selection *and* the
  frequency-aware partitioner.
* **Pack** — per shard: each device selects the hot vertices *it owns*
  within its own buffer budget, packs its DCSR slice, and uploads over its
  own host link.  Phase time is the slowest shard (uploads overlap).
* **Match** — per shard: directed roots are routed to the shard owning
  their first endpoint, and each shard settles the slice of the one
  expansion its roots grew (:func:`~repro.core.matching.settle` with a
  ``root_mask``), reading local cache / peer caches / host zero-copy.
  Phase time is the slowest shard, plus the ΔM all-reduce (reported
  separately as ``comm_ns``).

Pack and match reuse the single-device internals
(:func:`~repro.core.engine.pack_step`, the shared matching kernel), shard by
shard in shard order.  With ``devices=1`` the engine never
loads this module: the single-device body *is* the one-device fleet, by
construction.  For ``N > 1`` match counts stay identical (roots are a
disjoint cover; rows are independent in the join, so a shard's slice is
what a launch over its roots alone returns) while timing shows sub-linear
speedup dominated by PEER traffic and the serial host phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.engine import BatchResult, CachedPlacement, GCSMEngine, MatchOutcome
from repro.core.multiquery import MultiBatchResult
from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.clock import simulated_time_ns
from repro.gpu.counters import AccessCounters, Channel
from repro.multigpu.comm import CommReport, allreduce_delta_ns, comm_report
from repro.multigpu.partition import _hash_owners, make_partitioner
from repro.multigpu.repartition import (
    OwnershipManager,
    RepartitionReport,
    normalize_repartition,
)
from repro.multigpu.shard import (
    LoadBalanceReport,
    Shard,
    ShardBatchReport,
    ShardedDeviceView,
)

__all__ = ["FleetPlacement", "FleetBatchResult", "MultiFleetBatchResult"]


@dataclass
class FleetBatchResult(BatchResult):
    """A :class:`~repro.core.engine.BatchResult` plus fleet diagnostics.

    The extras carry the per-shard load-balance report and cross-device
    traffic summary (defaults on a certified-skip batch: no shard ran).
    """

    shard_reports: list[ShardBatchReport] = field(default_factory=list)
    load_balance: LoadBalanceReport | None = None
    comm: CommReport | None = None
    repartition: RepartitionReport | None = None


@dataclass
class MultiFleetBatchResult(MultiBatchResult, FleetBatchResult):
    """A rulebook's batch on a fleet: the per-query extras and the fleet
    diagnostics on one result."""


@dataclass
class FleetOutcome(MatchOutcome):
    """The fleet-wide match: merged stats/counters, slowest-shard time, and
    the per-shard outcomes the reports are built from."""

    shards: list[MatchOutcome] = field(default_factory=list)


class FleetPlacement(CachedPlacement):
    """The ``cached`` data path sharded across N simulated devices.

    The fleet knobs (``partitioner``, ``partitioner_opts``, ``repartition``,
    the per-device ``cache_budget_bytes``) are
    :class:`~repro.core.engine.EngineConfig` fields, documented there.  The
    frequency-aware partitioners re-run per batch on that batch's estimates
    (the cache is rebuilt and re-shipped every batch anyway, so re-homing is
    free) — unless ``repartition`` makes ownership **sticky**: then the
    partitioner runs once, new vertices get hash homes, and an
    :class:`~repro.multigpu.repartition.OwnershipManager` tracks per-vertex
    access heat, detects drift, and migrates vertices whose move pays back
    within the horizon — priced as PEER + DMA traffic in
    ``breakdown.repartition_ns``.  Results never change, only placement and
    timing.
    """

    result_type = FleetBatchResult

    def __init__(self, engine: GCSMEngine) -> None:
        super().__init__(engine)
        cfg = engine.config
        self.partitioner = make_partitioner(cfg.partitioner, cfg.partitioner_opts)
        self.repartition_config = normalize_repartition(cfg.repartition)
        self.ownership = (
            OwnershipManager(engine.num_devices, self.repartition_config, engine.device)
            if self.repartition_config is not None
            else None
        )
        self._owner: np.ndarray | None = None  # sticky map (repartition mode)
        self.shards = [
            Shard(i, dev, engine.cache_budget_bytes)
            for i, dev in enumerate(engine.cluster.devices())
        ]

    # ------------------------------------------------------------------
    def prepare(self, batch, decision, breakdown, sinks=None):
        """Shared expansion and estimate, host partition, per-shard pack."""
        engine, graph = self.engine, self.engine.graph
        expansion = engine.query_set.expand(engine, batch, decision, sinks)
        estimation = self.estimate(batch, decision, breakdown, expansion)
        frequencies = estimation.frequencies if estimation is not None else None

        # per-batch re-placement folds into the pack phase; sticky ownership
        # (repartition mode) is its own host stage: repartition_ns
        part_counters = AccessCounters()
        partition_ns = 0.0
        repart_report: RepartitionReport | None = None
        if self.ownership is None:
            owner = self.partitioner.assign(
                graph, frequencies, self.engine.num_devices, part_counters,
                roots=batch.edges,
            )
            partition_ns = simulated_time_ns(part_counters, engine.device, platform="cpu")
        else:
            owner, repart_report = self._sticky_owner_step(
                graph, frequencies, part_counters, batch.edges
            )
            breakdown.repartition_ns = (
                simulated_time_ns(part_counters, engine.device, platform="cpu")
                + (repart_report.repartition_ns if repart_report else 0.0)
            )
            if repart_report is not None:
                # surface the full stage cost (planning compute + migration
                # traffic) to JSON consumers
                repart_report = replace(
                    repart_report, repartition_ns=breakdown.repartition_ns
                )

        # own host links: uploads overlap, the phase is the slowest shard
        ranked = engine.policy.rank(graph, estimation)
        for shard in self.shards:
            shard.select_and_pack(graph, ranked, owner)
        breakdown.pack_ns = partition_ns + max(s.pack_ns for s in self.shards)
        return estimation, owner, repart_report, expansion

    def match(self, batch, shipped, decision, sinks=None):
        """Per-shard settles of the expansion's slices for the routed roots,
        in shard order (so a sink's emission order is deterministic), then
        the ΔM all-reduce."""
        engine, graph = self.engine, self.engine.graph
        owner, expansion = shipped[1], shipped[3]
        caches = [s.cache for s in self.shards]

        def match_one(shard: Shard) -> MatchOutcome:
            counters = AccessCounters()
            view = ShardedDeviceView(
                graph, shard.device, counters, shard.cache,
                shard_id=shard.shard_id, owner=owner, peer_caches=caches,
            )
            # certified-away roots are restricted alike, so skipped-root
            # accounting partitions exactly across the fleet
            stats = engine.query_set.match(
                engine, batch, view, decision, sinks, expansion,
                root_mask=lambda roots: owner[roots[:, 0]] == shard.shard_id,
            )
            ns = simulated_time_ns(counters, shard.device, platform="gpu")
            return MatchOutcome(stats, counters, ns, view)

        outcomes = [match_one(shard) for shard in self.shards]
        total, merged = type(outcomes[0].stats)(), AccessCounters()
        for o in outcomes:
            total.merge(o.stats)
            merged.merge(o.counters)
        return FleetOutcome(
            total, merged, max(o.match_ns for o in outcomes),
            comm_ns=allreduce_delta_ns(engine.cluster, engine.query_set.num_plans),
            shards=outcomes,
        )

    def bookkeeping(self, shipped, outcome):
        if outcome is None:
            return {}
        estimation, _owner, repart_report, _ = shipped
        shards, outcomes = self.shards, outcome.shards
        if self.ownership is not None:
            # feed the heat EWMA with this batch's per-vertex read bytes
            self.ownership.observe(
                outcome.counters.vertex_access_bytes(self.engine.graph.num_vertices)
            )
        return dict(
            estimation=estimation,
            cached_vertices=np.concatenate([s.selected for s in shards]),
            cache_bytes=sum(s.cache.total_bytes for s in shards),
            cache_hits=sum(o.view.total_hits for o in outcomes),
            cache_misses=sum(o.view.total_misses for o in outcomes),
            shard_reports=[
                ShardBatchReport(
                    shard_id=s.shard_id,
                    roots_processed=o.stats.roots_processed,
                    match_ns=o.match_ns,
                    pack_ns=s.pack_ns,
                    cache_bytes=s.cache.total_bytes,
                    cached_vertices=s.cache.num_cached,
                    local_hits=o.view.hits,
                    local_misses=o.view.misses,
                    remote_hits=o.view.remote_hits,
                    remote_misses=o.view.remote_misses,
                    peer_bytes=o.counters.bytes_by_channel[Channel.PEER],
                )
                for s, o in zip(shards, outcomes)
            ],
            load_balance=LoadBalanceReport(
                shard_match_ns=tuple(o.match_ns for o in outcomes),
                shard_roots=tuple(o.stats.roots_processed for o in outcomes),
            ),
            comm=comm_report([o.counters for o in outcomes], outcome.comm_ns),
            repartition=repart_report,
        )

    def _sticky_owner_step(
        self,
        graph: DynamicGraph,
        frequencies: np.ndarray | None,
        counters: AccessCounters,
        roots: np.ndarray | None = None,
    ) -> tuple[np.ndarray, RepartitionReport | None]:
        """Owner map under online repartitioning (sticky across batches).

        First batch: one full partitioner placement.  Later batches: grow
        the map with hash homes for new vertices, then let the ownership
        manager evaluate drift and maybe migrate.
        """
        if self._owner is None:
            self._owner = self.partitioner.assign(
                graph, frequencies, self.engine.num_devices, counters, roots=roots
            )
            return self._owner, None
        n = graph.num_vertices
        if n > self._owner.size:
            old = self._owner.size
            grown = _hash_owners(n, self.engine.num_devices)
            grown[:old] = self._owner
            self._owner = grown
            counters.record_compute(n - old)
        self._owner, report = self.ownership.step(graph, self._owner, counters)
        return self._owner, report
