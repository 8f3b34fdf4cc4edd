"""The fan-out plug: the engine's pack and match stages over N devices.

:class:`FleetPlacement` is what ``GCSMEngine(devices=N)`` runs for
``N > 1``: the ``cached`` placement fanned out over a fleet.  Every host
stage (update, prefilter, reorganize) and every schedule is the engine's own.

* **Expand** — view-free, shared: the kernel's joins run once for the
  whole batch, ahead of the estimate (the engine skeleton's, as on one
  device).
* **Estimate** — host-side, shared: one random-walk pass reading that
  expansion; its estimates drive cache selection.
* **Own** — host-side, folded into the pack phase: vertex ``v`` belongs to
  shard ``hash(v) mod N`` (:func:`hash_owners`).
* **Pack** — per shard: each device selects the hot vertices *it owns*
  within its own buffer budget, packs its DCSR slice, and uploads over its
  own host link.  Phase time is the slowest shard (uploads overlap).
* **Match** — one settle for the fleet: directed roots are keyed by the
  shard owning their first endpoint, and the one expansion is settled once
  through the fleet's :class:`~repro.multigpu.shard.ShardedDeviceView`
  (:func:`~repro.core.matching.settle` carries the shard as a key column),
  every access classified against the shard reading it — local cache /
  peer caches / host zero-copy — and each shard's counters its split of
  the block.  Phase time is the slowest shard, plus the ΔM all-reduce
  (reported separately as ``comm_ns``).

Pack reuses the single-device internals
(:func:`~repro.core.engine.pack_step`) shard by shard in shard order, and
match the shared matching kernel.  With ``devices=1`` the engine never
loads this module: the single-device body *is* the one-device fleet, by
construction.  For ``N > 1`` match counts stay identical (roots are a
disjoint cover; rows are independent in the join, so a shard's split is
what a launch over its roots alone returns) while timing shows sub-linear
speedup dominated by PEER traffic and the serial host phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import BatchResult, CachedPlacement, GCSMEngine, MatchOutcome
from repro.core.multiquery import MultiBatchResult
from repro.gpu.clock import simulated_time_ns
from repro.gpu.counters import AccessCounters, Channel
from repro.multigpu.comm import CommReport, allreduce_delta_ns, comm_report
from repro.multigpu.shard import (
    LoadBalanceReport,
    Shard,
    ShardBatchReport,
    ShardedDeviceView,
)

__all__ = ["FleetPlacement", "FleetBatchResult", "MultiFleetBatchResult", "hash_owners"]


@dataclass
class FleetBatchResult(BatchResult):
    """A :class:`~repro.core.engine.BatchResult` plus fleet diagnostics.

    The extras carry the per-shard load-balance report and cross-device
    traffic summary (defaults on a certified-skip batch: no shard ran).
    """

    shard_reports: list[ShardBatchReport] = field(default_factory=list)
    load_balance: LoadBalanceReport | None = None
    comm: CommReport | None = None


@dataclass
class MultiFleetBatchResult(MultiBatchResult, FleetBatchResult):
    """A rulebook's batch on a fleet: the per-query extras and the fleet
    diagnostics on one result."""


@dataclass
class FleetOutcome(MatchOutcome):
    """The fleet-wide match: stats, counters and the fleet's view of the one
    settle, the slowest shard's time, and each shard's."""

    shard_ns: list[float] = field(default_factory=list)


#: Knuth's multiplicative hash constant (2^32 / phi), mod 2^32.
_HASH_MULT = np.uint64(2654435761)
_HASH_MASK = np.uint64(0xFFFFFFFF)


def hash_owners(num_vertices: int, num_devices: int) -> np.ndarray:
    """The owner map: multiplicative hash of the vertex id, mod ``num_devices``."""
    ids = np.arange(num_vertices, dtype=np.uint64)
    mixed = (ids * _HASH_MULT) & _HASH_MASK
    return (mixed % np.uint64(num_devices)).astype(np.int64)


class FleetPlacement(CachedPlacement):
    """The ``cached`` data path sharded across N simulated devices.

    Vertex ``v`` is owned by shard :func:`hash_owners` ``(v)``: balanced and
    oblivious, so neighbours land on random shards.  The owner map routes
    roots and decides which shard caches a hot list; it never changes
    results, only where the bytes flow.  The per-device
    ``cache_budget_bytes`` is an :class:`~repro.core.engine.EngineConfig`
    field, documented there.
    """

    result_type = FleetBatchResult

    def __init__(self, engine: GCSMEngine) -> None:
        super().__init__(engine)
        self.shards = [
            Shard(i, dev, engine.cache_budget_bytes)
            for i, dev in enumerate(engine.cluster.devices())
        ]

    # ------------------------------------------------------------------
    def prepare(self, batch, decision, breakdown, expansion):
        """Shared estimate, the owner map, per-shard pack."""
        engine, graph = self.engine, self.engine.graph
        estimation = self.estimate(batch, decision, breakdown, expansion)

        # the owner map is host work folded into the pack phase
        owner_counters = AccessCounters()
        owner_counters.record_compute(graph.num_vertices)
        owner = hash_owners(graph.num_vertices, engine.num_devices)
        owner_ns = simulated_time_ns(owner_counters, engine.device, platform="cpu")

        # own host links: uploads overlap, the phase is the slowest shard
        ranked = engine.policy.rank(graph, estimation)
        for shard in self.shards:
            shard.select_and_pack(graph, ranked, owner)
        breakdown.pack_ns = owner_ns + max(s.pack_ns for s in self.shards)
        return estimation, owner

    def view(self, graph, counters, shipped):
        return ShardedDeviceView(
            graph, self.engine.device, counters, [s.cache for s in self.shards], shipped[1]
        )

    def match(self, batch, shipped, decision, sinks, expansion):
        """One settle through the fleet's view, every root keyed by its shard
        (so a sink sees the shards in order), then the ΔM all-reduce; the
        phase is the slowest shard's."""
        engine = self.engine
        outcome = super().match(batch, shipped, decision, sinks, expansion)
        shard_ns = [
            simulated_time_ns(counters, shard.device, platform="gpu")
            for shard, counters in zip(self.shards, outcome.view.shard_counters)
        ]
        return FleetOutcome(
            outcome.stats, outcome.counters, max(shard_ns), outcome.view,
            allreduce_delta_ns(engine.cluster, engine.query_set.num_plans), shard_ns,
        )

    def bookkeeping(self, shipped, outcome):
        if outcome is None:
            return {}
        shards, view = self.shards, outcome.view
        roots, hits, misses, remote_hits, remote_misses = view.tally.tolist()
        return dict(
            estimation=shipped[0],
            cached_vertices=np.concatenate([s.selected for s in shards]),
            cache_bytes=sum(s.cache.total_bytes for s in shards),
            cache_hits=sum(hits) + sum(remote_hits),
            cache_misses=sum(misses) + sum(remote_misses),
            shard_reports=[
                ShardBatchReport(
                    shard_id=s.shard_id,
                    roots_processed=roots[i],
                    match_ns=outcome.shard_ns[i],
                    pack_ns=s.pack_ns,
                    cache_bytes=s.cache.total_bytes,
                    cached_vertices=s.cache.num_cached,
                    local_hits=hits[i],
                    local_misses=misses[i],
                    remote_hits=remote_hits[i],
                    remote_misses=remote_misses[i],
                    peer_bytes=view.shard_counters[i].bytes_by_channel[Channel.PEER],
                )
                for i, s in enumerate(shards)
            ],
            load_balance=LoadBalanceReport(
                shard_match_ns=tuple(outcome.shard_ns), shard_roots=tuple(roots),
            ),
            comm=comm_report(view.shard_counters, outcome.comm_ns),
        )
