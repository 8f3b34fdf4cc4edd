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
* **Pack** — one pass over an owner column: the one rank is cut into each
  shard's owned prefix within the shard's own buffer budget (a running
  packed size per owner), the union is packed into one
  :class:`~repro.core.dcsr.DcsrCache`, and each shard's host pack and DMA
  is priced from its own rows, entries and bytes (every card sits on its
  own host link, so uploads overlap).  Phase time is the slowest shard.
* **Match** — one settle for the fleet: directed roots are keyed by the
  shard owning their first endpoint, and the one expansion is settled once
  through the fleet's :class:`~repro.multigpu.shard.ShardedDeviceView`
  (:func:`~repro.core.matching.settle` carries the shard as a key column),
  every access classified against the shard reading it — local cache /
  peer caches / host zero-copy — and each shard's counters its split of
  the block.  Phase time is the slowest shard, plus the ΔM all-reduce
  (reported separately as ``comm_ns``).

With ``devices=1`` the engine never loads this module: the single-device
body *is* the one-device fleet, by construction.  For ``N > 1`` match
counts stay identical (roots are a disjoint cover; rows are independent in
the join, so a shard's split is what a launch over its roots alone returns)
while timing shows sub-linear speedup dominated by PEER traffic and the
serial host phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.dcsr import DcsrCache, packed_size_bytes, probe_cost
from repro.core.engine import BatchResult, CachedPlacement, MatchOutcome, pack_ns
from repro.core.frequency import EstimationResult
from repro.core.multiquery import MultiBatchResult
from repro.gpu.clock import simulated_time_ns
from repro.gpu.counters import AccessCounters
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.multigpu.comm import CommReport, allreduce_delta_ns, comm_report
from repro.multigpu.shard import LoadBalanceReport, ShardedDeviceView

__all__ = ["FleetPlacement", "FleetBatchResult", "MultiFleetBatchResult", "hash_owners"]


@dataclass
class FleetBatchResult(BatchResult):
    """A :class:`~repro.core.engine.BatchResult` plus fleet diagnostics.

    The extras carry the load-balance report and the cross-device traffic
    summary (``None`` on a certified-skip batch: no shard ran).
    """

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


class FleetPack(NamedTuple):
    """What a fleet's ``prepare`` ships: the estimate, every shard's cached
    vertices (shard-major, rank order within a shard) packed as one union
    cache, the owner map, and per shard its directory's probe cost, the
    bytes its own buffer would hold and its pack time."""

    estimation: EstimationResult | None
    selected: np.ndarray
    cache: DcsrCache
    owner: np.ndarray
    probe_ops: np.ndarray
    nbytes: np.ndarray
    pack_ns: np.ndarray


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

    # ------------------------------------------------------------------
    def prepare(self, batch, decision, breakdown, expansion):
        """Shared estimate, the owner map, and every shard's pack in one pass."""
        engine, graph, n = self.engine, self.engine.graph, self.engine.num_devices
        estimation = self.estimate(batch, decision, breakdown, expansion)

        # the owner map is host work folded into the pack phase
        owner_counters = AccessCounters()
        owner_counters.record_compute(graph.num_vertices)
        owner = hash_owners(graph.num_vertices, n)
        owner_ns = simulated_time_ns(owner_counters, engine.device, platform="cpu")

        # each shard keeps the prefix of its owned ranked vertices whose
        # running packed size fits its own budget: select_within_budget per
        # shard (sizes are positive), one grouped cumulative sum for the fleet
        ranked = engine.policy.rank(graph, estimation)
        lengths = graph.run_lengths(ranked)[1]
        shard = owner[ranked]
        order = np.argsort(shard, kind="stable")
        owned = np.bincount(shard, minlength=n)
        spent = np.concatenate(([0], np.cumsum(packed_size_bytes(lengths[order]))))
        before = np.repeat(spent[np.cumsum(owned) - owned], owned)
        kept = order[spent[1:] - before <= engine.cache_budget_bytes]
        shard = shard[kept]
        rows = np.bincount(shard, minlength=n)
        entries = np.bincount(shard, lengths[kept], n).astype(np.int64)
        # what each shard's own buffer would hold: rowidx, the rowptr pairs
        # with their sentinel row, colidx
        nbytes = (3 * rows + 2 + entries) * BYTES_PER_NEIGHBOR
        shard_ns = pack_ns(engine.device, rows, entries, nbytes)
        # own host links: uploads overlap, the phase is the slowest shard
        breakdown.pack_ns = owner_ns + float(shard_ns.max())
        selected = ranked[kept]
        return FleetPack(estimation, selected, DcsrCache.build(graph, selected), owner,
                         probe_cost(rows), nbytes, shard_ns)

    def view(self, graph, counters, shipped):
        return ShardedDeviceView(graph, self.engine.device, counters, shipped.cache,
                                 shipped.probe_ops, shipped.owner)

    def match(self, batch, shipped, decision, sinks, expansion):
        """One settle through the fleet's view, every root keyed by its shard
        (so a sink sees the shards in order), then the ΔM all-reduce; the
        phase is the slowest shard's."""
        engine = self.engine
        outcome = super().match(batch, shipped, decision, sinks, expansion)
        shard_ns = [simulated_time_ns(counters, engine.device, platform="gpu")
                    for counters in outcome.view.shard_counters]
        return FleetOutcome(
            outcome.stats, outcome.counters, max(shard_ns), outcome.view,
            allreduce_delta_ns(engine.cluster, engine.query_set.num_plans), shard_ns,
        )

    def bookkeeping(self, shipped, outcome):
        if outcome is None:
            return {}
        return dict(
            super().bookkeeping(shipped[:3], outcome),
            cache_bytes=int(shipped.nbytes.sum()),
            load_balance=LoadBalanceReport(
                shard_match_ns=tuple(outcome.shard_ns),
                shard_roots=tuple(outcome.view.shard_roots.tolist()),
            ),
            comm=comm_report(outcome.counters, outcome.comm_ns),
        )
