"""Online repartitioning: ownership drift tracking + incremental migration.

The static partitioners re-place every vertex from scratch each batch —
free in the cost model only because the per-shard caches are rebuilt and
re-shipped every batch anyway.  That stops being true the moment placement
is *stateful*: a streaming workload whose hot set drifts (today's hot
community is not yesterday's) either keeps a stale owner map (rising
cut-rate) or pays real interconnect bytes to move vertex lists between
shards.  This module models exactly that trade:

* :class:`OwnershipManager` keeps the owner map **sticky** across batches
  and tracks per-vertex access heat as an EWMA over the per-batch match
  counters (:meth:`~repro.gpu.counters.AccessCounters.vertex_access_bytes`).
* Every ``every`` batches it measures drift: the heat-weighted cut-rate of
  the current map and the per-shard heat imbalance.  Below threshold the
  map stands (the evaluation costs only host compute).
* Above threshold it computes an **incremental migration plan** — a
  bounded :func:`~repro.multigpu.partition.refine_labels` pass warm-started
  from the current map with heat weights, where a vertex may only move if
  its per-batch cut-weight gain repays its migration bytes within
  ``horizon`` batches (the payback filter).
* Accepted moves are charged to the cost model as PEER traffic (the
  vertex's packed neighbor list crosses the interconnect) plus a DMA
  owner-map broadcast, surfaced as ``TimeBreakdown.repartition_ns`` and
  overlapped by the pipelined engine's host lane.

Placement never changes results: ΔM / MatchStats stay bit-identical to any
other partitioner (fuzzer-enforced via the ``GCSM+repart@N:mincut`` spec).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.counters import AccessCounters
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.graphs.dynamic_graph import DynamicGraph
from repro.multigpu.partition import adjacency_csr, refine_labels, weighted_cut

__all__ = [
    "RepartitionConfig",
    "RepartitionReport",
    "OwnershipManager",
    "normalize_repartition",
]

#: bytes to ship one owner-map entry in the post-migration broadcast
OWNER_ENTRY_BYTES = 8


@dataclass(frozen=True)
class RepartitionConfig:
    """Knobs of the online repartitioning layer.

    every:
        Evaluate drift every N batches (the off-batches only fold the new
        heat sample into the EWMA).
    threshold:
        Heat-weighted cut-rate above which a replan is attempted — the
        fraction of access heat flowing over cut edges.
    imbalance_threshold:
        Per-shard heat-mass max/mean above which a replan is attempted even
        when the cut looks fine (a drifted hot set piling onto one shard).
    ewma:
        Smoothing factor of the per-vertex heat average: ``heat =
        (1 - ewma) * heat + ewma * batch_bytes``.  1.0 reacts instantly,
        small values favor long-lived hotness.
    horizon:
        Payback window in batches: vertex ``v`` may migrate only if its
        per-batch cut-weight gain times ``horizon`` covers its migration
        bytes.
    balance_slack:
        Degree-mass cap slack for the migration plan (migrations must not
        unbalance root routing).
    refine_passes:
        Bound on the label-propagation passes of one replan.
    """

    every: int = 4
    threshold: float = 0.25
    imbalance_threshold: float = 1.5
    ewma: float = 0.5
    horizon: float = 8.0
    balance_slack: float = 0.10
    refine_passes: int = 2

    def to_dict(self) -> dict:
        return {
            "every": self.every,
            "threshold": self.threshold,
            "imbalance_threshold": self.imbalance_threshold,
            "ewma": self.ewma,
            "horizon": self.horizon,
            "balance_slack": self.balance_slack,
            "refine_passes": self.refine_passes,
        }


def normalize_repartition(
    value: "RepartitionConfig | Mapping | bool | None",
) -> RepartitionConfig | None:
    """Resolve the engine/CLI ``repartition=`` argument.

    ``None``/``False`` → off; ``True`` → defaults; a mapping → knob
    overrides; a config → itself.
    """
    if value is None or value is False:
        return None
    if value is True:
        return RepartitionConfig()
    if isinstance(value, RepartitionConfig):
        return value
    if isinstance(value, Mapping):
        try:
            return RepartitionConfig(**dict(value))
        except TypeError as exc:
            raise ValueError(f"bad repartition options: {exc}") from None
    raise ValueError(f"bad repartition argument {value!r}")


@dataclass(frozen=True)
class RepartitionReport:
    """What the ownership manager did for one batch."""

    evaluated: bool = False
    triggered: bool = False
    moved: int = 0
    migration_bytes: int = 0
    cut_rate_before: float = 0.0
    cut_rate_after: float = 0.0
    heat_imbalance: float = 1.0
    repartition_ns: float = 0.0

    def to_dict(self) -> dict:
        return {
            "evaluated": self.evaluated,
            "triggered": self.triggered,
            "moved": self.moved,
            "migration_bytes": self.migration_bytes,
            "cut_rate_before": self.cut_rate_before,
            "cut_rate_after": self.cut_rate_after,
            "heat_imbalance": self.heat_imbalance,
            "repartition_ns": self.repartition_ns,
        }


@dataclass
class OwnershipManager:
    """Sticky owner map + EWMA heat + drift-triggered migration planning.

    One per :class:`~repro.multigpu.engine.FleetPlacement` fleet.  Call
    :meth:`step` at the start of every batch (after the graph update, before
    packing) with the current owner map — it returns the possibly-migrated
    map plus a report; call :meth:`observe` after matching with the merged
    per-vertex byte histogram to feed the heat average.
    """

    num_devices: int
    config: RepartitionConfig
    device: DeviceConfig
    heat: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    batches_seen: int = 0

    def observe(self, access_bytes: np.ndarray) -> None:
        """Fold one batch's per-vertex access bytes into the EWMA heat."""
        n = access_bytes.shape[0]
        if n > self.heat.shape[0]:
            grown = np.zeros(n, dtype=np.float64)
            grown[: self.heat.shape[0]] = self.heat
            self.heat = grown
        a = self.config.ewma
        self.heat[:n] = (1.0 - a) * self.heat[:n] + a * access_bytes
        self.batches_seen += 1

    def step(
        self,
        graph: DynamicGraph,
        owner: np.ndarray,
        counters: AccessCounters | None = None,
    ) -> tuple[np.ndarray, RepartitionReport]:
        """Evaluate drift and maybe migrate; returns ``(owner, report)``.

        The returned report's ``repartition_ns`` prices the migration
        traffic (PEER list shipment + DMA owner broadcast); the host-side
        planning compute goes to ``counters`` like the partitioners'.
        """
        cfg = self.config
        due = (
            self.batches_seen > 0
            and cfg.every > 0
            and self.batches_seen % cfg.every == 0
        )
        if not due or self.num_devices <= 1:
            return owner, RepartitionReport()

        n = graph.num_vertices
        heat = np.zeros(n, dtype=np.float64)
        k = min(n, self.heat.shape[0])
        heat[:k] = self.heat[:k]

        rowptr, cols, ops = adjacency_csr(graph)
        degrees = np.diff(rowptr)
        dmass = degrees.astype(np.float64)
        cut_w, total_w = weighted_cut(rowptr, cols, owner, heat)
        ops += 2 * cols.size
        cut_rate = cut_w / total_w if total_w > 0.0 else 0.0
        shard_heat = np.bincount(owner, weights=heat, minlength=self.num_devices)
        mean_heat = shard_heat.mean()
        imbalance = float(shard_heat.max() / mean_heat) if mean_heat > 0.0 else 1.0

        drifted = cut_rate > cfg.threshold or imbalance > cfg.imbalance_threshold
        if not drifted:
            if counters is not None:
                counters.record_compute(int(ops))
            return owner, RepartitionReport(
                evaluated=True,
                cut_rate_before=cut_rate,
                cut_rate_after=cut_rate,
                heat_imbalance=imbalance,
            )

        # migration cost of each vertex: its packed list + one owner entry
        move_cost = dmass * BYTES_PER_NEIGHBOR + OWNER_ENTRY_BYTES
        cap = (1.0 + cfg.balance_slack) * dmass.sum() / self.num_devices
        new_owner, refine_ops, moved, _, cut_after_w = refine_labels(
            rowptr, cols, owner, heat, dmass, self.num_devices, cap,
            passes=cfg.refine_passes,
            move_cost=move_cost, horizon=cfg.horizon,
        )
        ops += refine_ops
        if counters is not None:
            counters.record_compute(int(ops))
        movers = np.nonzero(new_owner != owner)[0]
        migration_bytes = int(
            degrees[movers].sum() * BYTES_PER_NEIGHBOR
            + movers.size * OWNER_ENTRY_BYTES
        )
        ns = 0.0
        if movers.size:
            # the moved lists cross the interconnect; the updated owner map
            # is broadcast to the fleet over the host links
            ns = self.device.peer_time_ns(self.device.peer_lines(migration_bytes))
            ns += self.device.dma_time_ns(owner.size * OWNER_ENTRY_BYTES, 1)
        cut_after = cut_after_w / total_w if total_w > 0.0 else 0.0
        return new_owner, RepartitionReport(
            evaluated=True,
            triggered=True,
            moved=int(movers.size),
            migration_bytes=migration_bytes,
            cut_rate_before=cut_rate,
            cut_rate_after=cut_after,
            heat_imbalance=imbalance,
            repartition_ns=ns,
        )
