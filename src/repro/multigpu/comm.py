"""Inter-device communication model and the fleet's per-batch reports.

Two kinds of cross-device traffic exist in the sharded pipeline:

* **fine-grained peer reads** — when a shard's matching walk crosses an
  ownership boundary into a remote shard's *cached* list.  These are
  recorded per access on :data:`~repro.gpu.counters.Channel.PEER` by
  the fleet's :class:`~repro.core.cache.CachedDeviceView` and priced as kernel
  stalls by :func:`~repro.gpu.clock.simulated_time_ns` (same reasoning as
  zero-copy: latency-bound single-list reads do not overlap with compute);
* **the per-batch collective** — each shard produces its partial signed
  ΔM_i per plan; a ring all-reduce combines them into the batch's ΔM.
  Payload is tiny (a handful of int64 counters), so the collective is
  latency-dominated: ``2(N-1)`` steps of
  :attr:`~repro.gpu.device.ClusterConfig.allreduce_latency_ns` each.

Both models are deliberately *knob-sensitive*: switching the
:class:`~repro.gpu.device.ClusterConfig` interconnect between ``nvlink``
and ``pcie`` re-prices every PEER line and all-reduce step, which is what
the interconnect-sensitivity experiments sweep.  A fleet batch reports
both (:class:`CommReport`) and its straggler (:class:`LoadBalanceReport`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import ClusterConfig

__all__ = ["allreduce_delta_ns", "CommReport", "comm_report", "LoadBalanceReport"]

#: bytes per reduced counter (int64 partial ΔM per plan, plus the total)
_COUNTER_BYTES = 8


def allreduce_delta_ns(cluster: ClusterConfig, num_plans: int) -> float:
    """Simulated cost of all-reducing the per-plan signed counts.

    Zero on a single device — there is nothing to combine, so the N=1
    pipeline's timing is untouched by the collective model.
    """
    payload = (num_plans + 1) * _COUNTER_BYTES
    return cluster.allreduce_time_ns(payload)


@dataclass(frozen=True)
class CommReport:
    """Cross-device traffic of one batch: the fleet's peer bytes and the ΔM
    all-reduce."""

    peer_bytes: int
    allreduce_ns: float


def comm_report(counters: AccessCounters, allreduce_ns: float) -> CommReport:
    """The fleet's cross-device traffic for one batch, from the counters of
    its one settled block."""
    return CommReport(counters.bytes_by_channel[Channel.PEER], allreduce_ns)


@dataclass(frozen=True)
class LoadBalanceReport:
    """Per-batch straggler diagnosis of the fleet (the scaling table's
    imbalance column): max/mean shard match time and who the straggler is."""

    shard_match_ns: tuple[float, ...]
    shard_roots: tuple[int, ...]

    @property
    def num_devices(self) -> int:
        return len(self.shard_match_ns)

    @property
    def max_ns(self) -> float:
        return max(self.shard_match_ns) if self.shard_match_ns else 0.0

    @property
    def mean_ns(self) -> float:
        return (
            sum(self.shard_match_ns) / len(self.shard_match_ns)
            if self.shard_match_ns
            else 0.0
        )

    @property
    def imbalance(self) -> float:
        """max/mean shard match time; 1.0 is a perfectly balanced fleet.

        An idle fleet (every shard's match time zero — e.g. all roots
        masked away) is *defined* as perfectly balanced: 1.0, not 0/0.
        """
        return self.max_ns / self.mean_ns if self.mean_ns else 1.0

    @property
    def straggler(self) -> int | None:
        """Shard id of the slowest device, or ``None`` on an idle fleet
        (all shard match times zero: nobody straggled)."""
        if not self.shard_match_ns or self.max_ns == 0.0:
            return None
        return int(max(range(len(self.shard_match_ns)),
                       key=lambda i: self.shard_match_ns[i]))

    def to_dict(self) -> dict:
        return {
            "num_devices": self.num_devices,
            "shard_match_ns": list(self.shard_match_ns),
            "shard_roots": list(self.shard_roots),
            "max_ns": self.max_ns,
            "mean_ns": self.mean_ns,
            "imbalance": self.imbalance,
            "straggler": self.straggler,
        }
