"""Inter-device communication model: peer reads and the ΔM all-reduce.

Two kinds of cross-device traffic exist in the sharded pipeline:

* **fine-grained peer reads** — when a shard's matching walk crosses an
  ownership boundary into a remote shard's *cached* list.  These are
  recorded per access on :data:`~repro.gpu.counters.Channel.PEER` by
  :class:`~repro.multigpu.shard.ShardedDeviceView` and priced as kernel
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
the interconnect-sensitivity experiments sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import ClusterConfig

__all__ = ["allreduce_delta_ns", "CommReport", "comm_report"]

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
