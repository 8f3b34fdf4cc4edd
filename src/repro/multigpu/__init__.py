"""Multi-GPU sharded execution of the GCSM pipeline (simulated fleet).

Public surface:

* :class:`~repro.multigpu.engine.FleetPlacement` — the fan-out plug of
  :class:`~repro.core.engine.GCSMEngine`: what ``devices=N`` (``N > 1``)
  runs for the pack and match stages.
* :mod:`~repro.multigpu.partition` — hash / range / frequency-aware /
  min-cut vertex-ownership strategies.
* :mod:`~repro.multigpu.repartition` — online repartitioning: sticky
  ownership, EWMA access-heat tracking, drift-triggered incremental
  migration priced as interconnect traffic.
* :mod:`~repro.multigpu.shard` — per-device state and the peer-read path.
* :mod:`~repro.multigpu.comm` — interconnect cost model (PEER reads,
  ΔM all-reduce) and per-batch traffic reports.
"""

from repro.gpu.counters import Channel
from repro.multigpu.comm import CommReport, allreduce_delta_ns, comm_report
from repro.multigpu.engine import FleetBatchResult, FleetPlacement, MultiFleetBatchResult
from repro.multigpu.partition import (
    PARTITIONER_NAMES,
    FrequencyPartitioner,
    HashPartitioner,
    MincutPartitioner,
    Partitioner,
    RangePartitioner,
    adjacency_csr,
    make_partitioner,
    refine_labels,
    weighted_cut,
)
from repro.multigpu.repartition import (
    OwnershipManager,
    RepartitionConfig,
    RepartitionReport,
    normalize_repartition,
)
from repro.multigpu.shard import (
    LoadBalanceReport,
    Shard,
    ShardBatchReport,
    ShardedDeviceView,
)

__all__ = [
    "FleetPlacement",
    "FleetBatchResult",
    "MultiFleetBatchResult",
    "LoadBalanceReport",
    "ShardBatchReport",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "FrequencyPartitioner",
    "MincutPartitioner",
    "adjacency_csr",
    "weighted_cut",
    "refine_labels",
    "make_partitioner",
    "PARTITIONER_NAMES",
    "OwnershipManager",
    "RepartitionConfig",
    "RepartitionReport",
    "normalize_repartition",
    "Shard",
    "ShardedDeviceView",
    "CommReport",
    "comm_report",
    "allreduce_delta_ns",
    "Channel",
]
