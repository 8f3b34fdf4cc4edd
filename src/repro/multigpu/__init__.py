"""Multi-GPU sharded execution of the GCSM pipeline (simulated fleet).

Public surface:

* :class:`~repro.multigpu.engine.FleetPlacement` — the fan-out plug of
  :class:`~repro.core.engine.GCSMEngine`: what ``devices=N`` (``N > 1``)
  runs for the pack and match stages.
  Vertex ``v`` is owned by shard ``hash(v) mod N``
  (:func:`~repro.multigpu.engine.hash_owners`).
* :mod:`~repro.multigpu.shard` — the fleet's view (the peer-read path)
  and its load-balance report.
* :mod:`~repro.multigpu.comm` — interconnect cost model (PEER reads,
  ΔM all-reduce) and per-batch traffic reports.
"""

from repro.gpu.counters import Channel
from repro.multigpu.comm import CommReport, allreduce_delta_ns, comm_report
from repro.multigpu.engine import (
    FleetBatchResult,
    FleetPlacement,
    MultiFleetBatchResult,
    hash_owners,
)
from repro.multigpu.shard import LoadBalanceReport, ShardedDeviceView

__all__ = [
    "FleetPlacement",
    "FleetBatchResult",
    "MultiFleetBatchResult",
    "LoadBalanceReport",
    "hash_owners",
    "ShardedDeviceView",
    "CommReport",
    "comm_report",
    "allreduce_delta_ns",
    "Channel",
]
