"""Multi-GPU sharded execution of the GCSM pipeline (simulated fleet).

``GCSMEngine(devices=N)`` is the ``cached`` placement keyed by an owner
column (:class:`~repro.core.engine.CachedPlacement`).  This package holds
what only a fleet adds: the owner map (:func:`hash_owners`), the all-reduce
and :class:`CommReport`, :class:`LoadBalanceReport` and the fleet result
types.
"""

from repro.multigpu.comm import CommReport, LoadBalanceReport, allreduce_delta_ns, comm_report
from repro.multigpu.engine import FleetBatchResult, MultiFleetBatchResult, hash_owners

__all__ = [
    "FleetBatchResult",
    "MultiFleetBatchResult",
    "LoadBalanceReport",
    "hash_owners",
    "CommReport",
    "comm_report",
    "allreduce_delta_ns",
]
