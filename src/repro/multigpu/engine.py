"""The fan-out's owner map and result types.

``GCSMEngine(devices=N)`` runs the ``cached`` placement keyed by an owner
column (:class:`~repro.core.engine.CachedPlacement`): vertex ``v`` belongs to
device ``hash(v) mod N`` (:func:`hash_owners`, recomputed per batch and
charged as ``|V|`` host ops to the pack phase).  Match counts never depend on
N; see ``docs/multigpu.md`` for where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import BatchResult
from repro.core.multiquery import MultiBatchResult
from repro.multigpu.comm import CommReport, LoadBalanceReport

__all__ = ["FleetBatchResult", "MultiFleetBatchResult", "hash_owners"]


@dataclass
class FleetBatchResult(BatchResult):
    """A :class:`~repro.core.engine.BatchResult` plus fleet diagnostics.

    The extras carry the load-balance report and the cross-device traffic
    summary (``None`` on a certified-skip batch: no device ran).
    """

    load_balance: LoadBalanceReport | None = None
    comm: CommReport | None = None


@dataclass
class MultiFleetBatchResult(MultiBatchResult, FleetBatchResult):
    """A rulebook's batch on a fleet: the per-query extras and the fleet
    diagnostics on one result."""


#: Knuth's multiplicative hash constant (2^32 / phi), mod 2^32.
_HASH_MULT = np.uint64(2654435761)
_HASH_MASK = np.uint64(0xFFFFFFFF)


def hash_owners(num_vertices: int, num_devices: int) -> np.ndarray:
    """The owner map: multiplicative hash of the vertex id, mod ``num_devices``."""
    ids = np.arange(num_vertices, dtype=np.uint64)
    mixed = (ids * _HASH_MULT) & _HASH_MASK
    return (mixed % np.uint64(num_devices)).astype(np.int64)
