"""The fleet's pack and read path as its devices would do them alone.

A fleet (:class:`~repro.multigpu.engine.FleetPlacement`) packs one union
cache in one pass over an owner column and classifies every access with one
probe of it.  The oracles here are the per-device twins it replaced: each
shard cuts its owned prefix of the one rank to its own budget
(:func:`~repro.core.cache.select_within_budget`), packs and prices its own
cache (:func:`~repro.core.engine.pack_step`), and an access probes its
owner's cache at that cache's cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.cache import select_within_budget
from repro.core.dcsr import DcsrCache, probe_cost
from repro.core.engine import pack_step
from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Accesses, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.multigpu.shard import ShardedDeviceView

__all__ = ["shard_packs", "sharded_view", "classify_by_owner"]


def shard_packs(graph: DynamicGraph, ranked: np.ndarray, owner: np.ndarray,
                num_devices: int, budget_bytes: int,
                device: DeviceConfig) -> list[tuple[np.ndarray, DcsrCache, float]]:
    """Every shard's pack on its own, shard by shard: the owned prefix of the
    global rank fitted to the shard's budget, packed and DMA'd over its own
    link — ``(selected, cache, pack_ns)`` per shard."""
    packs = []
    for shard in range(num_devices):
        owned = ranked[owner[ranked] == shard]
        selected = select_within_budget(graph, owned, budget_bytes)
        packs.append((selected, *pack_step(graph, selected, device)))
    return packs


def sharded_view(graph: DynamicGraph, device: DeviceConfig, counters: AccessCounters,
                 caches: list[DcsrCache], owner: np.ndarray, view=ShardedDeviceView):
    """A fleet's view (``view``, a :class:`ShardedDeviceView` type) over
    per-shard caches, each holding only vertices its shard owns: their
    union, each shard's probe at its own cache's cost."""
    union = DcsrCache.build(graph, np.concatenate([c.rowidx for c in caches]))
    return view(graph, device, counters, union,
                probe_cost([c.num_cached for c in caches]), owner)


def classify_by_owner(caches: list[DcsrCache], owner: np.ndarray, device: DeviceConfig,
                      vertices: np.ndarray, lengths: np.ndarray,
                      reader: np.ndarray) -> Accesses:
    """The sharded routing, one access at a time: probe the owner's cache at
    its cost; a local hit is a global read, a remote hit a peer read, a miss
    a zero-copy read from pinned host memory."""
    n = vertices.shape[0]
    channel, transactions = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    ops = np.zeros(n, dtype=np.int64)
    nbytes = np.asarray(lengths, dtype=np.int64) * BYTES_PER_NEIGHBOR
    for i, (v, size, by) in enumerate(zip(vertices.tolist(), nbytes.tolist(), reader.tolist())):
        cache = caches[owner[v]]
        ops[i] = cache.probe_cost_ops()
        if v not in cache.rowidx:
            channel[i] = Channel.ZERO_COPY.slot
            transactions[i] = -(-size // device.zero_copy_line_bytes)
        elif owner[v] == by:
            channel[i], transactions[i] = Channel.GPU_GLOBAL.slot, 1
        else:
            channel[i] = Channel.PEER.slot
            transactions[i] = -(-size // device.peer_line_bytes)
    return Accesses(channel, nbytes, transactions, ops)
