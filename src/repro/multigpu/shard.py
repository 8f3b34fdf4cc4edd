"""The sharded kernel data path and the fleet's straggler report.

:class:`ShardedDeviceView` is the fleet's one view: GCSM's cached view with
the multi-GPU read path, each access classified against the shard that
reads it and each shard's counters its split of the block.  A fleet packs
one :class:`~repro.core.dcsr.DcsrCache`, the union of every shard's hot
lists, and a vertex is cached only by the shard owning it, so a hit in the
union is exactly a hit in the owner's slice.  For a vertex its reader owns
it is byte-for-byte the single-GPU view (probe own rowidx; hit → GPU
global, miss → host zero-copy).  For a remote-owned vertex the kernel
probes the owner's (replicated, tiny) rowidx directory: a remote *hit* is
served over the peer interconnect (:data:`~repro.gpu.counters.Channel.PEER`),
a remote *miss* falls back to host zero-copy — the host graph is pinned and
visible to every device, so an uncached list never takes two hops.  Either
way the probe costs the owner's directory's binary search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import CachedDeviceView
from repro.core.dcsr import DcsrCache
from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Accesses, Channel, tabulate
from repro.gpu.device import DeviceConfig

__all__ = ["ShardedDeviceView", "LoadBalanceReport"]

_GLOBAL, _PEER = Channel.GPU_GLOBAL.slot, Channel.PEER.slot


class ShardedDeviceView(CachedDeviceView):
    """The fleet's one view (``devices > 1``; one device runs the plain
    :class:`~repro.core.cache.CachedDeviceView`): a root is read by the shard
    owning its first endpoint, and every access by its root's shard.

    ``cache`` is the union of the shards' slices and ``probe_ops[s]`` the
    cost of a probe of shard ``s``'s own directory.  ``counters`` take the
    whole block (``hits`` / ``misses`` tally it), ``shard_counters[s]`` the
    totals of the split shard ``s`` read (no histogram: they price the
    shard), and ``shard_roots[s]`` the roots shard ``s`` settled."""

    def __init__(self, graph: DynamicGraph, device: DeviceConfig, counters: AccessCounters,
                 cache: DcsrCache, probe_ops: np.ndarray, owner: np.ndarray) -> None:
        super().__init__(graph, device, counters, cache)
        self.probe_ops, self.owner, self.num_readers = probe_ops, owner, len(probe_ops)
        self.shard_counters = [AccessCounters() for _ in probe_ops]
        self.shard_roots = np.zeros(len(probe_ops), dtype=np.int64)

    def readers(self, roots: np.ndarray) -> np.ndarray:
        """The shard that settles each ``(r, 2)`` root: its first endpoint's owner."""
        return self.owner[roots[:, 0]]

    def charge(self, roots, outputs, ops) -> None:
        super().charge(roots, outputs, ops)
        self.shard_roots += roots
        for counters, out, op in zip(self.shard_counters, outputs.tolist(), ops.tolist()):
            counters.record_output(out)
            counters.record_compute(op)

    def fetch_block(self, vertices, lengths, reader):
        """Classify the block once and record it whole; each shard's counters
        add the shard's row of the block tabulated by reader."""
        acc = self.classify(vertices, lengths, reader)
        self.counters.record(vertices, acc)
        for counters, row in zip(self.shard_counters, tabulate(acc, reader, self.num_readers)):
            counters.accumulate(row)
        return acc

    def classify(self, vertices: np.ndarray, lengths: np.ndarray, reader: np.ndarray) -> Accesses:
        """The sharded routing, per access: one probe of the union decides hit
        or miss; a hit on a remote-owned vertex is served over the peer
        interconnect, a miss from pinned host memory — every device reads it
        directly: one zero-copy hop, never peer + host.  Each probe costs
        the owner's directory's search."""
        owners = self.owner[vertices]
        acc = CachedDeviceView.classify(self, vertices, lengths)
        peer = (acc.channel == _GLOBAL) & (owners != reader)
        return acc._replace(
            channel=np.where(peer, _PEER, acc.channel),
            transactions=np.where(peer, self.device.peer_lines(acc.nbytes), acc.transactions),
            ops=self.probe_ops[owners],
        )


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
