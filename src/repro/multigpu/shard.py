"""Per-device shard state and the sharded kernel data path.

Each :class:`Shard` is one simulated GPU: it owns its own
:class:`~repro.gpu.device.DeviceConfig`, its slice of the DCSR cache (built
from the hot vertices *it owns*, within its own device-buffer budget), and
its own DMA engine (every card sits on its own host link, so per-shard
uploads overlap).

:class:`ShardedDeviceView` is the fleet's one view: GCSM's cached view with
the multi-GPU read path, each access classified against the shard that
reads it and each shard's counters its split of the block.  For a vertex
its reader owns it is byte-for-byte the single-GPU view (probe own rowidx;
hit → GPU global, miss → host zero-copy).  For a remote-owned vertex the
kernel probes the owner's (replicated, tiny) rowidx directory: a remote
*hit* is served over the peer interconnect
(:data:`~repro.gpu.counters.Channel.PEER`), a remote *miss* falls back to
host zero-copy — the host graph is pinned and visible to every device, so
an uncached list never takes two hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import select_within_budget
from repro.core.dcsr import DcsrCache
from repro.core.engine import pack_step
from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Accesses, Channel, tabulate
from repro.gpu.device import DeviceConfig
from repro.gpu.views import GraphView
from repro.utils import sorted_unique

__all__ = ["Shard", "ShardedDeviceView", "ShardBatchReport", "LoadBalanceReport"]


@dataclass
class Shard:
    """State of one simulated device in the fleet."""

    shard_id: int
    device: DeviceConfig
    cache_budget_bytes: int
    cache: DcsrCache | None = None
    selected: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    pack_ns: float = 0.0

    def select_and_pack(
        self, graph: DynamicGraph, ranked: np.ndarray, owner: np.ndarray
    ) -> None:
        """Step 3 for this shard: keep the owned prefix of the global rank,
        fit it to this device's budget, pack, and DMA (own link)."""
        owned = ranked[owner[ranked] == self.shard_id]
        self.selected = select_within_budget(graph, owned, self.cache_budget_bytes)
        self.cache, self.pack_ns = pack_step(graph, self.selected, self.device)


class ShardedDeviceView(GraphView):
    """The fleet's one view (``devices > 1``; one device runs the plain
    :class:`~repro.core.cache.CachedDeviceView`): a root is read by the shard
    owning its first endpoint, and every access by its root's shard.

    ``counters`` take the whole block, ``shard_counters[s]`` the totals of
    the split shard ``s`` read (no histogram: they price the shard), and
    ``tally`` counts per shard the roots it settled, its hits and misses on
    its own vertices, and its remote hits and misses."""

    def __init__(self, graph: DynamicGraph, device: DeviceConfig, counters: AccessCounters,
                 caches: list[DcsrCache], owner: np.ndarray) -> None:
        super().__init__(graph, device, counters)
        self.caches, self.owner, self.num_readers = caches, owner, len(caches)
        self.shard_counters = [AccessCounters() for _ in caches]
        self.tally = np.zeros((5, len(caches)), dtype=np.int64)

    def readers(self, roots: np.ndarray) -> np.ndarray:
        """The shard that settles each ``(r, 2)`` root: its first endpoint's owner."""
        return self.owner[roots[:, 0]]

    def charge(self, roots, outputs, ops) -> None:
        super().charge(roots, outputs, ops)
        self.tally[0] += roots
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
        """The sharded routing, per access: a vertex its reader owns takes the
        single-GPU cached path; a remote-owned one probes its owner's rowidx
        (at that cache's probe cost) and is served over the peer interconnect
        on a hit, or from pinned host memory on a miss — every device reads
        it directly: one zero-copy hop, never peer + host."""
        owners = self.owner[vertices]
        hit = np.zeros(vertices.shape[0], dtype=bool)
        ops = np.zeros(vertices.shape[0], dtype=np.int64)
        for sid in sorted_unique(owners).tolist():
            routed, cache = owners == sid, self.caches[sid]
            hit[routed] = cache.lookup_block(vertices[routed])
            ops[routed] = cache.probe_cost_ops()
        remote = owners != reader
        peer = hit & remote
        # per reader: local hit, local miss, remote hit, remote miss
        kind = 2 * remote + ~hit
        self.tally[1:] += np.bincount(kind * self.num_readers + reader,
                                      minlength=4 * self.num_readers).reshape(4, -1)
        acc = self._hit_or_zero_copy(hit, lengths)
        return acc._replace(
            channel=np.where(peer, Channel.PEER.slot, acc.channel),
            transactions=np.where(peer, self.device.peer_lines(acc.nbytes), acc.transactions),
            ops=ops,
        )


@dataclass(frozen=True)
class ShardBatchReport:
    """What one shard did during one batch."""

    shard_id: int
    roots_processed: int
    match_ns: float
    pack_ns: float
    cache_bytes: int
    cached_vertices: int
    local_hits: int
    local_misses: int
    remote_hits: int
    remote_misses: int
    peer_bytes: int


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
