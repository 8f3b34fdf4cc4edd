"""Per-device shard state and the sharded kernel data path.

Each :class:`Shard` is one simulated GPU: it owns its own
:class:`~repro.gpu.device.DeviceConfig`, its slice of the DCSR cache (built
from the hot vertices *it owns*, within its own device-buffer budget), its
own :class:`~repro.gpu.counters.AccessCounters`, and its own DMA engine
(every card sits on its own host link, so per-shard uploads overlap).

:class:`ShardedDeviceView` extends GCSM's cached view with the multi-GPU
read path.  For a vertex the shard owns it is byte-for-byte the single-GPU
view (probe own rowidx; hit → GPU global, miss → host zero-copy).  For a
remote-owned vertex the kernel probes the owner's (replicated, tiny) rowidx
directory: a remote *hit* is served over the peer interconnect
(:data:`~repro.gpu.counters.Channel.PEER`), a remote *miss* falls back to
host zero-copy — the host graph is pinned and visible to every device, so
an uncached list never takes two hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import CachedDeviceView, select_within_budget
from repro.core.dcsr import DcsrCache
from repro.core.engine import pack_step
from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Accesses, Channel
from repro.gpu.device import DeviceConfig
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


class ShardedDeviceView(CachedDeviceView):
    """GCSM's cached view plus the remote-read path of a sharded fleet
    (``devices > 1``; one device runs the plain
    :class:`~repro.core.cache.CachedDeviceView`)."""

    def __init__(
        self,
        graph: DynamicGraph,
        device: DeviceConfig,
        counters: AccessCounters,
        cache: DcsrCache,
        *,
        shard_id: int,
        owner: np.ndarray,
        peer_caches: list[DcsrCache],
    ) -> None:
        super().__init__(graph, device, counters, cache)
        self.shard_id = shard_id
        self.owner = owner
        self.peer_caches = peer_caches
        self.remote_hits = 0
        self.remote_misses = 0

    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        """The sharded routing, per access: a locally-owned vertex takes the
        single-GPU cached path; a remote-owned one probes its owner's rowidx
        (at that cache's probe cost) and is served over the peer interconnect
        on a hit, or from pinned host memory on a miss — every device reads
        it directly: one zero-copy hop, never peer + host."""
        owners = self.owner[vertices]
        hit = np.zeros(vertices.shape[0], dtype=bool)
        ops = np.zeros(vertices.shape[0], dtype=np.int64)
        for sid in sorted_unique(owners).tolist():
            routed, cache = owners == sid, self.peer_caches[sid]
            hit[routed] = cache.lookup_block(vertices[routed])
            ops[routed] = cache.probe_cost_ops()
        local = owners == self.shard_id
        peer = hit & ~local
        mine, served = int(np.count_nonzero(local)), int(np.count_nonzero(hit & local))
        remote = int(np.count_nonzero(peer))
        self.hits += served
        self.misses += mine - served
        self.remote_hits += remote
        self.remote_misses += hit.size - mine - remote
        acc = self._hit_or_zero_copy(hit, lengths)
        return acc._replace(
            channel=np.where(peer, Channel.PEER.slot, acc.channel),
            transactions=np.where(peer, self.device.peer_lines(acc.nbytes), acc.transactions),
            ops=ops,
        )

    @property
    def total_hits(self) -> int:
        """Reads served from *some* device's cache (local or peer)."""
        return self.hits + self.remote_hits

    @property
    def total_misses(self) -> int:
        """Reads that fell through to host memory."""
        return self.misses + self.remote_misses


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
