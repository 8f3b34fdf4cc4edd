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

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.cache import CachedDeviceView, select_within_budget
from repro.core.dcsr import DcsrCache
from repro.core.engine import pack_step
from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.query.plan import EdgeVersion

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

    def fetch(self, v: int, version: EdgeVersion) -> tuple[np.ndarray, ...]:
        owner_shard = int(self.owner[v])
        if owner_shard == self.shard_id:
            return super().fetch(v, version)
        return self._fetch_remote(v, owner_shard, version)

    def _fetch_remote(
        self, v: int, owner_shard: int, version: EdgeVersion
    ) -> tuple[np.ndarray, ...]:
        remote = self.peer_caches[owner_shard]
        # the kernel probes the replicated remote rowidx directory the same
        # way it probes its own (Sec. V-C's binary search, remote copy)
        self.counters.record_compute(remote.probe_cost_ops())
        row = remote.lookup(v)
        if row >= 0:
            self.remote_hits += 1
            if version is EdgeVersion.OLD:
                runs: tuple[np.ndarray, ...] = (remote.neighbors_old(row),)
            else:
                base, delta = remote.neighbors_new_parts(row)
                runs = (base, delta) if delta.size else (base,)
            nbytes = self._nbytes(runs)
            lines = self.device.peer_lines(nbytes)
            self.counters.record_access(Channel.PEER, v, nbytes, transactions=lines)
            return runs
        # remote miss: the list lives only in pinned host memory, which every
        # device reads directly — one zero-copy hop, never peer + host
        self.remote_misses += 1
        runs = self._runs(v, version)
        nbytes = self._nbytes(runs)
        lines = self.device.zero_copy_lines(nbytes)
        self.counters.record_access(Channel.ZERO_COPY, v, nbytes, transactions=lines)
        return runs

    def fetch_block(self, vertices: np.ndarray, lengths: np.ndarray) -> None:
        """Vectorized recording with the sharded routing of :meth:`fetch`.

        Locally-owned accesses take the single-GPU cached path; remote-owned
        ones are grouped per owner shard, probe that shard's replicated
        rowidx directory, and are charged to the peer interconnect (hit) or
        host zero-copy (miss) — summing to exactly the per-access counters.
        """
        owners = self.owner[vertices]
        local = owners == self.shard_id
        super().fetch_block(vertices[local], lengths[local])
        for sid in np.unique(owners[~local]).tolist():
            routed = owners == sid
            verts = vertices[routed]
            remote = self.peer_caches[int(sid)]
            self.counters.record_compute(remote.probe_cost_ops() * int(verts.size))
            hit = remote.lookup_block(verts)
            self.remote_hits += int(np.count_nonzero(hit))
            self.remote_misses += int(verts.size - np.count_nonzero(hit))
            nbytes = lengths[routed] * BYTES_PER_NEIGHBOR
            hit_bytes = nbytes[hit]
            peer_lines = -(-hit_bytes // self.device.peer_line_bytes)
            self.counters.record_access_block(
                Channel.PEER, verts[hit], hit_bytes, transactions=peer_lines
            )
            miss = ~hit
            if miss.any():
                miss_bytes = nbytes[miss]
                zc_lines = -(-miss_bytes // self.device.zero_copy_line_bytes)
                self.counters.record_access_block(
                    Channel.ZERO_COPY, verts[miss], miss_bytes, transactions=zc_lines
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

    def to_dict(self) -> dict:
        return asdict(self)


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
