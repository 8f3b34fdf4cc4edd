"""Baseline systems (paper Sec. VI-A "Baselines") as engine configurations.

Four naive GPU implementations plus the CPU nested-loop baseline, all
running the *same* staged engine and matching kernel as GCSM
(:class:`~repro.core.engine.GCSMEngine`) — they differ only in the data
path, i.e. in the engine's placement plug:

* **UM**    — all neighbor lists in unified memory; the kernel faults pages
  across PCIe on demand (69-210x slower than ZC in the paper).
* **ZC**    — all lists pinned on the CPU; every read is a zero-copy PCIe
  access (the strongest naive GPU baseline).
* **VSGM**  — the caching of [20]: copy the k-hop neighborhood of the batch
  (k = query diameter) to the GPU up front, then match entirely from device
  memory.  Correct but copy-dominated (Fig. 13), and limited to small
  batches by device memory.
* **Naive** — GCSM's machinery with a *degree-based* cache policy instead of
  frequency estimation (ends up ≈ ZC in the paper).
* **CPU**   — the same nested loops run by 32 host threads (the paper's own
  CPU baseline, same stack-based implementation and matching order).

:data:`SYSTEMS` maps every evaluated system name to its config overrides;
:func:`make_system` is a lookup in that table.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import GCSMEngine, Placement
from repro.graphs.static_graph import StaticGraph
from repro.gpu.clock import simulated_time_ns
from repro.gpu.counters import AccessCounters
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.gpu.transfer import DmaEngine
from repro.gpu.views import (
    FullDeviceView,
    HostCPUView,
    UnifiedMemoryView,
    ZeroCopyView,
)
from repro.query.pattern import QueryGraph
from repro.utils import contains_sorted, sorted_unique

__all__ = [
    "DirectPlacement",
    "UnifiedMemoryPlacement",
    "HostPlacement",
    "KhopPlacement",
    "VsgmCapacityError",
    "NAIVE_CACHE_BUDGET_BYTES",
    "SYSTEMS",
    "SYSTEM_NAMES",
    "make_system",
]


class DirectPlacement(Placement):
    """Nothing estimated, nothing shipped: the kernel reads every list
    through one view of the host store.  As is, this is ZC — every read
    crosses PCIe in 128 B lines; UM and CPU swap the view."""

    view_type = ZeroCopyView

    def view(self, graph, counters, shipped):
        return self.view_type(graph, self.engine.device, counters)

    def bookkeeping(self, shipped, outcome):
        return {} if outcome is None else {"cache_misses": outcome.stats.roots_processed}


class UnifiedMemoryPlacement(DirectPlacement):
    """UM: managed memory, page-fault-driven migration (cold per batch)."""

    view_type = UnifiedMemoryView


class HostPlacement(DirectPlacement):
    """The paper's CPU baseline: same loops, 32 host threads, host DRAM."""

    view_type = HostCPUView


class VsgmCapacityError(RuntimeError):
    """The k-hop working set of the batch exceeds the device buffer.

    This is the failure mode that forces the paper to shrink batches to
    128 (SF3K) / 64 (SF10K) edges when running VSGM (Sec. VI-B)."""


class KhopPlacement(Placement):
    """The VSGM-style data path: bulk-copy the batch's k-hop neighborhood.

    Per batch: BFS from every update endpoint out to ``k = diameter(Q)``
    hops on the CPU, pack all visited vertices' lists, DMA them to the GPU,
    then match entirely from device memory.  The kernel never touches the
    CPU — at the price of copying the (large) k-hop working set.  A
    certified ΔM = 0 batch saves exactly that dominant cost.
    """

    def __init__(self, engine: GCSMEngine) -> None:
        super().__init__(engine)
        self.hops = engine.query.diameter()

    def _khop(self, edges: np.ndarray, counters: AccessCounters) -> tuple[np.ndarray, int]:
        """The sorted vertices within ``k`` hops of an endpoint of ``edges``,
        by a level-synchronous BFS — one store read of ``N'`` per hop for the
        whole frontier, each list charged as one host-DRAM read — and the
        bytes packing their lists uploads (three row-index words a vertex)."""
        graph = self.engine.graph
        host = HostCPUView(graph, self.engine.device, counters)
        frontier = visited = sorted_unique(edges)
        for _ in range(self.hops):
            block, lengths = graph.read(frontier, False)
            counters.record_compute(int(lengths.sum()) + frontier.size)
            host.fetch_block(frontier, lengths)
            frontier = sorted_unique(block)
            frontier = frontier[~contains_sorted(visited, frontier)]
            if not frontier.size:
                break
            visited = sorted_unique(np.concatenate([visited, frontier]))
        stored = graph.run_lengths(visited)[1]
        return visited, (int(stored.sum()) + visited.size * 3) * BYTES_PER_NEIGHBOR

    def prepare(self, batch, decision, breakdown, expansion):
        """Gather + copy (VSGM's "DC" phase of Fig. 13)."""
        engine, device = self.engine, self.engine.device
        gather_counters = AccessCounters()
        resident, copy_bytes = self._khop(batch.edges, gather_counters)
        if engine.config.strict_capacity and copy_bytes > device.cache_buffer_bytes:
            # a smaller batch is advice only if one update's working set fits
            alone = self._khop(batch.edges[:1], AccessCounters())[1]
            advice = ("use a smaller batch" if alone <= device.cache_buffer_bytes else
                      f"the batch's first update alone needs {alone} B at that radius")
            raise VsgmCapacityError(
                f"{self.hops}-hop working set ({copy_bytes} B) exceeds device buffer "
                f"({device.cache_buffer_bytes} B); {advice}"
            )
        gather_ns = simulated_time_ns(gather_counters, device, platform="cpu")
        dma_ns = DmaEngine(device, AccessCounters()).transfer(copy_bytes)
        breakdown.pack_ns = gather_ns + dma_ns
        return resident, copy_bytes

    def view(self, graph, counters, shipped):
        return FullDeviceView(graph, self.engine.device, counters, shipped[0])

    def bookkeeping(self, shipped, outcome):
        if outcome is None:
            return {}
        resident, copy_bytes = shipped
        return dict(
            cached_vertices=resident, cache_bytes=copy_bytes,
            cache_hits=outcome.stats.roots_processed,
            cache_misses=outcome.view.fallthrough_accesses,
        )


#: Naive's cache budget: the paper notes GCSM's sampled lists occupy < 2 GB
#: of the 14 GB buffer; Naive gets the same footprint so the comparison is
#: policy-vs-policy, not budget-vs-budget.  2 GB / 14 GB of the scaled buffer:
NAIVE_CACHE_BUDGET_BYTES = 200_000

#: every evaluated system (paper Fig. 8-14) as :class:`EngineConfig` overrides
SYSTEMS: dict[str, dict] = {
    "GCSM": {},
    "Pipelined": {"schedule": "pipelined"},
    "ZC": {"placement": "zero-copy"},
    "UM": {"placement": "unified"},
    "Naive": {"policy": "degree", "cache_budget_bytes": NAIVE_CACHE_BUDGET_BYTES},
    "VSGM": {"placement": "khop"},
    "CPU": {"placement": "host"},
    "RapidFlow": {"placement": "indexed"},
}
SYSTEM_NAMES = tuple(SYSTEMS)


def make_system(
    name: str, initial_graph: StaticGraph, query: QueryGraph, **settings
) -> GCSMEngine:
    """The named system: its :data:`SYSTEMS` row, overridden by ``settings``
    (any :class:`~repro.core.engine.EngineConfig` field — e.g. ``devices=N``
    fans a ``cached`` system out over a fleet)."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}; expected one of {SYSTEM_NAMES}")
    return GCSMEngine(initial_graph, query, **{**SYSTEMS[name], **settings})
