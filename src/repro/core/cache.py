"""Cache-selection policies and the cached device view (paper Sec. V-C).

Two policies reproduce the paper's comparison:

* :class:`FrequencyCachePolicy` — GCSM: rank vertices by the random-walk
  frequency estimate and cache greedily until the device buffer is full.
  In the paper's runs every sampled vertex fits ("the neighbor lists of all
  nodes sampled by the random walk take less than 2 GB"), i.e. effectively
  all vertices with estimated frequency ≥ |ΔE| are cached.
* :class:`DegreeCachePolicy` — the Naive baseline: rank by current degree.
  The paper shows this is nearly useless (Fig. 8-10: Naive ≈ ZC), because
  which lists the kernel reads depends on the query and the updated edges,
  not on degree alone.

:class:`CachedDeviceView` is GCSM's data path: every access binary-searches
the DCSR ``rowidx``; hits read GPU global memory, misses fall back to
zero-copy reads of CPU memory through the ``pDevice`` indirection
(Sec. V-C) — one ``classify`` of the block, like every view.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.dcsr import DcsrCache, packed_size_bytes
from repro.core.frequency import EstimationResult, rank_support
from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters, Accesses
from repro.gpu.device import DeviceConfig
from repro.gpu.views import GraphView

__all__ = [
    "CachePolicy",
    "FrequencyCachePolicy",
    "DegreeCachePolicy",
    "CachedDeviceView",
    "select_within_budget",
]


def select_within_budget(
    graph: DynamicGraph,
    ranked_vertices: np.ndarray,
    budget_bytes: int,
) -> np.ndarray:
    """Take a prefix of ``ranked_vertices`` whose packed lists fit the budget.

    Greedy by rank: a vertex whose list alone exceeds the remaining budget
    stops the scan (keeping the selection a rank prefix, as the paper's
    "nodes with the highest estimated frequency are cached" implies).  Sizes
    are positive, so the running total is increasing and the scan is the
    prefix before its first overflow; a list's packed length is its stored
    run (base run with marks + appended ΔN), read from the store's table.
    """
    ranked = np.asarray(ranked_vertices, dtype=np.int64)
    used = np.cumsum(packed_size_bytes(graph.run_lengths(ranked)[1]))
    return ranked[: np.searchsorted(used, budget_bytes, side="right")]


class CachePolicy(ABC):
    """Strategy object producing the cached vertex set for a batch."""

    name: str = "abstract"
    #: whether the engine must run the random-walk estimator for this policy
    requires_estimation: bool = False

    @abstractmethod
    def rank(self, graph: DynamicGraph,
             frequencies: EstimationResult | np.ndarray | None) -> np.ndarray:
        """Return candidate vertices, best first."""

    def select(
        self,
        graph: DynamicGraph,
        frequencies: EstimationResult | np.ndarray | None,
        budget_bytes: int,
    ) -> np.ndarray:
        return select_within_budget(graph, self.rank(graph, frequencies), budget_bytes)


class FrequencyCachePolicy(CachePolicy):
    """GCSM's policy: highest estimated access frequency first.

    Only vertices actually sampled (estimate > 0) are candidates — a vertex
    the walks never touched has estimated frequency below ``|ΔE|`` and is
    not worth buffer space (paper Sec. VI-A Settings).
    """

    name = "frequency"
    requires_estimation = True

    def rank(self, graph: DynamicGraph,
             frequencies: EstimationResult | np.ndarray | None) -> np.ndarray:
        if frequencies is None:
            return np.empty(0, dtype=np.int64)
        if isinstance(frequencies, EstimationResult):
            return rank_support(frequencies.support, frequencies.values)
        support = np.flatnonzero(frequencies > 0)
        return rank_support(support, frequencies[support])


class DegreeCachePolicy(CachePolicy):
    """The Naive baseline: highest post-batch degree first."""

    name = "degree"

    def rank(self, graph: DynamicGraph, frequencies: np.ndarray | None) -> np.ndarray:
        degrees = graph.degrees_new()
        order = np.argsort(-degrees, kind="stable")
        return order[degrees[order] > 0]


class CachedDeviceView(GraphView):
    """GCSM's kernel data path: DCSR cache hit or zero-copy miss.

    Every access pays the rowidx binary-search probe (compute ops).  Hits are
    GPU-global reads of the packed runs; misses dereference ``pDevice`` and
    zero-copy the CPU list.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        device: DeviceConfig,
        counters: AccessCounters,
        cache: DcsrCache,
    ) -> None:
        super().__init__(graph, device, counters)
        self.cache = cache
        self.hits = 0
        self.misses = 0

    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        hit = self.cache.lookup_block(vertices)
        hits = int(np.count_nonzero(hit))
        self.hits += hits
        self.misses += hit.size - hits
        return self._hit_or_zero_copy(hit, lengths, self.cache.probe_cost_ops())
