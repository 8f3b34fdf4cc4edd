"""RapidFlow-style CPU baseline (paper Sec. VI-A / Fig. 14).

RapidFlow [15] is the state-of-the-art CPU CSM system the paper compares
against.  Its two relevant characteristics are reproduced:

1. **Candidate index + optimized matching order.**  For every query vertex
   ``u`` it maintains the candidate set ``C(u)`` — data vertices with the
   right label and degree ≥ deg_Q(u) — and picks matching orders that bind
   low-|C| query vertices early; during enumeration candidates are pruned
   against ``C(u)``.  That is why it can beat the plain nested-loop CPU
   baseline by up to 7.7x on favorable queries.
2. **Index memory blow-up.**  The index materializes per-query-edge
   candidate adjacency, whose footprint grows with Σ_{v∈C(u)} deg(v) per
   query edge.  On the paper's large graphs this exhausts 512 GB of RAM and
   crashes the system; here the same footprint is computed against a scaled
   budget (:data:`DEFAULT_MEMORY_BUDGET_BYTES`) and :class:`IndexMemoryError` is raised — which
   is why Fig. 14 only covers AZ and LJ.

It is the staged engine's ``indexed`` placement: matching reuses the shared
kernel on the CPU view, with ``filters`` carrying the candidate sets, so
counted costs are directly comparable with every other system; index
maintenance rides on the update stage and is charged into ``update_ns``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.engine import GCSMEngine, Placement
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.stream import UpdateBatch
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.gpu.views import HostCPUView
from repro.query.pattern import WILDCARD_LABEL, QueryGraph
from repro.query.plan import MatchPlan, compile_delta_plans, greedy_matching_order

__all__ = ["IndexedPlacement", "IndexMemoryError", "candidate_index_bytes"]

#: Scaled analog of the paper platform's 512 GB host RAM: large enough for
#: the AZ/LJ analogs' candidate indexes, exceeded by FR/SF3K/SF10K.
DEFAULT_MEMORY_BUDGET_BYTES = 5_000_000


class IndexMemoryError(MemoryError):
    """Candidate-index footprint exceeds the host memory budget.

    The reproduction of "RapidFlow runs out of CPU memory when storing
    candidate vertices on the three large graphs" (Sec. VI-C)."""


def candidate_index_bytes(
    graph: DynamicGraph, query: QueryGraph, candidates: dict[int, np.ndarray]
) -> int:
    """Model of the index footprint: per query edge ``(u, u')`` the index
    stores the candidate adjacency — one entry per (candidate of ``u``,
    neighbor) pair — plus the candidate arrays themselves."""
    degrees = graph.degrees_new()
    total = sum(c.size for c in candidates.values()) * BYTES_PER_NEIGHBOR
    for u, w in query.edges:
        for endpoint in (u, w):
            cand = candidates[endpoint]
            total += int(degrees[cand].sum()) * BYTES_PER_NEIGHBOR
    return total


class IndexedPlacement(Placement):
    """Candidate-indexed CPU CSM (RapidFlow analog).

    Nothing is shipped; the kernel runs the host loops over
    :class:`~repro.gpu.views.HostCPUView` with the candidate sets as
    ``filters`` and candidate-aware matching orders.
    """

    def __init__(self, engine: GCSMEngine) -> None:
        super().__init__(engine)
        self.graph, self.query = engine.graph, engine.query
        self.memory_budget_bytes = DEFAULT_MEMORY_BUDGET_BYTES
        #: ``C(u)`` per query vertex; patched in place by :meth:`maintain`,
        #: and handed to the kernel as its candidate ``filters``
        self.candidates = self.filters = self._build_candidates()
        self.index_bytes = candidate_index_bytes(self.graph, self.query, self.candidates)
        if self.index_bytes > self.memory_budget_bytes:
            raise IndexMemoryError(
                f"candidate index needs {self.index_bytes} B, budget is "
                f"{self.memory_budget_bytes} B (graph too large for RapidFlow)"
            )

    # ------------------------------------------------------------------
    def _build_candidates(self) -> dict[int, np.ndarray]:
        """``C(u)`` per query vertex: label match + degree filter."""
        degrees = self.graph.degrees_new()
        labels = self.graph.labels
        out: dict[int, np.ndarray] = {}
        for u in range(self.query.num_vertices):
            mask = degrees >= self.query.degree(u)
            ql = self.query.label(u)
            if ql != WILDCARD_LABEL:
                mask &= labels == ql
            out[u] = np.nonzero(mask)[0].astype(np.int64)
        return out

    def compile_plans(self, query: QueryGraph) -> list[MatchPlan]:
        """RapidFlow's matching-order optimization.

        The plan compiler with a candidate-aware order: connectivity to the
        bound prefix stays the primary criterion (every dropped constraint
        multiplies the search tree), and among equally-connected vertices
        the one with the *scarcest* candidate set is bound first — the
        index-informed refinement that lets RapidFlow beat the plain
        nested-loop order on selective queries.
        """
        sizes = {u: c.size for u, c in self.candidates.items()}

        def rank(u: int, connectivity: int) -> tuple:
            return (connectivity, -sizes[u], query.degree(u), -u)

        return compile_delta_plans(
            query, functools.partial(greedy_matching_order, rank=rank)
        )

    # ------------------------------------------------------------------
    def maintain(self, batch: UpdateBatch) -> tuple[int, int]:
        """Refresh candidate membership of vertices the batch touched.

        Degree changes can move vertices across the deg ≥ deg_Q(u)
        thresholds; a real implementation patches the index incrementally —
        we recompute membership for the touched set and charge the work:
        ``(compute ops, DRAM bytes)`` — per touched vertex a degree and label
        test per query vertex plus two, and one list entry read.
        """
        touched = sorted(self.graph.touched_vertices)
        if not touched:
            return 0, 0
        # union degree (pre-batch edges + inserted edges): the degree filter
        # must be a necessary condition for *every* ΔM_i term uniformly —
        # an embedding may mix OLD and NEW edges, so its vertices' incident
        # edges live in G_k ∪ G_{k+1}.  Pruning per-term with a narrower
        # degree would break the IVM cancellation between terms.
        touched_arr = np.asarray(touched, dtype=np.int64)
        degrees = self.graph.run_lengths(touched_arr)[1]
        labels = self.graph.labels
        for u in range(self.query.num_vertices):
            ok = degrees >= self.query.degree(u)
            ql = self.query.label(u)
            if ql != WILDCARD_LABEL:
                ok &= labels[touched_arr] == ql
            now_in = touched_arr[ok]
            cand = self.candidates[u]
            keep = cand[~np.isin(cand, touched_arr, assume_unique=False)]
            self.candidates[u] = np.union1d(keep, now_in)
        self.index_bytes = candidate_index_bytes(self.graph, self.query, self.candidates)
        if self.index_bytes > self.memory_budget_bytes:
            raise IndexMemoryError(
                f"candidate index grew to {self.index_bytes} B over budget"
            )
        return len(touched) * (self.query.num_vertices + 2), len(touched) * BYTES_PER_NEIGHBOR

    def view(self, graph, counters, shipped):
        return HostCPUView(graph, self.engine.device, counters)

    def bookkeeping(self, shipped, outcome):
        return {"cache_bytes": self.index_bytes}
