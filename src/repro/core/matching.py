"""Incremental WCOJ matching executor (the paper's GPU kernel, Sec. V-C).

This is the reproduction's analog of the STMatch-derived CUDA kernel: it
executes the nested-loop plans of :mod:`repro.query.plan` depth-first,
binding one query vertex per level by intersecting the (versioned) neighbor
lists of its bound query neighbors.  Faithful behaviours carried over from
the paper's kernel:

* **Split intersections.**  ``N'`` is handled as ``N ∪ ΔN``: the store
  keeps the base and delta runs separately and merges them once per batch
  into its epoch arena (both runs are sorted, so the merge is linear) —
  deleted neighbors are dropped from the base run, the analog of "skip the
  negative indices".
* **Every access counts.**  Each neighbor-list read is recorded by the
  :class:`~repro.gpu.views.GraphView` — channel traffic and the per-vertex
  access histogram.  Re-reads of the same list are recorded again (the real
  kernel streams lists from memory on every use); only the merged *bytes*
  are shared, through the arena.
* **Work accounting.**  Merge-intersections charge ``len(a) + len(b)``
  compute ops (the cost model of merge-based SIMD intersection), candidate
  filtering and output emission charge per element.

The executor is shared verbatim by GCSM and every baseline — exactly the
paper's "all the GPU versions use the same GPU kernel" setup — with only the
view deciding where reads are served from.

The kernel itself is the level-synchronous row program of
:mod:`repro.core.frontier`: the roots of all ΔM plans are stacked into one
frontier and every launch extends all of them by one query-vertex level.
The per-root depth-first executor it replaced lives on as a parity oracle in
:mod:`repro.testing.kernels`; both consume the roots :func:`batch_roots`
generates, so they see identical inputs by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.frontier import FrontierKernel, level_table
from repro.graphs.attributes import edge_weights
from repro.graphs.stream import UpdateBatch
from repro.gpu.views import GraphView
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import MatchPlan
from repro.utils import VERTEX_DTYPE, contains_sorted, require

__all__ = [
    "MatchStats",
    "match_batch",
    "match_static",
    "batch_roots",
    "delta_roots",
    "root_label_mask",
    "static_roots",
    "filter_root_predicate",
]

EmbeddingSink = Callable[[tuple[int, ...], int], None]


@dataclass
class MatchStats:
    """Outcome of executing one or more plans.

    ``signed_count`` is the IVM result: insertions contribute ``+1`` per
    embedding, deletions ``-1``; summed over all ΔM_i plans it equals
    ``count(G_{k+1}) − count(G_k)``.  ``embeddings_found`` counts emitted
    embeddings regardless of sign.

    ``roots_skipped`` counts directed roots removed by a certified
    aggregate-invariant pre-filter (``repro.core.prefilter``) before the
    executor ran; always 0 with ``prefilter="off"``, and by construction
    ``roots_processed(on) + roots_skipped(on) == roots_processed(off)``.
    """

    signed_count: int = 0
    embeddings_found: int = 0
    roots_processed: int = 0
    tree_nodes: int = 0
    roots_skipped: int = 0

    def merge(self, other: "MatchStats") -> None:
        self.signed_count += other.signed_count
        self.embeddings_found += other.embeddings_found
        self.roots_processed += other.roots_processed
        self.tree_nodes += other.tree_nodes
        self.roots_skipped += other.roots_skipped


# ----------------------------------------------------------------------
# root generation
# ----------------------------------------------------------------------
def root_label_mask(
    plan: MatchPlan, directed: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Which directed edges ``(r, 2)`` can map to the plan's root query edge
    by endpoint label (wildcards match anything)."""
    la, lb = plan.root_labels()
    mask = np.ones(directed.shape[0], dtype=bool)
    if la != WILDCARD_LABEL:
        mask &= labels[directed[:, 0]] == la
    if lb != WILDCARD_LABEL:
        mask &= labels[directed[:, 1]] == lb
    return mask


def delta_roots(
    plan: MatchPlan, batch: UpdateBatch, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Directed signed batch edges matching plan's root query edge labels.

    Both orientations of every update are considered (paper Fig. 2 includes
    the reverse edges); label filtering prunes orientations whose endpoint
    labels cannot map to the root query vertices.
    """
    edges, signs = batch.directed_updates()
    if edges.shape[0] == 0:
        return edges, signs
    mask = root_label_mask(plan, edges, labels)
    return edges[mask], signs[mask]


def static_roots(
    plan: MatchPlan, edge_array: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All directed data edges matching the root labels, with sign +1."""
    if edge_array.shape[0] == 0:
        empty = np.empty((0, 2), dtype=VERTEX_DTYPE)
        return empty, np.empty(0, dtype=np.int64)
    directed = np.concatenate([edge_array, edge_array[:, ::-1]], axis=0)
    directed = directed[root_label_mask(plan, directed, labels)]
    return directed, np.ones(directed.shape[0], dtype=np.int64)


def filter_root_predicate(
    plan: MatchPlan,
    roots: np.ndarray,
    signs: np.ndarray,
    attributes=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop roots whose data-edge weight violates the plan's root predicate.

    Uncharged, like the label filtering of :func:`delta_roots` (root
    generation is modeled as free stream-side work).  Applied *after* any
    precomputed prefilter masks — those are aligned with the raw
    ``delta_roots`` output and must see it unshrunk.
    """
    if plan.root_predicate is None or roots.shape[0] == 0:
        return roots, signs
    if attributes is not None:
        w = attributes.pair_weights(roots[:, 0], roots[:, 1])
    else:
        w = edge_weights(roots[:, 0], roots[:, 1])
    lo, hi = plan.root_predicate
    keep = (w >= lo) & (w <= hi)
    return roots[keep], signs[keep]


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def batch_roots(
    plans: list[MatchPlan],
    batch: UpdateBatch,
    labels: np.ndarray,
    total: MatchStats,
    *,
    filters: dict[int, np.ndarray] | None = None,
    root_mask: Callable[[np.ndarray], np.ndarray] | None = None,
    prefilter=None,
    attributes=None,
) -> Iterator[tuple[MatchPlan, np.ndarray, np.ndarray]]:
    """Yield ``(plan, roots, signs)`` for every ΔM_i plan of a signed batch.

    The root pipeline shared by the kernel and its test oracle: label-
    filtered directed roots, then shard routing (``root_mask``), candidate
    filters, the certified-skip ``prefilter`` and the root predicate.  The
    prefilter's keep-mask is *evaluated* on the raw :func:`delta_roots`
    output — so a precomputed :class:`~repro.core.prefilter.PrefilterDecision`
    stays aligned under any routing or filtering — but *applied* last:
    roots it drops among the survivors are added to ``total.roots_skipped``.
    """
    for plan_index, plan in enumerate(plans):
        roots, signs = delta_roots(plan, batch, labels)
        keep = None
        if prefilter is not None and roots.shape[0]:
            keep = prefilter.mask(plan_index, plan, roots)
        if root_mask is not None and roots.shape[0]:
            mask = root_mask(roots)
            roots, signs = roots[mask], signs[mask]
            keep = keep[mask] if keep is not None else None
        if filters and roots.shape[0]:
            mask = np.ones(roots.shape[0], dtype=bool)
            for col, u in ((0, plan.order[0]), (1, plan.order[1])):
                if u in filters:
                    mask &= contains_sorted(filters[u], roots[:, col])
            roots, signs = roots[mask], signs[mask]
            keep = keep[mask] if keep is not None else None
        if keep is not None:
            total.roots_skipped += int(keep.size - np.count_nonzero(keep))
            roots, signs = roots[keep], signs[keep]
        yield (plan, *filter_root_predicate(plan, roots, signs, attributes))


def _run_frontier(
    kernel: FrontierKernel,
    plans: list[MatchPlan],
    roots: list[np.ndarray],
    signs: list[np.ndarray],
    sink: EmbeddingSink | None,
) -> MatchStats:
    """Execute ``plans`` over their ``roots`` as one frontier.

    The roots are stacked plan-major with a plan-id column and every launch
    of :meth:`FrontierKernel.expand` advances all plans one level, so the
    frontier stays in lexicographic ``(plan, root, candidate…)`` order — the
    depth-first emission order of running the plans one after another.  The
    accesses are settled once, sorted by ``(plan, level)`` over each level's
    ``(slot, constraint, row)`` log: the sequence those per-plan runs issue,
    which is what an order-sensitive view (the UM pager) must be handed.
    """
    depth = plans[0].depth
    require(all(p.depth == depth for p in plans), "plans must share one depth")
    rows = np.concatenate(roots).astype(np.int64, copy=False)
    sign = np.concatenate(signs).astype(np.int64, copy=False)
    plan = np.repeat(np.arange(len(plans)), [r.shape[0] for r in roots])
    counters = kernel.view.counters
    found = int(rows.shape[0])
    stats = MatchStats(roots_processed=found, tree_nodes=found)
    num_levels = depth - 2
    logs = []
    for li in range(num_levels):
        if found == 0:
            break
        table = level_table(tuple(p.levels[li] for p in plans))
        cand_flat, cand_cnt, log = kernel.expand(table, rows, plan)
        logs.append((plan[log.row] * num_levels + li, log.vertex, log.length))
        found = int(cand_cnt.sum())
        stats.tree_nodes += found
        if li == num_levels - 1 and sink is None:
            sign = sign * cand_cnt  # counted, not materialised
            break
        rows = np.concatenate(
            [np.repeat(rows, cand_cnt, axis=0), cand_flat[:, None]], axis=1
        )
        sign = np.repeat(sign, cand_cnt)
        plan = np.repeat(plan, cand_cnt)
    stats.signed_count = int(sign.sum())
    stats.embeddings_found = found
    counters.record_output(found)
    counters.record_compute(found * depth)
    if logs:
        key, vertex, length = map(np.concatenate, zip(*logs))
        order = np.argsort(key, kind="stable")
        kernel.view.fetch_block(vertex[order], length[order])
    if sink is not None and found:
        inverse = np.array([p.inverse_order for p in plans])
        full = np.take_along_axis(rows, inverse[plan], axis=1)
        for e, s in zip(full.tolist(), sign.tolist()):
            sink(tuple(e), s)
    return stats


def match_batch(
    plans: list[MatchPlan],
    batch: UpdateBatch,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
    filters: dict[int, np.ndarray] | None = None,
    root_mask: Callable[[np.ndarray], np.ndarray] | None = None,
    prefilter=None,
    attributes=None,
) -> MatchStats:
    """Run all ΔM_i plans against a signed batch (paper Fig. 2b-f).

    The view's graph must hold the *open* batch (``apply_batch`` done,
    ``reorganize`` not yet), so OLD/NEW adjacency versions are available.
    Returns aggregated stats whose ``signed_count`` is the exact ΔM.
    ``filters`` optionally restricts each query vertex to a sorted candidate
    array (RapidFlow's index pruning); root endpoints are filtered too.
    ``root_mask`` optionally selects a subset of the directed roots — given
    the ``(r, 2)`` root array it returns a boolean mask; multi-GPU sharding
    uses it to route each root to the shard owning its first endpoint.
    Per-root work is independent (counters are sums over roots), so any
    disjoint cover of the roots reproduces the unsharded counters exactly.
    ``prefilter`` optionally supplies a certified-skip masker
    (``repro.core.prefilter``): an object whose ``mask(plan_index, plan,
    roots)`` returns a boolean keep-mask; dropped roots are counted in
    ``MatchStats.roots_skipped``.  It is applied *last* — after routing and
    candidate filters — so the skip accounting composes with both, and
    exactness is certified (only provably-ΔM=0 roots are dropped).
    ``attributes`` optionally supplies an edge-weight provider
    (:class:`~repro.graphs.attributes.EdgeAttributeStore`) for plans whose
    query carries weight predicates; without one the deterministic hash
    weights are used.
    """
    labels = view.graph.labels
    total = MatchStats()
    _, roots, signs = zip(*batch_roots(
        plans, batch, labels, total, filters=filters, root_mask=root_mask,
        prefilter=prefilter, attributes=attributes,
    ))
    kernel = FrontierKernel(view, labels, filters, attributes)
    total.merge(_run_frontier(kernel, plans, roots, signs, sink))
    return total


def match_static(
    plan: MatchPlan,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
    attributes=None,
) -> MatchStats:
    """Match the query on the current snapshot (paper Fig. 2a).

    Uses the post-batch adjacency (``CURRENT`` == ``NEW``), so on a settled
    graph it matches the settled snapshot.  The snapshot's edge relation is
    exported CSR-style from the dynamic store (vectorized v<w dedup), in the
    same source-major/ascending order as a per-vertex adjacency scan.
    """
    labels = view.graph.labels
    roots, signs = static_roots(plan, view.graph.edges_new_array(), labels)
    roots, signs = filter_root_predicate(plan, roots, signs, attributes)
    kernel = FrontierKernel(view, labels, attributes=attributes)
    return _run_frontier(kernel, [plan], [roots], [signs], sink)
