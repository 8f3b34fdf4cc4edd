"""Scalar twins of vectorized production routines (parity oracles).

Each function is the original per-element loop a vectorized production
routine replaced, kept verbatim so tests can assert bit-identical output:

* :func:`stored_runs` / :func:`neighbors_old` / :func:`neighbors_new_parts` /
  :func:`neighbors_new` / :func:`versioned_runs` ↔
  :meth:`repro.graphs.dynamic_graph.DynamicGraph.read`: one vertex's list
  decoded straight from the store's slab, never through ``read`` — the
  recursive matcher and estimator read every list this way
* :func:`build_reference` ↔ :meth:`repro.core.dcsr.DcsrCache.build`
* :func:`merge_runs_reference` ↔ the merged ``N'`` of the store's bulk read
  that :meth:`repro.graphs.dynamic_graph.DynamicGraph.reorganize` stores back,
  and ↔ :func:`merge_sorted`, the vectorized two-run merge the recursive
  executor reads ``N'`` with (:func:`is_sorted` checks runs in the tests)
* :func:`select_within_budget_reference` ↔
  :func:`repro.core.cache.select_within_budget`
* :func:`road_network_reference` ↔ :func:`repro.graphs.generators.road_network`:
  the per-cell loop whose draw order the whole-array lattice keeps
* :func:`sorted_edge_keys` / :func:`contains_edges`: a static graph's edge
  set as sorted keys and membership in it, for the tests and the oracle
  below (a test asks a store through its snapshot: ``contains_edges(dg.snapshot(), us, vs)``)
* :func:`without_edges_reference` ↔
  :meth:`repro.graphs.static_graph.StaticGraph.without_edges`: the edge-key
  subtraction and CSR rebuild the mask over the CSR replaced
* :func:`edge_array_reference` ↔ :meth:`DynamicGraph.edges_new_array`: the
  export as one read of the whole store, before it was written block by
  block (``old=True`` is the pre-batch edge list), and
  :func:`invariant_index_reference` ↔ :meth:`repro.core.prefilter.InvariantIndex.rebuild`:
  that edge list ``np.add.at``-scattered into the index's counts
* :func:`delta_roots` / :func:`static_roots` / :func:`route_roots` /
  :func:`filter_root_predicate` / :func:`trie_roots_reference` ↔
  :func:`repro.core.matching.trie_roots`: the root pipeline one root group
  at a time — a label-pair mask of the directed updates
  (:func:`labelled_roots`, :func:`label_pair_mask`), the candidate filters,
  the certified-skip mask, the root predicate — which the one pass over a
  ``(groups, 2b)`` mask replaced; the recursive executor routes its roots
  through it
* :func:`prefilter_decision_reference` ↔
  :meth:`repro.core.prefilter.InvariantIndex.evaluate`: the per-plan,
  per-label dominance loop with the one-word label signature the array
  program replaced, and :func:`group_masks_reference` ↔ the root-group masks
  of :meth:`~repro.core.prefilter.InvariantIndex.decide`: the ref-by-ref OR
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dcsr import DcsrCache, packed_size_bytes
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import assign_labels
from repro.graphs.static_graph import StaticGraph
from repro.graphs.attributes import edge_weights
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters
from repro.query.pattern import WILDCARD_LABEL, QueryGraph
from repro.query.plan import EdgeVersion
from repro.utils import (
    VERTEX_DTYPE, as_generator, as_vertex_ids, contains_sorted, edge_keys, require,
)

__all__ = [
    "stored_runs", "neighbors_old", "neighbors_new_parts", "neighbors_new",
    "versioned_runs", "versioned_degree",
    "build_reference", "merge_runs_reference", "merge_sorted", "is_sorted",
    "select_within_budget_reference", "road_network_reference",
    "sorted_edge_keys", "contains_edges", "without_edges_reference",
    "edge_array_reference", "IndexFields", "invariant_index_reference",
    "ReferenceDecision", "prefilter_decision_reference", "group_masks_reference",
    "label_pair_mask", "labelled_roots", "delta_roots", "static_roots",
    "filter_root_predicate", "route_roots", "trie_roots_reference",
]


def stored_runs(graph: DynamicGraph, v: int) -> tuple[np.ndarray, np.ndarray]:
    """``v``'s two stored runs, views of the slab (its 4-byte entries, not
    widened): the base run with its deletion marks ``-(w+1)`` in place, and
    the open batch's ``ΔN`` run."""
    start, base, total = graph._offset[v], graph._base_len[v], graph._total_len[v]
    return graph._pool[start : start + base], graph._pool[start + base : start + total]


def neighbors_old(graph: DynamicGraph, v: int) -> np.ndarray:
    """``N(v)``: the base run with its marks decoded (the deleted edges
    existed before the batch), the appended run left out."""
    base, _ = stored_runs(graph, v)
    return np.where(base < 0, -base - 1, base) if graph._marks[v] else base


def neighbors_new_parts(graph: DynamicGraph, v: int) -> tuple[np.ndarray, np.ndarray]:
    """``N'(v)`` as its two sorted runs ``(base_kept, ΔN)``: the base run with
    its marks skipped, and the appended run."""
    base, delta = stored_runs(graph, v)
    return (base[base >= 0] if graph._marks[v] else base), delta


def neighbors_new(graph: DynamicGraph, v: int) -> np.ndarray:
    """``N'(v)`` as one sorted array."""
    base, delta = neighbors_new_parts(graph, v)
    return merge_sorted(base, delta) if delta.size else base


def versioned_runs(graph: DynamicGraph, v: int, version: EdgeVersion) -> tuple[np.ndarray, ...]:
    """The sorted runs whose union is ``v``'s list in ``version`` (Fig. 2):
    ``N`` for ``OLD``; the kept base run, then ``ΔN`` if any, otherwise."""
    if version is EdgeVersion.OLD:
        return (neighbors_old(graph, v),)
    base, delta = neighbors_new_parts(graph, v)
    return (base, delta) if delta.size else (base,)


def versioned_degree(graph: DynamicGraph, v: int, version: EdgeVersion) -> int:
    """The length of ``v``'s list in ``version``, from the length tables (the
    base run is the pre-batch list)."""
    if version is EdgeVersion.OLD:
        return int(graph.run_lengths(np.array([v]))[0][0])
    return int(graph.degrees_new()[v])


def build_reference(graph: DynamicGraph, vertices: np.ndarray) -> DcsrCache:
    """The original per-vertex packing loop, kept as the parity oracle
    for :meth:`DcsrCache.build` (and as the honest CPU-side cost baseline)."""
    verts = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
    if verts.size:
        require(
            bool(verts[0] >= 0 and verts[-1] < graph.num_vertices),
            "cache vertex out of range",
        )
    k = verts.size
    rowptr = np.empty((k + 1, 2), dtype=np.int64)
    chunks: list[np.ndarray] = []
    offset = 0
    for i, v in enumerate(verts.tolist()):
        base, delta = stored_runs(graph, v)
        rowptr[i, 0] = offset
        rowptr[i, 1] = offset + base.size if delta.size else -1
        chunks.append(base)
        if delta.size:
            chunks.append(delta)
        offset += base.size + delta.size
    rowptr[k, 0] = offset
    rowptr[k, 1] = -1
    colidx = np.concatenate(chunks) if chunks else np.empty(0, dtype=VERTEX_DTYPE)
    return DcsrCache(verts, rowptr, colidx.astype(VERTEX_DTYPE, copy=False))


def merge_runs_reference(kept: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Scalar two-pointer merge of the kept base run and the ΔN run.

    The literal per-element loop of paper Sec. V-A step 4, retained as the
    parity oracle for the lists :meth:`DynamicGraph.reorganize` stores and
    for :func:`merge_sorted` (``benchmarks/test_table3_reorg.py`` checks the
    stored arrays and the vectorized merge's wall-clock win).
    """
    merged = np.empty(kept.size + delta.size, dtype=VERTEX_DTYPE)
    i = j = k = 0
    while i < kept.size and j < delta.size:
        if kept[i] <= delta[j]:
            merged[k] = kept[i]
            i += 1
        else:
            merged[k] = delta[j]
            j += 1
        k += 1
    if i < kept.size:
        merged[k:] = kept[i:]
    elif j < delta.size:
        merged[k:] = delta[j:]
    return merged


def merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable linear merge of two sorted 1-D arrays, duplicates preserved.

    The vectorized analog of a two-pointer merge: each element's output slot
    is its own rank plus the number of elements of the *other* run that
    precede it, obtained with two ``searchsorted`` passes instead of the
    concatenate-then-full-sort that :func:`numpy.sort` would run.  Elements
    of ``a`` win ties (``side='left'``/``'right'``), matching a two-pointer
    merge that pops from ``a`` on ``<=``.
    """
    if a.size == 0:
        return np.asarray(b, dtype=VERTEX_DTYPE).copy()
    if b.size == 0:
        return np.asarray(a, dtype=VERTEX_DTYPE).copy()
    out = np.empty(a.size + b.size, dtype=VERTEX_DTYPE)
    out[np.arange(a.size) + np.searchsorted(b, a, side="left")] = a
    out[np.arange(b.size) + np.searchsorted(a, b, side="right")] = b
    return out


def is_sorted(values: np.ndarray) -> bool:
    """Return True when 1-D ``values`` is non-decreasing."""
    if values.size <= 1:
        return True
    return bool(np.all(values[:-1] <= values[1:]))


def select_within_budget_reference(
    graph: DynamicGraph, ranked_vertices: np.ndarray, budget_bytes: int
) -> np.ndarray:
    """The original rank-order scan of
    :func:`repro.core.cache.select_within_budget`: one vertex at a time, its
    size from two per-vertex store reads, stopping at the first overflow."""
    chosen: list[int] = []
    used = 0
    for v in ranked_vertices.tolist():
        base, delta = stored_runs(graph, v)
        size = packed_size_bytes(base.size + delta.size)
        if used + size > budget_bytes:
            break
        chosen.append(v)
        used += size
    return np.asarray(chosen, dtype=np.int64)


def road_network_reference(
    rows: int,
    cols: int,
    *,
    diagonal_fraction: float = 0.3,
    extra_edge_fraction: float = 0.02,
    num_labels: int = 3,
    seed: int | np.random.Generator | None = 0,
) -> StaticGraph:
    """The original per-cell loop of
    :func:`repro.graphs.generators.road_network`: one ``rng.random()`` per
    candidate diagonal, four scalar ``rng.integers`` per extra link."""
    rng = as_generator(seed)
    require(rows >= 2 and cols >= 2, "lattice needs at least 2x2")
    n = rows * cols

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            if r + 1 < rows and c + 1 < cols and rng.random() < diagonal_fraction:
                edges.append((vid(r, c), vid(r + 1, c + 1)))
            if r + 1 < rows and c - 1 >= 0 and rng.random() < diagonal_fraction:
                edges.append((vid(r, c), vid(r + 1, c - 1)))
    # extra short-range links create the occasional degree-9..12 junction
    extra = int(n * extra_edge_fraction)
    for _ in range(extra):
        r = int(rng.integers(0, rows))
        c = int(rng.integers(0, cols))
        dr = int(rng.integers(-2, 3))
        dc = int(rng.integers(-2, 3))
        r2, c2 = r + dr, c + dc
        if 0 <= r2 < rows and 0 <= c2 < cols and (dr, dc) != (0, 0):
            edges.append((vid(r, c), vid(r2, c2)))
    labels = assign_labels(n, num_labels, rng=rng)
    return StaticGraph.from_edges(n, np.array(edges, dtype=VERTEX_DTYPE), labels)


def sorted_edge_keys(graph: StaticGraph) -> np.ndarray:
    """The edge set of ``graph`` as its sorted :func:`~repro.utils.edge_keys`
    array (the edge export is already in key order)."""
    edges = graph.edge_array()
    return edge_keys(edges[:, 0], edges[:, 1], graph.num_vertices)


def contains_edges(graph: StaticGraph, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Whether each ``(us[i], vs[i])`` (endpoints in range, either
    orientation) is an edge of ``graph``: one binary search over its keys."""
    return contains_sorted(sorted_edge_keys(graph), edge_keys(us, vs, graph.num_vertices))


def without_edges_reference(graph: StaticGraph, edges: np.ndarray) -> StaticGraph:
    """The original :meth:`StaticGraph.without_edges`: the removed edges'
    keys subtracted from the sorted edge-key array, the CSR rebuilt from the
    rest."""
    edge_arr = as_vertex_ids(edges).reshape(-1, 2)
    n = graph.num_vertices
    # an endpoint outside the graph names no edge, and its key would alias one
    edge_arr = edge_arr[(edge_arr.min(axis=1) >= 0) & (edge_arr.max(axis=1) < n)]
    keys = sorted_edge_keys(graph)
    removed = edge_keys(edge_arr[:, 0], edge_arr[:, 1], n)
    keep = np.ones(keys.size, dtype=bool)  # the few removed keys probe the many, not the reverse
    keep[np.searchsorted(keys, removed[contains_sorted(keys, removed)])] = False
    keys = keys[keep]  # the whole key array dies before the build
    return StaticGraph._from_edge_keys(n, keys, graph.labels.copy())


def edge_array_reference(graph: DynamicGraph, old: bool) -> np.ndarray:
    """The original edge export: the whole store in one :meth:`DynamicGraph.read`,
    each entry ``(v, w)`` with ``v < w`` kept, source-major."""
    block, lengths = graph.read(np.arange(graph.num_vertices), old)
    src = np.repeat(np.arange(graph.num_vertices, dtype=VERTEX_DTYPE), lengths)
    keep = src < block
    return np.stack([src[keep], block[keep]], axis=1)


@dataclass
class IndexFields:
    """The counts :meth:`repro.core.prefilter.InvariantIndex.rebuild` sets."""

    num_labels: int
    label_counts: np.ndarray
    deg_label: np.ndarray
    deg_total: np.ndarray
    pair_counts: np.ndarray
    num_edges: int

    @classmethod
    def of(cls, index) -> "IndexFields":
        return cls(**{name: getattr(index, name) for name in cls.__dataclass_fields__})

    def differences(self, other: "IndexFields") -> list[str]:
        """The fields whose shape or values differ from ``other``'s."""
        return [name for name in self.__dataclass_fields__
                if not np.array_equal(getattr(self, name), getattr(other, name))]


def invariant_index_reference(graph: DynamicGraph) -> IndexFields:
    """The original index build: the post-batch edge list
    (:func:`edge_array_reference`), every edge ``np.add.at``-scattered into
    both endpoints' label counts and degrees and into its label pair."""
    n = graph.num_vertices
    labels = np.asarray(graph.labels[:n], dtype=np.int64)
    L = int(labels.max()) + 1 if n else 1
    deg_label = np.zeros((n, L), dtype=np.int64)
    deg_total = np.zeros(n, dtype=np.int64)
    pair_counts = np.zeros((L, L), dtype=np.int64)
    edges = edge_array_reference(graph, False)
    l0, l1 = graph.labels[edges.T]
    np.add.at(deg_label, (edges[:, 0], l1), 1)
    np.add.at(deg_label, (edges[:, 1], l0), 1)
    np.add.at(deg_total, edges.ravel(), 1)
    np.add.at(pair_counts, (np.minimum(l0, l1), np.maximum(l0, l1)), 1)
    return IndexFields(L, np.bincount(labels, minlength=L).astype(np.int64), deg_label,
                       deg_total, pair_counts, int(edges.shape[0]))


# ----------------------------------------------------------------------
# the pre-filter's per-plan decision, as it was before the array program
# ----------------------------------------------------------------------
#: width of the neighborhood label-signature bitmask (one machine word)
SIGNATURE_BITS = 64


class _ReferenceRequirement:
    """The per-query requirement vectors, signature bitmasks included."""

    def __init__(self, query: QueryGraph) -> None:
        labels = [query.label(u) for u in range(query.num_vertices)]
        self.vertex_need: dict[int, int] = {}
        for lab in labels:
            if lab != WILDCARD_LABEL:
                self.vertex_need[lab] = self.vertex_need.get(lab, 0) + 1
        self.num_edges = query.num_edges
        self.pair_need: dict[tuple[int, int], int] = {}
        for u, w in query.edges:
            lu, lw = labels[u], labels[w]
            if lu != WILDCARD_LABEL and lw != WILDCARD_LABEL:
                key = (min(lu, lw), max(lu, lw))
                self.pair_need[key] = self.pair_need.get(key, 0) + 1
        self.adj_need: list[dict[int, int]] = []
        self.deg_need: list[int] = []
        self.sig_need: list[np.uint64] = []
        for u in range(query.num_vertices):
            need: dict[int, int] = {}
            for w in query.neighbors(u):
                lw = labels[w]
                if lw != WILDCARD_LABEL:
                    need[lw] = need.get(lw, 0) + 1
            self.adj_need.append(need)
            self.deg_need.append(query.degree(u))
            sig = np.uint64(0)
            for lw in need:
                sig |= np.uint64(1 << (lw % SIGNATURE_BITS))
            self.sig_need.append(sig)


@dataclass
class ReferenceDecision:
    """The decision's fields as :func:`prefilter_decision_reference` builds
    them: per-plan ``masks``, the estimate batch, the charged counters."""

    skip_batch: bool
    reason: str
    masks: list[np.ndarray] = field(default_factory=list)
    roots_total: int = 0
    roots_passing: int = 0
    estimate_batch: UpdateBatch | None = None
    counters: AccessCounters = field(default_factory=AccessCounters)

    def mask(self, plan_index: int, plan, roots: np.ndarray) -> np.ndarray:
        m = self.masks[plan_index]
        if m.shape[0] != roots.shape[0]:
            raise ValueError(
                f"prefilter mask misaligned with roots: {m.shape[0]} != {roots.shape[0]}"
            )
        return m


class _ReferenceLookups:
    """The union-bound lookups over an index's maintained arrays, vertex set
    by vertex set and label by label, with the one-word signature tested
    ahead of the exact counts (``sig`` recomputed from ``deg_label``, as the
    index once maintained it)."""

    def __init__(self, index) -> None:
        self.index = index
        self.sig = self._signature_rows(index.deg_label)
        self.del_sig = self._signature_rows(index._del_rows)

    def _signature_rows(self, rows: np.ndarray) -> np.ndarray:
        present = rows > 0
        out = np.zeros(rows.shape[0], dtype=np.uint64)
        for lab in range(rows.shape[1]):
            out[present[:, lab]] |= np.uint64(1 << (lab % SIGNATURE_BITS))
        return out

    def _overlay_hits(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        del_vids = self.index._del_vids
        if del_vids.size == 0:
            return None
        pos = np.minimum(np.searchsorted(del_vids, verts), del_vids.size - 1)
        hit = del_vids[pos] == verts
        if not hit.any():
            return None
        return hit, pos

    def _union_label_col(self, verts: np.ndarray, label: int) -> np.ndarray:
        if label >= self.index.num_labels or label < 0:
            return np.zeros(verts.shape[0], dtype=np.int64)
        col = self.index.deg_label[verts, label]
        ov = self._overlay_hits(verts)
        if ov is not None:
            hit, pos = ov
            col = col + np.where(hit, self.index._del_rows[pos, label], 0)
        return col

    def _union_total(self, verts: np.ndarray) -> np.ndarray:
        total = self.index.deg_total[verts]
        ov = self._overlay_hits(verts)
        if ov is not None:
            hit, pos = ov
            total = total + np.where(hit, self.index._del_total[pos], 0)
        return total

    def _union_sig(self, verts: np.ndarray) -> np.ndarray:
        sig = self.sig[verts]
        ov = self._overlay_hits(verts)
        if ov is not None:
            hit, pos = ov
            sig = sig | np.where(hit, self.del_sig[pos], np.uint64(0))
        return sig

    def vertex_dominates(
        self, verts: np.ndarray, req: _ReferenceRequirement, u: int
    ) -> np.ndarray:
        if verts.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        ok = self._union_total(verts) >= req.deg_need[u]
        sig_need = req.sig_need[u]
        if sig_need:
            ok &= (self._union_sig(verts) & sig_need) == sig_need
        for lab, cnt in req.adj_need[u].items():
            if not ok.any():
                break
            ok &= self._union_label_col(verts, lab) >= cnt
        return ok

    def root_mask(self, plan, roots: np.ndarray) -> np.ndarray:
        if roots.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        req = _ReferenceRequirement(plan.query)
        u0, u1 = plan.order[0], plan.order[1]
        return self.vertex_dominates(roots[:, 0], req, u0) & self.vertex_dominates(
            roots[:, 1], req, u1
        )

    def query_feasible(self, query: QueryGraph) -> bool:
        index = self.index
        req = _ReferenceRequirement(query)
        for lab, cnt in req.vertex_need.items():
            if lab >= index.num_labels or index.label_counts[lab] < cnt:
                return False
        if index.num_edges + index._del_edges < req.num_edges:
            return False
        for (lo, hi), cnt in req.pair_need.items():
            if hi >= index.num_labels:
                return False
            have = int(index.pair_counts[lo, hi])
            if index._del_pair_counts is not None:
                have += int(index._del_pair_counts[lo, hi])
            if have < cnt:
                return False
        return True


def prefilter_decision_reference(index, plans: list, batch: UpdateBatch) -> ReferenceDecision:
    """:meth:`repro.core.prefilter.InvariantIndex.evaluate` as a per-plan
    loop: feasibility query by query, then each plan's label rows and each
    root endpoint's dominance — total degree, the one-word label signature,
    then the exact per-label counts, label by label."""
    lookups = _ReferenceLookups(index)
    c = AccessCounters()
    labels = index.graph.labels
    b = len(batch)
    feasible = bool(plans) and lookups.query_feasible(plans[0].query)
    dir_edges, _dir_signs = batch.directed_updates()
    masks: list[np.ndarray] = []
    total = passing = 0
    keep_edge = np.zeros(b, dtype=bool)
    for plan in plans:
        rows = np.nonzero(label_pair_mask(*labels[dir_edges.T], plan.root_labels()))[0]
        roots = dir_edges[rows]
        if feasible:
            m = lookups.root_mask(plan, roots)
        else:
            m = np.zeros(rows.size, dtype=bool)
        masks.append(m)
        total += int(rows.size)
        passing += int(m.sum())
        if m.any():
            keep_edge[rows[m] % b] = True
        c.record_compute(int(dir_edges.shape[0]) + 4 * int(rows.size))
    skip = passing == 0
    reason = "" if not skip else ("infeasible" if not feasible else "no-roots")
    estimate_batch: UpdateBatch | None = None
    if not skip:
        if keep_edge.all():
            estimate_batch = batch
        else:
            estimate_batch = UpdateBatch(
                batch.edges[keep_edge],
                batch.signs[keep_edge],
                batch.new_vertex_labels,
            )
            c.record_compute(b)
    return ReferenceDecision(
        skip_batch=skip,
        reason=reason,
        masks=masks,
        roots_total=total,
        roots_passing=passing,
        estimate_batch=estimate_batch,
        counters=c,
    )


def group_masks_reference(trie, decisions: dict, skip: frozenset, batch: UpdateBatch,
                          labels: np.ndarray) -> list[np.ndarray]:
    """Each root group's keep-mask as the trie's root pipeline once certified
    it: the OR, ref by ref, of the group's live members' ``mask``."""
    out = []
    for node in trie.levels[0].nodes:
        roots = delta_roots(node.members[0].plan, batch, labels)[0]
        keep = np.zeros(roots.shape[0], dtype=bool)
        for ref in node.members:
            if ref.query_name not in skip:
                keep |= decisions[ref.query_name].mask(ref.index, ref.plan, roots)
        out.append(keep)
    return out


# ----------------------------------------------------------------------
# the root pipeline, one root group at a time
# ----------------------------------------------------------------------
def label_pair_mask(head: np.ndarray, tail: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Which directed edges, given their endpoints' label columns, carry the
    labels ``pair`` (a negative label — the wildcard — matches anything)."""
    mask = np.ones(head.shape[0], dtype=bool)
    if pair[0] >= 0:
        mask &= head == pair[0]
    if pair[1] >= 0:
        mask &= tail == pair[1]
    return mask


def labelled_roots(
    batch: UpdateBatch, labels: np.ndarray, pair: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The batch's directed updates whose two endpoints carry the labels
    ``pair`` under ``labels``, with their signs."""
    edges, signs = batch.directed_updates()
    mask = label_pair_mask(labels[edges[:, 0]], labels[edges[:, 1]], pair)
    return edges[mask], signs[mask]


def delta_roots(plan, batch: UpdateBatch, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed signed batch edges matching the plan's root query edge
    labels: both orientations of every update (paper Fig. 2 includes the
    reverse edges), label-filtered."""
    return labelled_roots(batch, labels, plan.root_labels())


def static_roots(plan, edge_array: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All directed data edges matching the root labels, with sign +1."""
    if edge_array.shape[0] == 0:
        empty = np.empty((0, 2), dtype=VERTEX_DTYPE)
        return empty, np.empty(0, dtype=np.int64)
    directed = np.concatenate([edge_array, edge_array[:, ::-1]], axis=0)
    directed = directed[label_pair_mask(*labels[directed.T], plan.root_labels())]
    return directed, np.ones(directed.shape[0], dtype=np.int64)


def filter_root_predicate(plan, roots: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop roots whose data-edge weight violates the plan's root predicate."""
    if plan.root_predicate is None or roots.shape[0] == 0:
        return roots, signs
    w = edge_weights(roots[:, 0], roots[:, 1])
    lo, hi = plan.root_predicate
    keep = (w >= lo) & (w <= hi)
    return roots[keep], signs[keep]


def route_roots(
    plan, roots: np.ndarray, signs: np.ndarray, keep: np.ndarray | None = None, *,
    filters: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A plan's label-filtered directed roots through candidate filters, the
    certified-skip mask and the root predicate: ``(roots, signs, dropped)``.
    ``keep`` — the prefilter's keep-mask — is aligned with the raw
    :func:`delta_roots` output but *applied* after the filters: ``dropped``
    are the roots it certified away among their survivors."""
    if filters and roots.shape[0]:
        mask = np.ones(roots.shape[0], dtype=bool)
        for col, u in ((0, plan.order[0]), (1, plan.order[1])):
            if u in filters:
                mask &= contains_sorted(filters[u], roots[:, col])
        roots, signs = roots[mask], signs[mask]
        keep = keep[mask] if keep is not None else None
    dropped = roots[:0]
    if keep is not None:
        dropped = roots[~keep]
        roots, signs = roots[keep], signs[keep]
    return (*filter_root_predicate(plan, roots, signs), dropped)


def trie_roots_reference(
    trie, batch: UpdateBatch | None, graph, live: np.ndarray, *,
    prefilter: list[np.ndarray] | None = None, filters: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`repro.core.matching.trie_roots` group by group: one
    :func:`route_roots` pipeline per live root group (its first plan stands
    for all), stacked group-major."""
    labels = graph.labels
    processed, skipped = np.zeros((2, len(trie.levels[0].nodes)), dtype=np.int64)
    none = np.empty((0, 2), dtype=np.int64)
    kept, gone = [(none, none[:, 0])], [none]
    for group in live.tolist():
        plan = trie.levels[0].nodes[group].members[0].plan
        if batch is None:
            raw = static_roots(plan, graph.edges_new_array(), labels)
        else:
            raw = delta_roots(plan, batch, labels)
        keep = None if prefilter is None else prefilter[group]
        roots, signs, dropped = route_roots(plan, *raw, keep, filters=filters)
        processed[group], skipped[group] = roots.shape[0], dropped.shape[0]
        kept.append((roots, signs))
        gone.append(dropped)
    roots, signs = (np.concatenate(part).astype(np.int64, copy=False) for part in zip(*kept))
    return roots, signs, processed, np.concatenate(gone), skipped
