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
* :func:`without_edges_reference` ↔
  :meth:`repro.graphs.static_graph.StaticGraph.without_edges`: the edge-key
  subtraction and CSR rebuild the mask over the CSR replaced
"""

from __future__ import annotations

import numpy as np

from repro.core.dcsr import DcsrCache, packed_size_bytes
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import assign_labels
from repro.graphs.static_graph import StaticGraph
from repro.query.plan import EdgeVersion
from repro.utils import (
    VERTEX_DTYPE, as_generator, as_vertex_ids, contains_sorted, edge_keys, require,
)

__all__ = [
    "stored_runs", "neighbors_old", "neighbors_new_parts", "neighbors_new",
    "versioned_runs", "versioned_degree",
    "build_reference", "merge_runs_reference", "merge_sorted", "is_sorted",
    "select_within_budget_reference", "road_network_reference", "without_edges_reference",
]


def stored_runs(graph: DynamicGraph, v: int) -> tuple[np.ndarray, np.ndarray]:
    """``v``'s two stored runs, views of the slab: the base run with its
    deletion marks ``-(w+1)`` in place, and the open batch's ``ΔN`` run."""
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
    """The length of ``v``'s list in ``version``, from the degree tables."""
    degrees = graph.degrees_old() if version is EdgeVersion.OLD else graph.degrees_new()
    return int(degrees[v])


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


def without_edges_reference(graph: StaticGraph, edges: np.ndarray) -> StaticGraph:
    """The original :meth:`StaticGraph.without_edges`: the removed edges'
    keys subtracted from the sorted edge-key array, the CSR rebuilt from the
    rest."""
    edge_arr = as_vertex_ids(edges).reshape(-1, 2)
    n = graph.num_vertices
    # an endpoint outside the graph names no edge, and its key would alias one
    edge_arr = edge_arr[(edge_arr.min(axis=1) >= 0) & (edge_arr.max(axis=1) < n)]
    keys = graph.sorted_edge_keys()
    removed = edge_keys(edge_arr[:, 0], edge_arr[:, 1], n)
    keep = np.ones(keys.size, dtype=bool)  # the few removed keys probe the many, not the reverse
    keep[np.searchsorted(keys, removed[contains_sorted(keys, removed)])] = False
    keys = keys[keep]  # the whole key array dies before the build
    return StaticGraph._from_edge_keys(n, keys, graph.labels.copy())
