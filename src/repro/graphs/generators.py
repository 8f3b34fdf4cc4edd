"""Synthetic graph generators.

The paper evaluates on SNAP graphs (Amazon, RoadNet-PA/CA, LiveJournal,
Friendster) and LDBC Graphalytics social-network graphs (SF3K, SF10K), up to
151 GB — neither available offline nor tractable at full scale in pure
Python.  These generators produce *structural analogs*: what matters for
every effect the paper measures is (a) the degree-skew of the graph (power
law for the social/co-purchase graphs, near-uniform small degree for the
road networks) and (b) the labeled-subgraph density, both of which are
controlled here.  :mod:`repro.graphs.datasets` instantiates the seven Table I
analogs at scaled-down sizes.

All generators return :class:`repro.graphs.static_graph.StaticGraph` and are
deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.static_graph import StaticGraph
from repro.utils import VERTEX_DTYPE, as_generator, edge_keys, require, sorted_unique

__all__ = [
    "powerlaw_graph",
    "road_network",
    "erdos_renyi",
    "assign_labels",
]


def _powerlaw_weights(n: int, exponent: float, max_degree: int, avg_degree: float) -> np.ndarray:
    """Chung–Lu expected-degree sequence: ``w_i ∝ (i + 1)^(-1/(exponent-1))``.

    Scaled so the mean matches ``avg_degree``; the cap-and-rescale loop pins
    the heaviest ranks at ``max_degree`` while restoring the mean, producing
    the hub-dominated skew of the paper's social graphs (max/avg degree
    ratios of ~30-50x).
    """
    require(exponent > 2.0, "power-law exponent must exceed 2 for finite mean")
    ranks = np.arange(n, dtype=np.float64) + 1.0
    w = ranks ** (-1.0 / (exponent - 1.0))
    w *= avg_degree * n / w.sum()
    for _ in range(6):
        np.minimum(w, max_degree, out=w)
        w *= avg_degree * n / w.sum()
    np.minimum(w, max_degree, out=w)
    return w


def _weighted_draws(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(p.size, size=size, p=p)``, value for value and generator
    state for state (NumPy inverts the cdf at ``rng.random(size)``), without
    its binary search per draw: a table of where each of ``k`` equal buckets
    starts in the cdf, then a walk up the few entries one bucket holds.  ``k``
    is a power of two, so ``u * k`` and ``b / k`` are exact and a bucket's
    start never overshoots its draws; ``cdf[-1] == 1 > u`` ends every walk.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    k = 1 << (p.size - 1).bit_length()
    starts = cdf.searchsorted(np.arange(k) / k, side="right")
    u = rng.random(size)
    at = starts[(u * k).astype(np.int64)]
    low = np.flatnonzero(cdf[at] <= u)
    while low.size:
        at[low] += 1
        low = low[cdf[at[low]] <= u[low]]
    return at


def powerlaw_graph(
    num_vertices: int,
    avg_degree: float,
    *,
    exponent: float = 2.5,
    max_degree: int | None = None,
    num_labels: int = 4,
    seed: int | np.random.Generator | None = 0,
) -> StaticGraph:
    """Chung–Lu style power-law graph (social-network analog).

    Endpoints of ``~ n * avg_degree / 2`` candidate edges are sampled
    proportionally to a truncated power-law weight sequence and deduplicated.
    Vertex ids are then shuffled so vertex id carries no degree information
    (the degree-based Naive cache baseline must not get an accidental
    advantage from id ordering).
    """
    rng = as_generator(seed)
    require(num_vertices >= 2, "need at least two vertices")
    if max_degree is None:
        max_degree = max(8, int(num_vertices ** 0.6))
    w = _powerlaw_weights(num_vertices, exponent, max_degree, avg_degree)
    p = w / w.sum()
    target_edges = int(num_vertices * avg_degree / 2)
    # oversample to compensate for duplicate / self-loop rejection
    draws = int(target_edges * 1.35) + 16
    src = _weighted_draws(rng, p, draws)
    dst = _weighted_draws(rng, p, draws)
    mask = src != dst
    src, dst = src[mask], dst[mask]
    keys = edge_keys(src, dst, num_vertices)
    del src, dst, mask  # the draws die before the keys are deduped and the CSR built
    keys = sorted_unique(keys)
    if keys.size > target_edges:
        keys = keys[rng.choice(keys.size, size=target_edges, replace=False)]
    perm = rng.permutation(num_vertices).astype(VERTEX_DTYPE)
    # a permutation relabels the edge set without a loop or a repeat: the
    # relabelled keys only need sorting
    keys = edge_keys(perm[keys // num_vertices], perm[keys % num_vertices], num_vertices)
    keys.sort()
    labels = assign_labels(num_vertices, num_labels, rng=rng)
    return StaticGraph._from_edge_keys(num_vertices, keys, labels)


def road_network(
    rows: int,
    cols: int,
    *,
    diagonal_fraction: float = 0.3,
    extra_edge_fraction: float = 0.02,
    num_labels: int = 3,
    seed: int | np.random.Generator | None = 0,
) -> StaticGraph:
    """Bounded-degree planar-ish lattice (RoadNet-PA/CA analog).

    A ``rows x cols`` grid (degree ≤ 4) plus a random subset of diagonals
    (up to degree 8) and a few extra short-range links — reproducing the
    small max degree (9–12) of the SNAP road networks.  Road networks are
    the paper's stress test for the claim that CSM locality comes from small
    update batches, not only from degree skew (Fig. 11 discussion).
    """
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


def erdos_renyi(
    num_vertices: int,
    avg_degree: float,
    *,
    num_labels: int = 4,
    seed: int | np.random.Generator | None = 0,
) -> StaticGraph:
    """G(n, m) uniform random graph (used by tests and property checks)."""
    rng = as_generator(seed)
    target_edges = int(num_vertices * avg_degree / 2)
    max_possible = num_vertices * (num_vertices - 1) // 2
    require(target_edges <= max_possible, "too many edges requested")
    draws = int(target_edges * 1.4) + 16
    src = rng.integers(0, num_vertices, size=draws)
    dst = rng.integers(0, num_vertices, size=draws)
    mask = src != dst
    keys = sorted_unique(edge_keys(src[mask], dst[mask], num_vertices))
    if keys.size > target_edges:
        keys = keys[rng.choice(keys.size, size=target_edges, replace=False)]
    edges = np.stack(np.divmod(keys, num_vertices), axis=1)
    labels = assign_labels(num_vertices, num_labels, rng=rng)
    return StaticGraph.from_edges(num_vertices, edges, labels)


def assign_labels(
    num_vertices: int,
    num_labels: int,
    *,
    skew: float = 1.0,
    rng: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Random vertex labels with an optional Zipf-like frequency skew.

    ``skew == 1.0`` gives a mildly skewed distribution (label k drawn with
    probability ∝ 1/(k+1)); ``skew == 0`` gives uniform labels.
    """
    generator = as_generator(rng)
    require(num_labels >= 1, "need at least one label")
    if num_labels == 1:
        return np.zeros(num_vertices, dtype=np.int64)
    weights = (np.arange(num_labels, dtype=np.float64) + 1.0) ** (-skew)
    weights /= weights.sum()
    return generator.choice(num_labels, size=num_vertices, p=weights).astype(np.int64)
