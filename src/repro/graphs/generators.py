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

    The draws follow a per-cell loop's order, and the graph and the generator
    state after the call are pinned (``tests/test_generators.py``): cell by
    cell, a row above the last draws one uniform for its down-right diagonal
    (every column but the last) and then one for its down-left diagonal (every
    column but the first); then four ``integers`` per extra link — row,
    column, row offset, column offset in ``[-2, 2]``; then the labels.
    """
    rng = as_generator(seed)
    require(rows >= 2 and cols >= 2, "lattice needs at least 2x2")
    n = rows * cols
    cell = np.arange(n, dtype=VERTEX_DTYPE).reshape(rows, cols)
    # a row's draws are d1(0), d1(1), d2(1), ..., d1(cols-2), d2(cols-2), d2(cols-1)
    draws = rng.random((rows - 1, 2 * (cols - 1)))
    col = np.arange(cols - 1)
    d1 = draws[:, np.maximum(2 * col - 1, 0)] < diagonal_fraction  # down-right
    d2 = draws[:, np.minimum(2 * col + 2, 2 * cols - 3)] < diagonal_fraction  # down-left
    del draws
    # a lattice edge is (v, v + step) with v < v + step: its key is v * (n + 1) + step
    keys = [
        v.ravel() * (n + 1) + step
        for v, step in ((cell[:, :-1], 1), (cell[:-1], cols),
                        (cell[:-1, :-1][d1], cols + 1), (cell[:-1, 1:][d2], cols - 1))
    ]
    del cell, d1, d2  # only the keys outlive the lattice
    # extra short-range links create the occasional degree-9..12 junction
    extra = int(n * extra_edge_fraction)
    if extra > 0:
        r, c, dr, dc = _link_draws(rng, extra, rows, cols).T
        r2, c2 = r + dr, c + dc
        ok = (r2 >= 0) & (r2 < rows) & (c2 >= 0) & (c2 < cols) & ((dr != 0) | (dc != 0))
        keys.append(edge_keys(r[ok] * cols + c[ok], r2[ok] * cols + c2[ok], n))
    keys = sorted_unique(np.concatenate(keys))
    labels = assign_labels(n, num_labels, rng=rng)
    return StaticGraph._from_edge_keys(n, keys, labels)


def _link_draws(rng: np.random.Generator, extra: int, rows: int, cols: int) -> np.ndarray:
    """``extra`` rows of ``(r, c, dr, dc)``: ``rng.integers(0, rows)``,
    ``(0, cols)``, ``(-2, 3)``, ``(-2, 3)`` per link, value for value and
    generator state for state.  ``Generator.integers`` maps one 32-bit word
    ``x`` to ``[0, span)`` as ``(x * span) >> 32`` (Lemire), rejecting ``x``
    and drawing again when ``(x * span) mod 2**32 < (2**32 - span) mod span``;
    so one block of raw words gives every value unless a word would be
    rejected, when the links are drawn again call by call."""
    state = rng.bit_generator.state
    span = np.array([rows, cols, 5, 5], dtype=np.uint64)
    scaled = rng.integers(0, 2**32, size=(extra, 4), dtype=np.uint64) * span
    if ((scaled & 0xFFFFFFFF) < (2**32 - span) % span).any():
        rng.bit_generator.state = state
        return np.array([
            (rng.integers(0, rows), rng.integers(0, cols),
             rng.integers(-2, 3), rng.integers(-2, 3))
            for _ in range(extra)
        ], dtype=np.int64)
    return (scaled >> 32).astype(np.int64) - np.array([0, 0, 2, 2])


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
