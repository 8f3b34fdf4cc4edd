"""Shared utilities: seeded RNG plumbing, validation helpers, formatting.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes both forms so
call sites never touch global NumPy RNG state, keeping all experiments
deterministic and replayable.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "as_generator",
    "spawn_generator",
    "require",
    "format_bytes",
    "format_time_ns",
    "contains_sorted",
    "sorted_unique",
    "unique_inverse",
    "edge_keys",
    "as_vertex_ids",
    "VERTEX_DTYPE",
]

#: dtype used for vertex ids throughout the library.  int64 keeps headroom for
#: the encoded deletion marks (``-(v+1)``) used by the dynamic graph store.
VERTEX_DTYPE = np.int64


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh nondeterministic generator; an ``int`` seeds a new
    PCG64 generator; an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generator(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Used when a component needs private randomness that must not perturb the
    caller's stream (e.g. the frequency estimator inside the GCSM engine).
    """
    return np.random.default_rng(rng.integers(0, 2**63 - 1))


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of segment lengths, with the total appended.

    ``offsets[i]`` is where segment ``i`` starts in the flat buffer and
    ``offsets[-1]`` is the total size — the standard GPU scan that turns
    per-row lengths into bulk-copy destinations (DCSR packing, frontier
    candidate buffers).
    """
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    lengths.cumsum(out=out[1:])  # the methods: NumPy's wrappers are Python calls
    return out


def segment_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the segments ``(starts[i], lengths[i])`` laid end to
    end: the index list of one bulk gather from (or scatter into) a pool."""
    offsets = segment_offsets(lengths)
    return (starts - offsets[:-1]).repeat(lengths) + np.arange(offsets[-1])


def contains_sorted(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of each query in the sorted 1-D ``values`` (binary search)."""
    if values.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.minimum(values.searchsorted(queries), values.size - 1)
    return values[pos] == queries


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct elements of ``values`` (ravelled, dtype kept): one sort,
    one compare against the neighbour.  Equal to a plain ``np.unique``, whose
    hash path on NumPy 2.4 is 2x (64 keys) to 75x (1.6 M) slower; its
    ``return_*`` forms sort already.
    """
    out = values.flatten()
    out.sort()
    if out.size > 1:
        out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out


def unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a 1-D array — its sorted
    distinct elements and each element's index among them — in ndarray
    methods: one argsort, one compare against the neighbour, one scatter of
    the running count (NumPy's wrapper is a handful of Python calls)."""
    order = values.argsort()
    ordered = values[order]
    lead = np.empty(values.size, dtype=bool)
    lead[:1] = True
    lead[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(values.size, dtype=np.int64)
    inverse[order] = lead.cumsum() - 1
    return ordered[lead], inverse


def edge_keys(us: np.ndarray, vs: np.ndarray, num_vertices: int) -> np.ndarray:
    """The undirected edge codec: ``min(u, v) * num_vertices + max(u, v)``.

    Keys order exactly like their ``(lo, hi)`` pairs, so an edge *set* is one
    sorted int64 array (dedupe is :func:`sorted_unique`, membership
    :func:`contains_sorted`) and ``np.divmod(keys, num_vertices)`` decodes it.
    Endpoints must lie in ``[0, num_vertices)``: anything else aliases another edge.
    """
    require(
        num_vertices * num_vertices < 2**62,
        f"{num_vertices} vertices overflow the int64 edge keys (lo * num_vertices + hi)",
    )
    keys = np.minimum(us, vs, dtype=np.int64)
    keys *= num_vertices
    keys += np.maximum(us, vs)
    return keys


def as_vertex_ids(values) -> np.ndarray:
    """``values`` as a :data:`VERTEX_DTYPE` array, the same array when it
    already is one.  A value the cast would change is refused rather than
    truncated or wrapped: ``1.9``, ``nan``, ``1e30``; ``2.0`` is vertex 2.
    """
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):
        ids = values.astype(VERTEX_DTYPE, copy=False)
    if ids is not values:
        changed = ids != values
        if changed.any():
            raise ValueError(
                f"vertex id {values[changed][0].item()} is not a whole number in int64 range"
            )
    return ids


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count (e.g. ``'3.2 MB'``)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{value:.0f} B"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_time_ns(ns: float) -> str:
    """Human-readable simulated duration from nanoseconds."""
    if ns < 1e3:
        return f"{ns:.0f} ns"
    if ns < 1e6:
        return f"{ns / 1e3:.2f} us"
    if ns < 1e9:
        return f"{ns / 1e6:.2f} ms"
    return f"{ns / 1e9:.3f} s"


def geometric_mean(values: Sequence[float] | Iterable[float]) -> float:
    """Geometric mean of positive values (used for average-speedup reporting)."""
    vals = [float(v) for v in values]
    require(len(vals) > 0, "geometric_mean of empty sequence")
    require(all(v > 0 for v in vals), "geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
