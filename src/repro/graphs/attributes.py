"""Edge weights/attributes for predicate-filtered matching.

The weighted-matching axis attaches a scalar attribute ``w(u, v) ∈ [0, 1)``
to every undirected edge.  Queries constrain edges through closed-interval
predicates (:attr:`repro.query.pattern.QueryGraph.edge_predicates`), and the
executors push those predicates into candidate generation.

Two sources provide the weight of an edge:

* **Deterministic hash weights** (the default): ``w`` is a splitmix64-style
  hash of the canonical ``(min(u, v), max(u, v))`` pair, mapped to
  ``[0, 1)``.  Every component — both executors, the shared trie, the
  brute-force oracle — recomputes the identical value from the endpoints
  alone, so weighted streams need no side-channel state and the
  differential fuzzer can validate predicate exactness end to end.
* **Explicit overrides** (:class:`EdgeAttributeStore`): a sparse overlay of
  per-edge weights recorded on insert.  Lookups fall through to the hash
  for every edge without an override, so an empty store is behaviorally
  identical to the default.

Orientation never matters: ``weight(u, v) == weight(v, u)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_weight", "edge_weights", "pair_weights", "EdgeAttributeStore"]

# splitmix64 finalizer constants (Steele et al.) — applied over the packed
# canonical pair so close-by vertex ids still give avalanche-mixed weights
_C0 = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_INV_2_53 = float(2.0 ** -53)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the algorithm
        z = x + _C0
        z = (z ^ (z >> _S30)) * _C1
        z = (z ^ (z >> _S27)) * _C2
        return z ^ (z >> _S31)


def edge_weights(us, vs) -> np.ndarray:
    """Deterministic hash weight of each ``(us[i], vs[i])`` pair in [0, 1).

    Broadcasts its inputs (a scalar anchor against a candidate array is the
    common executor call shape).  Orientation-insensitive: the pair is
    canonicalized to ``(min, max)`` before hashing.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    lo = np.minimum(us, vs).astype(np.uint64)
    hi = np.maximum(us, vs).astype(np.uint64)
    h = _mix((lo << _S32) ^ hi ^ (hi << _S11))
    return (h >> _S11).astype(np.float64) * _INV_2_53


def edge_weight(u: int, v: int) -> float:
    """Scalar convenience wrapper over :func:`edge_weights`."""
    return float(edge_weights(np.int64(u), np.int64(v)))


def pair_weights(attributes: "EdgeAttributeStore | None", us, vs) -> np.ndarray:
    """Weights of the ``(us[i], vs[i])`` pairs as the executors read them:
    through the overlay when there is one, else the hash default."""
    return edge_weights(us, vs) if attributes is None else attributes.pair_weights(us, vs)


class EdgeAttributeStore:
    """Sparse explicit-weight overlay over the deterministic hash default.

    ``set_weight`` records an explicit per-edge weight; every other edge
    reads its hash weight, so the empty store is a behavioral no-op and
    engines can thread one through unconditionally.  ``apply_batch`` /
    ``close_batch`` mirror the dynamic store's batch lifecycle: an insert
    carrying an explicit weight records it immediately (new edges have no
    OLD reads to preserve), while a deleted edge's override is only removed
    at ``close_batch`` — OLD-adjacency reads during the open batch must
    still see the pre-batch weight.
    """

    def __init__(self, overrides: dict[tuple[int, int], float] | None = None) -> None:
        self._overrides: dict[tuple[int, int], float] = {}
        for (u, v), w in (overrides or {}).items():
            self.set_weight(u, v, w)
        self._pending_removals: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        u, v = int(u), int(v)
        return (u, v) if u < v else (v, u)

    @property
    def num_overrides(self) -> int:
        return len(self._overrides)

    def set_weight(self, u: int, v: int, w: float) -> None:
        self._overrides[self._key(u, v)] = float(w)

    def clear_weight(self, u: int, v: int) -> None:
        self._overrides.pop(self._key(u, v), None)

    # ------------------------------------------------------------------
    def weight(self, u: int, v: int) -> float:
        w = self._overrides.get(self._key(u, v))
        return w if w is not None else edge_weight(u, v)

    def pair_weights(self, us, vs) -> np.ndarray:
        """Vectorized :meth:`weight` (broadcasts like :func:`edge_weights`)."""
        out = edge_weights(us, vs)
        if self._overrides:
            us_b, vs_b = np.broadcast_arrays(
                np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
            )
            lo = np.minimum(us_b, vs_b).ravel()
            hi = np.maximum(us_b, vs_b).ravel()
            flat = out.ravel()
            get = self._overrides.get
            for i in range(flat.size):
                w = get((int(lo[i]), int(hi[i])))
                if w is not None:
                    flat[i] = w
            out = flat.reshape(out.shape)
        return out

    # ------------------------------------------------------------------
    def apply_batch(self, batch, weights: np.ndarray | None = None) -> None:
        """Fold one (effective) update batch into the overlay.

        ``weights`` optionally supplies an explicit weight per batch row
        (aligned with ``batch.edges``); rows without one keep the hash
        default.  Deleted edges' overrides are queued for removal at
        :meth:`close_batch`, matching the store's OLD/NEW epoch split.
        """
        edges = batch.edges
        signs = batch.signs
        for i in range(edges.shape[0]):
            key = self._key(edges[i, 0], edges[i, 1])
            if signs[i] > 0:
                if weights is not None:
                    self._overrides[key] = float(weights[i])
                self._pending_removals.discard(key)
            elif key in self._overrides:
                self._pending_removals.add(key)

    def close_batch(self) -> None:
        """Drop overrides of edges deleted by the just-settled batch."""
        for key in self._pending_removals:
            self._overrides.pop(key, None)
        self._pending_removals.clear()

    def __repr__(self) -> str:
        return (
            f"EdgeAttributeStore(overrides={len(self._overrides)}, "
            f"pending_removals={len(self._pending_removals)})"
        )
