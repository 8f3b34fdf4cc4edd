"""Edge weights for predicate-filtered matching.

The weighted-matching axis attaches a scalar attribute ``w(u, v) ∈ [0, 1)``
to every undirected edge.  Queries constrain edges through closed-interval
predicates (:attr:`repro.query.pattern.QueryGraph.edge_predicates`), and the
executors push those predicates into candidate generation.

An edge's weight is its hash: ``w`` is a splitmix64-style hash of the
canonical ``(min(u, v), max(u, v))`` pair, mapped to ``[0, 1)``.  Every
component — the kernel, the frequency walk, the shared trie, the reference
executors and the brute-force oracle — recomputes the identical value from
the endpoints alone, so weighted streams need no side-channel state and the
differential fuzzer can validate predicate exactness end to end.
Orientation never matters: ``w(u, v) == w(v, u)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_weights"]

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
