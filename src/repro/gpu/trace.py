"""Access-trace capture and what-if replay.

A matching run's memory behaviour is fully described by its sequence of
neighbor-list accesses.  :class:`TracingView` wraps any
:class:`~repro.gpu.views.GraphView` and records that sequence; the resulting
:class:`AccessTrace` can then be **replayed** under a different data-path
assignment — a different cached set, a different device, unified memory —
*without re-running the matcher*.  This is how a user answers "what would
this exact workload have cost with a 2x buffer / half the PCIe bandwidth /
an oracle cache?" in milliseconds, and how the test suite cross-validates
the views against each other (replaying a trace through the zero-copy
pricing must reproduce the live ZeroCopyView counters exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.counters import AccessCounters, Accesses
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.gpu.memory import HostMemoryLayout
from repro.gpu.views import FullDeviceView, GraphView, UnifiedMemoryView, ZeroCopyView
from repro.utils import require, sorted_unique

__all__ = [
    "AccessTrace", "TracingView", "replay",
    "replay_zero_copy", "replay_cached", "replay_unified_memory",
]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class AccessTrace:
    """Recorded access sequence: parallel arrays of (vertex, bytes).

    ``list_lengths`` snapshots per-vertex list lengths at trace time, which
    the unified-memory replay needs to lay out the host address space.
    """

    vertices: np.ndarray
    nbytes: np.ndarray
    list_lengths: np.ndarray

    def __len__(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def total_bytes(self) -> int:
        return int(self.nbytes.sum())

    def distinct_vertices(self) -> np.ndarray:
        return sorted_unique(self.vertices)

    def access_counts(self) -> np.ndarray:
        """Per-vertex access counts (same histogram the live counters keep)."""
        out = np.zeros(self.list_lengths.shape[0], dtype=np.int64)
        np.add.at(out, self.vertices, 1)
        return out

    def top_vertices(self, k: int) -> np.ndarray:
        """The k most-accessed vertices — the oracle cache set."""
        counts = self.access_counts()
        k = min(k, int(np.count_nonzero(counts)))
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        idx = np.argpartition(-counts, k - 1)[:k]
        return np.sort(idx[np.argsort(-counts[idx], kind="stable")])


class TracingView(GraphView):
    """Wraps an inner view; records every block it classifies."""

    def __init__(self, inner: GraphView) -> None:
        super().__init__(inner.graph, inner.device, inner.counters)
        self.platform = inner.platform
        self.inner = inner
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []

    def classify(self, vertices: np.ndarray, lengths: np.ndarray) -> Accesses:
        self._chunks.append((vertices, lengths * BYTES_PER_NEIGHBOR))
        return self.inner.classify(vertices, lengths)

    def trace(self) -> AccessTrace:
        graph = self.graph
        vertices, nbytes = zip(*self._chunks) if self._chunks else ((), ())
        return AccessTrace(
            vertices=np.concatenate([*vertices, _EMPTY]),
            nbytes=np.concatenate([*nbytes, _EMPTY]),
            # every list at its stored length, appended run included
            list_lengths=graph.run_lengths(np.arange(graph.num_vertices))[1],
        )


# ----------------------------------------------------------------------
# replay: classify the recorded trace under another placement
# ----------------------------------------------------------------------
def replay(trace: AccessTrace, view: GraphView) -> AccessCounters:
    """Price the trace as ``view`` would serve it.  Any placement will do,
    and it needs no graph: classifying takes only vertices and lengths."""
    view.fetch_block(trace.vertices, trace.nbytes // BYTES_PER_NEIGHBOR)
    return view.counters


def replay_zero_copy(trace: AccessTrace, device: DeviceConfig) -> AccessCounters:
    """Price the trace as the ZC baseline would serve it."""
    return replay(trace, ZeroCopyView(None, device, AccessCounters()))


def replay_cached(
    trace: AccessTrace, device: DeviceConfig, cached: set[int] | np.ndarray
) -> AccessCounters:
    """Price the trace with an arbitrary cached vertex set (GCSM-style:
    hits read device memory, misses zero-copy; the rowidx probe is not
    charged).  Passing ``trace.top_vertices(k)`` gives the *oracle* cache of
    size k — the upper bound any online policy (frequency or degree)
    can approach."""
    return replay(trace, FullDeviceView(None, device, AccessCounters(), cached))


def replay_unified_memory(trace: AccessTrace, device: DeviceConfig) -> AccessCounters:
    """Price the trace through a cold UM pager (the UM baseline)."""
    require(trace.list_lengths.size > 0 or len(trace) == 0, "trace missing layout")
    layout = HostMemoryLayout(trace.list_lengths)
    return replay(trace, UnifiedMemoryView(None, device, AccessCounters(), layout))
