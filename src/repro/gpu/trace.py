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

from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.gpu.memory import HostMemoryLayout, UnifiedMemoryPager
from repro.gpu.views import GraphView
from repro.query.plan import EdgeVersion
from repro.utils import require

__all__ = ["AccessTrace", "TracingView", "replay_zero_copy", "replay_cached", "replay_unified_memory"]


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
        return np.unique(self.vertices)

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
    """Wraps an inner view; records every access while delegating to it."""

    def __init__(self, inner: GraphView) -> None:
        super().__init__(inner.graph, inner.device, inner.counters)
        self.platform = inner.platform
        self.inner = inner
        self._vertices: list[int] = []
        self._nbytes: list[int] = []

    def fetch(self, v: int, version: EdgeVersion) -> tuple[np.ndarray, ...]:
        runs = self.inner.fetch(v, version)
        self._vertices.append(v)
        self._nbytes.append(self._nbytes_of(runs))
        return runs

    def fetch_block(self, vertices: np.ndarray, lengths: np.ndarray) -> None:
        self.inner.fetch_block(vertices, lengths)
        self._vertices.extend(vertices.tolist())
        self._nbytes.extend((lengths * BYTES_PER_NEIGHBOR).tolist())

    @staticmethod
    def _nbytes_of(runs: tuple[np.ndarray, ...]) -> int:
        return sum(r.size for r in runs) * BYTES_PER_NEIGHBOR

    def _record(self, v: int, nbytes: int) -> None:  # pragma: no cover
        raise AssertionError("TracingView delegates recording to its inner view")

    def trace(self) -> AccessTrace:
        graph = self.graph
        return AccessTrace(
            vertices=np.asarray(self._vertices, dtype=np.int64),
            nbytes=np.asarray(self._nbytes, dtype=np.int64),
            # every list at its stored length, appended run included
            list_lengths=graph.run_lengths(np.arange(graph.num_vertices))[1],
        )


# ----------------------------------------------------------------------
# replay pricers
# ----------------------------------------------------------------------
def replay_zero_copy(trace: AccessTrace, device: DeviceConfig) -> AccessCounters:
    """Price the trace as the ZC baseline would serve it."""
    counters = AccessCounters()
    for v, nb in zip(trace.vertices.tolist(), trace.nbytes.tolist()):
        lines = device.zero_copy_lines(nb)
        counters.record_access(Channel.ZERO_COPY, v, nb, transactions=lines)
    return counters


def replay_cached(
    trace: AccessTrace, device: DeviceConfig, cached: set[int] | np.ndarray
) -> AccessCounters:
    """Price the trace with an arbitrary cached vertex set (GCSM-style:
    hits read device memory, misses zero-copy).  Passing
    ``trace.top_vertices(k)`` gives the *oracle* cache of size k — the upper
    bound any online policy (frequency, degree, hybrid) can approach."""
    cached_set = set(np.asarray(cached).tolist()) if not isinstance(cached, set) else cached
    counters = AccessCounters()
    for v, nb in zip(trace.vertices.tolist(), trace.nbytes.tolist()):
        if v in cached_set:
            counters.record_access(Channel.GPU_GLOBAL, v, nb)
        else:
            lines = device.zero_copy_lines(nb)
            counters.record_access(Channel.ZERO_COPY, v, nb, transactions=lines)
    return counters


def replay_unified_memory(trace: AccessTrace, device: DeviceConfig) -> AccessCounters:
    """Price the trace through a cold UM pager (the UM baseline)."""
    require(trace.list_lengths.size > 0 or len(trace) == 0, "trace missing layout")
    layout = HostMemoryLayout(trace.list_lengths)
    pager = UnifiedMemoryPager(device)
    counters = AccessCounters()
    for v, nb in zip(trace.vertices.tolist(), trace.nbytes.tolist()):
        pages = layout.pages_for(v, nb, device.um_page_bytes)
        hits, faults = pager.access(pages)
        counters.record_um_hit(hits)
        counters.record_um_fault(faults)
        counters.record_access(Channel.UM, v, nb, transactions=len(pages))
        counters.bytes_by_channel[Channel.GPU_GLOBAL] += nb
    return counters
