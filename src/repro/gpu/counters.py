"""Traffic and work counters.

Every neighbor-list access the matching executor performs is recorded here,
per channel, together with a per-vertex access histogram.  The histogram is
the ground truth behind two paper artifacts: the access-locality CDF of
Fig. 15a (top 5 % of vertices absorb ≥ 80 % of accesses) and the cache
coverage metric of Fig. 15b (``|S ∩ T| / |S|``); it is also the "exact
access frequency" ``C_v`` that the random-walk estimator of Sec. IV is
validated against.

Accounting is arrays end to end: a view *classifies* a block of accesses
into an :class:`Accesses` (one element per access), :func:`tabulate` sums
it per owner with one ``bincount`` per column, and an
:class:`AccessCounters` is one int64 totals vector plus a histogram built
when read from the blocks ``record`` keeps (an unread batch allocates none);
:meth:`AccessCounters.accumulate` adds a built histogram — ``merge`` and the
rulebook's per-query attribution are that one call.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

__all__ = [
    "Channel", "Accesses", "AccessCounters", "tabulate",
    "TRANSACTIONS", "OPS_COLUMN", "FAULTS_COLUMN", "DMA_COLUMN", "OUTPUT_COLUMN", "WIDTH",
]


class Channel(enum.Enum):
    """Where a memory access was served from.  ``slot`` is the member's
    dense index (definition order) into the counters' per-channel vectors."""

    GPU_GLOBAL = "gpu_global"  # cached data in device memory
    ZERO_COPY = "zero_copy"  # CPU pinned memory over PCIe, 128 B lines
    UM = "unified_memory"  # page-fault-driven migration
    CPU_DRAM = "cpu_dram"  # host-side execution (CPU baselines)
    PEER = "peer"  # device-to-device reads (NVLink / PCIe P2P, multi-GPU)

    def __init__(self, _value: str) -> None:
        self.slot = len(type(self).__members__)


_C = len(Channel)
#: the head of the totals vector — bytes per channel, transactions per
#: channel (from column ``TRANSACTIONS``), ``compute_ops``, ``um_faults``,
#: ``um_hits`` — is what a block of classified accesses adds up to
#: (:func:`tabulate`'s row layout); ``dma_bytes``, ``dma_requests`` and
#: ``output_embeddings`` follow it, ``WIDTH`` columns in all
TRANSACTIONS = _C
OPS_COLUMN, FAULTS_COLUMN, _HITS = 2 * _C, 2 * _C + 1, 2 * _C + 2
_TALLY = 2 * _C + 3
DMA_COLUMN, OUTPUT_COLUMN = _TALLY, _TALLY + 2
WIDTH = _TALLY + 3


class Accesses(NamedTuple):
    """A block of classified accesses, one array element per access: the
    :attr:`Channel.slot` serving it, the bytes it moves, its transactions on
    that channel and the compute ops of reaching it (a cache probe).  A
    unified-memory view adds the pages that ``faults`` / ``hits`` per
    access; bytes on its ``UM`` channel are charged to ``GPU_GLOBAL`` as
    well (:func:`tabulate`)."""

    channel: np.ndarray
    nbytes: np.ndarray
    transactions: np.ndarray
    ops: np.ndarray
    faults: np.ndarray | None = None
    hits: np.ndarray | None = None


def tabulate(acc: Accesses, owner: np.ndarray | None = None, owners: int = 1) -> np.ndarray:
    """Sum a block per owner: an int64 ``(owners, 2·C + 3)`` table whose rows
    are laid out like the head of an :class:`AccessCounters` totals vector.
    ``owner`` gives each access's row (all row 0 without one)."""
    if owner is None:
        owner = np.zeros(acc.channel.shape[0], dtype=np.int64)
    cell = owner * _C + acc.channel
    table = np.zeros((owners, _TALLY), dtype=np.int64)
    # bincount sums its weights in float64: exact, one block's totals are
    # far below 2**53
    table[:, :_C] = np.bincount(cell, acc.nbytes, owners * _C).reshape(owners, _C)
    table[:, _C:2 * _C] = np.bincount(cell, acc.transactions, owners * _C).reshape(owners, _C)
    scalars = (acc.ops,) if acc.faults is None else (acc.ops, acc.faults, acc.hits)
    for at, values in enumerate(scalars, start=OPS_COLUMN):
        table[:, at] = np.bincount(owner, values, owners)
    # pages resident under unified memory are read at global-memory bandwidth
    table[:, Channel.GPU_GLOBAL.slot] += table[:, Channel.UM.slot]
    return table


class _ChannelRow(Mapping):
    """``{Channel: int}`` over the per-channel slots of a counters' totals
    vector that start at ``at``."""

    __slots__ = ("_counters", "_at")

    def __init__(self, counters: "AccessCounters", at: int) -> None:
        self._counters, self._at = counters, at

    def __getitem__(self, channel: Channel) -> int:
        return int(self._counters._totals[self._at + channel.slot])

    def __iter__(self):
        return iter(Channel)

    def __len__(self) -> int:
        return _C


class _Scalar:
    """One named slot of the totals vector, read as a Python ``int``."""

    def __init__(self, slot: int) -> None:
        self.slot = slot

    def __get__(self, counters, owner=None) -> int:
        return self if counters is None else int(counters._totals[self.slot])


class AccessCounters:
    """Mutable per-run counters.

    ``bytes_by_channel`` / ``transactions_by_channel`` aggregate traffic;
    ``compute_ops`` counts inner-loop work (intersection element steps plus
    per-candidate bookkeeping); the vertex histogram counts *accesses to each
    vertex's neighbor list* regardless of channel.  Every accessor returns
    Python numbers, so results serialise as they are.
    """

    compute_ops = _Scalar(OPS_COLUMN)
    um_faults = _Scalar(FAULTS_COLUMN)
    um_hits = _Scalar(_HITS)
    dma_bytes = _Scalar(DMA_COLUMN)
    dma_requests = _Scalar(DMA_COLUMN + 1)
    output_embeddings = _Scalar(OUTPUT_COLUMN)

    def __init__(self) -> None:
        self._totals = np.zeros(WIDTH, dtype=np.int64)
        #: ``(2, _size)`` access counts and bytes per vertex, built when read
        #: from the ``(vertices, nbytes)`` blocks recorded since (``_pending``
        #: accesses); ``_size``: 0, or a power of two >= 1 024 above them all
        self._hist: np.ndarray | None = None
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending = self._size = 0
        #: the histogram is shared with a :meth:`copy`: copy it before writing
        self._lent = False

    # (properties, not attributes: a stored row would tie every counters
    # object into a reference cycle only the garbage collector frees)
    @property
    def bytes_by_channel(self) -> Mapping[Channel, int]:
        return _ChannelRow(self, 0)

    @property
    def transactions_by_channel(self) -> Mapping[Channel, int]:
        return _ChannelRow(self, TRANSACTIONS)

    @property
    def totals(self) -> np.ndarray:
        """The int64 totals vector itself, ``WIDTH`` columns (read it; the
        ``record_*`` methods write it)."""
        return self._totals

    # ------------------------------------------------------------------
    def _room(self, top: int) -> np.ndarray:
        """The histogram to write into — the one write path: grown to hold
        vertex ``top``, and this object's own (a lent one is copied first)."""
        self._size = max(self._size, 1024, 1 << top.bit_length())
        hist = self._hist
        if hist is None or self._size > hist.shape[1]:
            grown = np.zeros((2, self._size), dtype=np.int64)
            if hist is not None:
                grown[:, : hist.shape[1]] = hist
            self._hist = hist = grown
        elif self._lent:
            self._hist = hist = hist.copy()
        self._lent = False
        return hist

    def _pend(self, blocks: list, pending: int, top: int) -> None:
        """Keep recorded blocks for the first read, folding them in once they
        outweigh the histogram they add up to."""
        self._blocks = self._blocks + blocks  # not in place: a copy may share the list
        self._pending += pending
        self._size = max(self._size, 1024, 1 << top.bit_length())
        if self._pending > self._size:
            self._built()

    def _built(self) -> np.ndarray | None:
        """The histogram, with every pending block added (the read path)."""
        if self._blocks:
            hist = self._room(self._size - 1)
            vertices, nbytes = map(np.concatenate, zip(*self._blocks))
            np.add.at(hist[0], vertices, 1)
            np.add.at(hist[1], vertices, nbytes)
            self._blocks, self._pending = [], 0
        return self._hist

    def accumulate(
        self, totals: np.ndarray, hist: np.ndarray | None = None,
        at: np.ndarray | None = None,
    ) -> None:
        """Add a totals vector (or its head: a :func:`tabulate` row) and,
        with it, a ``(2, k)`` count / bytes histogram — of vertices
        ``0 … k-1``, or of the ``k`` distinct ascending vertices ``at``."""
        self._totals[: totals.shape[0]] += totals
        if hist is not None:
            top = hist.shape[1] - 1 if at is None else int(at[-1])
            self._room(top)[:, slice(top + 1) if at is None else at] += hist

    def record(self, vertices: np.ndarray, acc: Accesses) -> None:
        """Record a classified block: one access to ``vertices[i]``'s list
        per element — the counter state of one :meth:`record_access` each.
        Totals are added now; the block joins the histogram when it is read."""
        if vertices.size == 0:
            return
        self._totals[:_TALLY] += tabulate(acc)[0]
        self._pend([(vertices, acc.nbytes)], vertices.size, int(vertices.max()))

    def record_access(self, channel: Channel, vertex: int, nbytes: int,
                      transactions: int = 1) -> None:
        """Record one neighbor-list access served by ``channel``."""
        self._totals[channel.slot] += nbytes
        self._totals[_C + channel.slot] += transactions
        self._pend([(np.array([vertex]), np.array([nbytes]))], 1, int(vertex))

    def record_dma(self, nbytes: int, requests: int = 1) -> None:
        self._totals[DMA_COLUMN] += nbytes
        self._totals[DMA_COLUMN + 1] += requests

    def record_compute(self, ops: int) -> None:
        self._totals[OPS_COLUMN] += ops

    def record_output(self, embeddings: int) -> None:
        self._totals[OUTPUT_COLUMN] += embeddings

    def merge(self, other: "AccessCounters") -> None:
        """Accumulate ``other`` into ``self`` (multi-batch aggregation): its
        built histogram now, its pending blocks as pending blocks."""
        pending = other._blocks, other._pending, other._size - 1  # ``other`` may be ``self``
        self.accumulate(other._totals, other._hist)
        if pending[0]:
            self._pend(*pending)

    def copy(self) -> "AccessCounters":
        """An independent counters object holding the same state: the totals
        copied, the pending blocks shared, the histogram lent copy-on-write —
        each side copies it before its next write (an unwritten copy moves none)."""
        fresh = AccessCounters()
        fresh._totals[:] = self._totals
        fresh._hist = self._hist
        fresh._lent = self._lent = self._hist is not None
        fresh._blocks, fresh._pending, fresh._size = self._blocks, self._pending, self._size
        return fresh

    # ------------------------------------------------------------------
    @property
    def total_access_count(self) -> int:
        """Accesses recorded (the histogram is not built to count them)."""
        return self._pending + (0 if self._hist is None else int(self._hist[0].sum()))

    def _histogram(self, row: int, num_vertices: int | None) -> np.ndarray:
        hist = self._built()
        have = 0 if hist is None else hist.shape[1]
        out = np.zeros(have if num_vertices is None else num_vertices, dtype=np.int64)
        k = min(out.shape[0], have)
        if k:
            out[:k] = hist[row, :k]
        return out

    def vertex_access_counts(self, num_vertices: int | None = None) -> np.ndarray:
        """Per-vertex access histogram, optionally padded/truncated to n."""
        return self._histogram(0, num_vertices)

    def vertex_access_bytes(self, num_vertices: int | None = None) -> np.ndarray:
        """Per-vertex byte histogram, optionally padded/truncated to n."""
        return self._histogram(1, num_vertices)

    def top_fraction_share(self, fraction: float, *, weight: str = "count") -> float:
        """Share of memory access going to the top ``fraction`` of accessed
        vertices (the Fig. 15a statistic).

        ``weight="count"`` ranks and sums access *counts*; ``weight="bytes"``
        ranks and sums the *bytes* those accesses moved — the quantity PCIe
        actually carries, dominated by the large hub lists.
        """
        if weight not in ("count", "bytes"):
            raise ValueError(f"unknown weight {weight!r}")
        counts = self.vertex_access_counts()
        values = (counts if weight == "count" else self.vertex_access_bytes())[counts > 0]
        total = values.sum()
        if total == 0:
            return 0.0
        # fraction is relative to vertices that were accessed at least once
        k = max(1, int(round(fraction * values.size)))
        top = np.sort(values)[::-1][:k].sum()
        return float(top / total)

    def access_cdf(self, fractions: list[float], *, weight: str = "count") -> list[float]:
        """The Fig. 15a curve: cumulative access share at each top-fraction."""
        return [self.top_fraction_share(f, weight=weight) for f in fractions]

    def summary(self) -> dict[str, float]:
        return {
            "zero_copy_bytes": float(self.bytes_by_channel[Channel.ZERO_COPY]),
            "gpu_global_bytes": float(self.bytes_by_channel[Channel.GPU_GLOBAL]),
            "cpu_dram_bytes": float(self.bytes_by_channel[Channel.CPU_DRAM]),
            "peer_bytes": float(self.bytes_by_channel[Channel.PEER]),
            "um_faults": float(self.um_faults),
            "um_hits": float(self.um_hits),
            "dma_bytes": float(self.dma_bytes),
            "dma_requests": float(self.dma_requests),
            "compute_ops": float(self.compute_ops),
            "accesses": float(self.total_access_count),
            "embeddings": float(self.output_embeddings),
        }
