"""Temporal/windowed matching: edges expire ``window`` batches after insert.

Sliding-window (TTL) semantics layered over the plain update stream: an
edge inserted by batch ``k`` expires — is deleted again — at batch
``k + window``, unless a later insert refreshes its TTL or an explicit
delete retires it first.  The layer is a pure stream-to-stream transform:
:func:`apply_window` rewrites the batch list so each batch carries its due
expiry deletes *prepended* to the raw updates, and downstream machinery
(store, engines, fuzzer, oracle) runs unchanged.  Exactness therefore
follows from the existing differential validation: a windowed stream is
just another stream.

Semantics (mirroring the store's ``coalesce`` last-occurrence-wins netting):

* the **final** operation a batch applies to an edge decides its fate —
  a final insert (re)arms the TTL at ``k + window``, a final delete
  cancels it;
* expiry deletes are emitted only for edges still present (an explicitly
  deleted edge never double-expires);
* raw updates win over same-batch expiries (they come later in the batch),
  so re-inserting an edge in the batch where it would expire keeps it
  alive — coalesce nets the pair to the correct store state;
* initial-snapshot edges carry no TTL: only streamed inserts are windowed
  (expiring ``G_0`` wholesale would dismantle the workload, not window it).

Because expiry deletes can collide with raw updates of the same edge inside
one batch, windowed streams are only meaningful under the ``coalesce`` /
``ignore`` conflict modes — ``strict`` correctly rejects such batches.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import DELETE, UpdateBatch
from repro.utils import require

__all__ = ["apply_window"]


def _canonical(edges: np.ndarray) -> list[tuple[int, int]]:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return list(zip(lo.tolist(), hi.tolist()))


def apply_window(
    initial: StaticGraph,
    batches: list[UpdateBatch],
    *,
    window: int,
) -> list[UpdateBatch]:
    """Rewrite ``batches`` so streamed inserts expire after ``window`` batches:
    one batch out per batch in.  Edges still armed when the stream ends
    remain in the final graph.
    """
    require(window >= 1, "window must be >= 1 batch")
    present: set[tuple[int, int]] = {
        (int(u), int(v)) for u, v in _canonical(initial.edge_array())
    }
    expiry: dict[tuple[int, int], int] = {}
    out: list[UpdateBatch] = []

    def due_deletes(k: int) -> list[tuple[int, int]]:
        due = sorted(e for e, t in expiry.items() if t <= k)
        for e in due:
            del expiry[e]
        return [e for e in due if e in present]

    def settle(edges: np.ndarray, signs: np.ndarray, k: int) -> None:
        """Advance presence/TTL state by last-occurrence-wins netting."""
        final: dict[tuple[int, int], int] = {}
        for e, s in zip(_canonical(edges), signs.tolist()):
            final[e] = s  # later rows overwrite: last op wins
        for e, s in final.items():
            if s > 0:
                present.add(e)
                expiry[e] = k + window
            else:
                expiry.pop(e, None)
                present.discard(e)

    for k, batch in enumerate(batches):
        dead = due_deletes(k)
        for e in dead:
            present.discard(e)
        if dead:
            dead_arr = np.asarray(dead, dtype=batch.edges.dtype).reshape(-1, 2)
            edges = np.concatenate([dead_arr, batch.edges], axis=0)
            signs = np.concatenate([
                np.full(len(dead), DELETE, dtype=np.int64), batch.signs
            ])
        else:
            edges, signs = batch.edges, batch.signs
        settle(batch.edges, batch.signs, k)
        out.append(UpdateBatch(edges, signs, batch.new_vertex_labels))
    return out
