"""Temporal/windowed matching: TTL expiry as a stream-to-stream transform."""

from functools import partial

import numpy as np
import pytest

from repro.graphs import UpdateBatch, apply_window
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import DELETE, INSERT, derive_stream
from repro.query import QueryGraph
from repro.testing import use_reference_kernels
from repro.testing.validation import verify_stream

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


def _empty_initial():
    # a tiny snapshot whose edges never collide with the streamed ones
    # (streamed tests use vertices 20+; the snapshot triangle sits at 0-2)
    from repro.graphs.static_graph import StaticGraph

    return StaticGraph.from_edges(30, [(0, 1), (1, 2), (0, 2)])


def _batch(*ops):
    edges = [(u, v) for u, v, _ in ops]
    signs = [s for _, _, s in ops]
    return UpdateBatch(edges, signs)


def _expired(out, batches):
    """The expiry deletes the window prepended, batch by batch."""
    return [[tuple(e) for e in o.edges[: len(o) - len(b)].tolist()]
            for o, b in zip(out, batches)]


class TestApplyWindow:
    def test_expiry_fires_after_window(self):
        g0 = _empty_initial()
        batches = [
            _batch((20, 21, INSERT)),
            _batch((22, 23, INSERT)),
            _batch((24, 25, INSERT)),
        ]
        out = apply_window(g0, batches, window=2)
        # batch 2 must open with the expiry delete of batch 0's insert
        assert np.array_equal(out[2].edges[0], np.array([20, 21]))
        assert out[2].signs[0] == DELETE
        # the other two inserts are still armed when the stream ends
        assert _expired(out, batches) == [[], [], [(20, 21)]]

    def test_reinsert_refreshes_ttl(self):
        g0 = _empty_initial()
        batches = [
            _batch((20, 21, INSERT)),
            _batch((20, 21, INSERT)),  # re-arm: now expires at batch 3
            _batch((22, 23, INSERT)),
            _batch((24, 25, INSERT)),
        ]
        out = apply_window(g0, batches, window=2)
        # no expiry in batch 2; the refreshed TTL fires in batch 3
        assert not np.any(out[2].signs == DELETE)
        assert out[3].signs[0] == DELETE
        assert np.array_equal(out[3].edges[0], np.array([20, 21]))

    def test_explicit_delete_cancels_ttl(self):
        g0 = _empty_initial()
        batches = [
            _batch((20, 21, INSERT)),
            _batch((20, 21, DELETE)),
            _batch((22, 23, INSERT)),
            _batch((24, 25, INSERT)),
        ]
        out = apply_window(g0, batches, window=2)
        assert _expired(out, batches) == [[], [], [], []]
        for b in out[2:]:
            assert not np.any(b.signs == DELETE)

    def test_initial_snapshot_edges_never_expire(self):
        g0 = _empty_initial()
        batches = [_batch((20, 21, INSERT)) for _ in range(3)]
        out = apply_window(g0, batches, window=1)
        expired = {
            (int(e[0]), int(e[1]))
            for b in out for e, s in zip(b.edges, b.signs) if s == DELETE
        }
        snapshot = {(int(u), int(v)) for u, v in g0.edge_array()}
        assert not expired & snapshot

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            apply_window(_empty_initial(), [], window=0)


class TestWindowedExactness:
    def test_differential_validation_all_executors(self):
        """Windowed stream through the fuzzer's checker: both executors x
        both estimators agree with the from-scratch oracle."""
        g = erdos_renyi(40, 5.0, num_labels=2, seed=4)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=10, seed=4)
        windowed = apply_window(g0, batches, window=2)
        assert any(_expired(windowed, batches))  # the axis is actually exercised
        for executor in ("frontier", "recursive"):
            for estimator in ("frontier", "recursive"):
                rep = verify_stream(
                    ["GCSM", "ZC"], g0, TRIANGLE, windowed[:4],
                    against_oracle=True, conflict_mode="coalesce",
                    prepare=partial(
                        use_reference_kernels, matcher=executor == "recursive",
                        estimator=estimator == "recursive",
                    ),
                )
                assert rep.oracle_checked

    def test_strict_mode_rejects_expiry_collisions(self):
        """An expiry delete colliding with a same-batch re-insert must trip
        strict conflict handling (windowed streams need coalesce/ignore)."""
        g0 = _empty_initial()
        batches = [
            _batch((20, 21, INSERT)),
            _batch((24, 25, INSERT)),
            _batch((20, 21, INSERT)),  # re-insert in the expiry batch
        ]
        windowed = apply_window(g0, batches, window=2)
        from repro.graphs import DynamicGraph
        from repro.graphs.stream import BatchConflictError

        store = DynamicGraph(g0)
        with pytest.raises(BatchConflictError):
            for b in windowed:
                store.apply_batch(b, mode="strict")
                store.reorganize()
