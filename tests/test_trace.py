"""Tests for access-trace capture and what-if replay."""

import numpy as np
import pytest

from repro.core.matching import match_batch
from repro.gpu import AccessCounters, Channel, ZeroCopyView, UnifiedMemoryView, default_device
from repro.graphs import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.query import QueryGraph, compile_delta_plans
from repro.testing.trace import (
    TracingView,
    replay_cached,
    replay_unified_memory,
    replay_zero_copy,
)

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


@pytest.fixture(scope="module")
def traced_run():
    g = powerlaw_graph(1_500, 8.0, max_degree=100, num_labels=1, seed=4)
    g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=4)
    dg = DynamicGraph(g0)
    dg.apply_batch(batches[0])
    device = default_device()
    live = AccessCounters()
    view = TracingView(ZeroCopyView(dg, device, live))
    stats = match_batch(compile_delta_plans(TRIANGLE), batches[0], view)
    return view.trace(), live, device, stats


class TestCapture:
    def test_trace_nonempty_and_consistent(self, traced_run):
        trace, live, device, stats = traced_run
        assert len(trace) > 0
        assert trace.total_bytes == live.bytes_by_channel[Channel.ZERO_COPY]
        assert len(trace) == live.total_access_count

    def test_access_counts_match_live_histogram(self, traced_run):
        trace, live, device, _ = traced_run
        n = trace.list_lengths.shape[0]
        assert np.array_equal(trace.access_counts(), live.vertex_access_counts(n))

    def test_top_vertices(self, traced_run):
        trace, _, _, _ = traced_run
        top = trace.top_vertices(10)
        counts = trace.access_counts()
        assert top.size <= 10
        # every top vertex is accessed at least as often as any non-top one
        if top.size:
            floor = counts[top].min()
            others = np.setdiff1d(trace.distinct_vertices(), top)
            if others.size:
                assert counts[others].max() <= floor
        assert trace.top_vertices(0).size == 0


class TestReplay:
    def test_zero_copy_replay_reproduces_live_counters(self, traced_run):
        trace, live, device, _ = traced_run
        replayed = replay_zero_copy(trace, device)
        assert replayed.bytes_by_channel[Channel.ZERO_COPY] == \
            live.bytes_by_channel[Channel.ZERO_COPY]
        assert replayed.transactions_by_channel[Channel.ZERO_COPY] == \
            live.transactions_by_channel[Channel.ZERO_COPY]

    def test_cached_replay_splits_channels(self, traced_run):
        trace, live, device, _ = traced_run
        everything = set(trace.distinct_vertices().tolist())
        all_cached = replay_cached(trace, device, everything)
        assert all_cached.bytes_by_channel[Channel.ZERO_COPY] == 0
        assert all_cached.bytes_by_channel[Channel.GPU_GLOBAL] == trace.total_bytes
        nothing = replay_cached(trace, device, set())
        assert nothing.bytes_by_channel[Channel.GPU_GLOBAL] == 0
        assert nothing.bytes_by_channel[Channel.ZERO_COPY] == trace.total_bytes

    def test_oracle_cache_monotone_in_size(self, traced_run):
        trace, _, device, _ = traced_run
        prev = None
        for k in (0, 5, 20, 100):
            counters = replay_cached(trace, device, trace.top_vertices(k))
            traffic = counters.bytes_by_channel[Channel.ZERO_COPY]
            if prev is not None:
                assert traffic <= prev
            prev = traffic

    def test_um_replay_matches_live_um_view(self):
        """Replaying a trace through the UM pricer must equal a live UM run
        of the same workload (same pager, same layout)."""
        g = powerlaw_graph(1_000, 6.0, max_degree=60, num_labels=1, seed=5)
        g0, batches = derive_stream(g, num_updates=32, batch_size=32, seed=5)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        device = default_device()
        plans = compile_delta_plans(TRIANGLE)

        live = AccessCounters()
        match_batch(plans, batches[0], UnifiedMemoryView(dg, device, live))

        traced = AccessCounters()
        view = TracingView(ZeroCopyView(dg, device, traced))
        match_batch(plans, batches[0], view)
        replayed = replay_unified_memory(view.trace(), device)

        assert replayed.um_faults == live.um_faults
        assert replayed.um_hits == live.um_hits
