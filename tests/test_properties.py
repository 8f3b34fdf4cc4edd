"""Cross-cutting property-based tests (hypothesis).

These complement the per-module suites with randomized invariants that span
module boundaries: cache formats vs the store, pagers vs a reference model,
the executor vs the oracle on *generated* patterns, and conservation laws
of the counters.
"""

from collections import OrderedDict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dcsr import DcsrCache
from repro.core.matching import match_static
from repro.graphs import DynamicGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.gpu import AccessCounters, Channel, DeviceConfig, HostCPUView, default_device
from repro.gpu.memory import UnifiedMemoryPager
from repro.query import compile_static_plan
from repro.query.generator import random_query
from repro.testing import neighbors_new_parts, neighbors_old, use_reference_kernels
from repro.testing.reference import count_embeddings
from tests.test_dcsr import packed_row


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dcsr_equals_store_for_random_batches(seed):
    """Packing any subset of vertices must reproduce the store's OLD/NEW
    views exactly, deletion marks and all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    g = erdos_renyi(n, 4.0, seed=int(rng.integers(0, 2**31)))
    g0, batches = derive_stream(
        g, update_fraction=0.5, batch_size=max(1, int(rng.integers(1, 12))),
        seed=int(rng.integers(0, 2**31)),
    )
    dg = DynamicGraph(g0)
    dg.apply_batch(batches[0])
    k = int(rng.integers(0, n + 1))
    subset = rng.choice(n, size=k, replace=False) if k else np.empty(0, dtype=np.int64)
    cache = DcsrCache.build(dg, subset)
    verts = np.unique(subset).astype(np.int64)
    assert cache.lookup_block(verts).all()
    old, old_len = dg.read(verts, True)
    new, new_len = dg.read(verts, False)
    old_at, new_at = np.cumsum(old_len) - old_len, np.cumsum(new_len) - new_len
    for row, v in enumerate(verts.tolist()):
        base, delta = packed_row(cache, row)
        decoded = np.where(base < 0, -base - 1, base).tolist()
        assert decoded == neighbors_old(dg, v).tolist()
        assert decoded == old[old_at[row]:old_at[row] + old_len[row]].tolist()
        sb, sd = neighbors_new_parts(dg, v)
        assert base[base >= 0].tolist() == sb.tolist() and delta.tolist() == sd.tolist()
        assert sorted(sb.tolist() + sd.tolist()) == new[new_at[row]:new_at[row] + new_len[row]].tolist()
    # vertices outside the subset always miss
    outside = np.setdiff1d(np.arange(n), subset)
    assert not cache.lookup_block(outside).any()


class _ReferenceLru:
    """Independent, obviously-correct LRU model to check the pager against."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pages: OrderedDict[int, None] = OrderedDict()

    def access(self, page: int) -> bool:
        hit = page in self.pages
        if hit:
            self.pages.move_to_end(page)
        else:
            self.pages[page] = None
            if len(self.pages) > self.capacity:
                self.pages.popitem(last=False)
        return hit


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    accesses=st.lists(st.integers(min_value=0, max_value=30), max_size=200),
)
def test_um_pager_matches_reference_lru(capacity, accesses):
    device = DeviceConfig(global_memory_bytes=4096 * capacity, um_cache_fraction=1.0)
    pager = UnifiedMemoryPager(device)
    ref = _ReferenceLru(capacity)
    for page in accesses:
        hits, faults = pager.access(range(page, page + 1))
        assert (hits == 1) == ref.access(page)
        assert hits + faults == 1
    assert len(pager._resident) == len(ref.pages)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_executor_matches_oracle_on_generated_patterns(seed):
    """Static matching with compiled plans equals brute force for *random*
    connected labeled patterns — not just the hand-picked test queries."""
    rng = np.random.default_rng(seed)
    query = random_query(
        int(rng.integers(2, 6)),
        num_labels=2 if rng.random() < 0.7 else None,
        density=float(rng.uniform(0, 0.8)),
        seed=int(rng.integers(0, 2**31)),
    )
    g = erdos_renyi(int(rng.integers(5, 30)), 3.5, num_labels=2,
                    seed=int(rng.integers(0, 2**31)))
    dg = DynamicGraph(g)
    view = HostCPUView(dg, default_device(), AccessCounters())
    stats = match_static(compile_static_plan(query), view)
    assert stats.signed_count == count_embeddings(g, query)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_counter_conservation(seed):
    """Bytes recorded per vertex must sum to the channel totals, and every
    access increments the histogram exactly once."""
    rng = np.random.default_rng(seed)
    g = erdos_renyi(int(rng.integers(10, 40)), 4.0, seed=int(rng.integers(0, 2**31)))
    g0, batches = derive_stream(g, update_fraction=0.4, batch_size=8,
                                seed=int(rng.integers(0, 2**31)))
    dg = DynamicGraph(g0)
    dg.apply_batch(batches[0])
    counters = AccessCounters()
    view = HostCPUView(dg, default_device(), counters)
    from repro.core.matching import match_batch
    from repro.query import compile_delta_plans
    from repro.query.pattern import QueryGraph

    match_batch(compile_delta_plans(QueryGraph(3, [(0, 1), (1, 2), (0, 2)])),
                batches[0], view)
    hist_bytes = int(counters.vertex_access_bytes().sum())
    assert hist_bytes == counters.bytes_by_channel[Channel.CPU_DRAM]
    assert counters.total_access_count == int(counters.vertex_access_counts().sum())


@pytest.mark.parametrize("executor", ["frontier", "recursive"])
@pytest.mark.parametrize("estimator", ["frontier", "recursive"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_adversarial_streams_are_total_and_oracle_exact(executor, estimator, seed):
    """Random adversarial streams (duplicates, phantoms, churn, double
    deletes, new-vertex bursts, flapping) run end-to-end through the full
    pipeline without error, every system's ΔM matches the brute-force
    oracle recount, and the store invariants hold after every reorganize —
    for both executors and both estimators."""
    from repro.graphs.stream import generate_adversarial_stream
    from repro.testing.validation import verify_stream
    from repro.query.pattern import QueryGraph

    rng = np.random.default_rng(seed)
    g = erdos_renyi(int(rng.integers(20, 40)), 5.0, num_labels=2,
                    seed=int(rng.integers(0, 2**31)))
    batches = generate_adversarial_stream(
        g, num_batches=3, batch_size=max(4, int(rng.integers(4, 14))),
        seed=int(rng.integers(0, 2**31)),
    )
    query = QueryGraph(3, [(0, 1), (1, 2), (0, 2)])
    mode = "coalesce" if rng.random() < 0.7 else "ignore"
    report = verify_stream(
        ["GCSM", "CPU"], g, query, batches,
        against_oracle=True, seed=int(rng.integers(0, 2**31)),
        conflict_mode=mode, check_invariants=True,
        prepare=partial(
            use_reference_kernels, matcher=executor == "recursive",
            estimator=estimator == "recursive",
        ),
    )
    assert report.anomalies is not None
    assert report.anomalies.input_size == sum(len(b) for b in batches)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_views_agree_on_results_differ_only_in_channels(seed):
    """Any two views produce identical ΔM; only the traffic channel moves."""
    from repro.core.matching import match_batch
    from repro.gpu import ZeroCopyView
    from repro.query import compile_delta_plans
    from repro.query.pattern import QueryGraph

    rng = np.random.default_rng(seed)
    g = erdos_renyi(int(rng.integers(10, 35)), 4.0, seed=int(rng.integers(0, 2**31)))
    g0, batches = derive_stream(g, update_fraction=0.4, batch_size=8,
                                seed=int(rng.integers(0, 2**31)))
    query = QueryGraph(3, [(0, 1), (1, 2), (0, 2)])
    plans = compile_delta_plans(query)
    results = {}
    channel_bytes = {}
    for name, cls, channel in (
        ("cpu", HostCPUView, Channel.CPU_DRAM),
        ("zc", ZeroCopyView, Channel.ZERO_COPY),
    ):
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        counters = AccessCounters()
        stats = match_batch(plans, batches[0], cls(dg, default_device(), counters))
        results[name] = stats.signed_count
        channel_bytes[name] = counters.bytes_by_channel[channel]
        # nothing leaked onto the other channel
        other = Channel.ZERO_COPY if channel is Channel.CPU_DRAM else Channel.CPU_DRAM
        assert counters.bytes_by_channel[other] == 0
    assert results["cpu"] == results["zc"]
    assert channel_bytes["cpu"] == channel_bytes["zc"]  # same lists read
