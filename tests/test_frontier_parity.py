"""Differential tests: frontier executor vs the recursive reference.

The frontier executor's contract is *bit-identical* observable state — the
same ``MatchStats``, the same per-channel byte/transaction counters, the
same compute/output ops, the same per-vertex access histograms, and the same
sink emission order — across every view and engine in the reproduction.
These tests drive randomized workloads (insertions AND deletions) through
both executors and compare everything.  The recursive reference lives in
``repro.testing``; engines reach it through ``use_reference_kernels``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache import CachedDeviceView
from repro.core.dcsr import DcsrCache
from repro.core.matching import match_batch, match_static
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu.counters import AccessCounters
from repro.gpu.device import default_device
from repro.gpu.views import (
    FullDeviceView,
    HostCPUView,
    UnifiedMemoryView,
    ZeroCopyView,
)
from repro.query import query_by_name
from repro.query.plan import compile_delta_plans, compile_static_plan
from repro.testing import (
    match_batch_recursive,
    match_static_recursive,
    use_reference_kernels,
)

DEVICE = default_device()

EXECUTORS = ("frontier", "recursive")
MATCH_BATCH = {"frontier": match_batch, "recursive": match_batch_recursive}
MATCH_STATIC = {"frontier": match_static, "recursive": match_static_recursive}


def with_executor(engine, executor: str):
    """The engine on the named matching kernel (estimator untouched)."""
    if executor == "recursive":
        use_reference_kernels(engine, estimator=False)
    return engine


def fingerprint(counters: AccessCounters, stats, num_vertices: int) -> dict:
    """Everything observable about one executor run, hashable for equality."""
    return {
        "signed": stats.signed_count,
        "embeddings": stats.embeddings_found,
        "roots": stats.roots_processed,
        "tree_nodes": stats.tree_nodes,
        "bytes": {c.value: v for c, v in counters.bytes_by_channel.items()},
        "tx": {c.value: v for c, v in counters.transactions_by_channel.items()},
        "compute": counters.compute_ops,
        "output": counters.output_embeddings,
        "um_faults": counters.um_faults,
        "um_hits": counters.um_hits,
        "hist": counters.vertex_access_counts(num_vertices).tolist(),
        "hist_bytes": counters.vertex_access_bytes(num_vertices).tolist(),
    }


def make_view(kind: str, graph: DynamicGraph, counters: AccessCounters):
    if kind == "host":
        return HostCPUView(graph, DEVICE, counters)
    if kind == "zc":
        return ZeroCopyView(graph, DEVICE, counters)
    if kind == "um":
        return UnifiedMemoryView(graph, DEVICE, counters)
    if kind == "cached":
        # cache a deterministic subset so both hit and miss paths are hot
        verts = np.arange(0, graph.num_vertices, 3, dtype=np.int64)
        return CachedDeviceView(
            graph, DEVICE, counters, DcsrCache.build(graph, verts)
        )
    if kind == "full":
        return FullDeviceView(
            graph, DEVICE, counters, set(range(graph.num_vertices))
        )
    raise AssertionError(kind)


def run_stream(view_kind: str, g0, batches, plans, executor, filters=None):
    """Drive a whole update stream, returning fingerprints + sink trace."""
    graph = DynamicGraph(g0)
    emitted: list[tuple[tuple[int, ...], int]] = []
    prints = []
    for batch in batches:
        graph.apply_batch(batch)
        counters = AccessCounters()
        view = make_view(view_kind, graph, counters)
        stats = MATCH_BATCH[executor](
            plans,
            batch,
            view,
            sink=lambda e, s: emitted.append((e, s)),
            filters=filters,
        )
        graph.reorganize()
        prints.append(fingerprint(counters, stats, graph.num_vertices))
    return prints, emitted


@pytest.mark.parametrize("view_kind", ["host", "zc", "um", "cached", "full"])
@pytest.mark.parametrize("query_name", ["Q1", "Q3", "Q5"])
def test_views_bit_identical(view_kind, query_name):
    g = powerlaw_graph(600, 5.0, max_degree=40, num_labels=3, seed=7)
    g0, batches = derive_stream(g, num_updates=96, batch_size=32, seed=3)
    plans = compile_delta_plans(query_by_name(query_name))
    rec, rec_sink = run_stream(view_kind, g0, batches, plans, "recursive")
    fro, fro_sink = run_stream(view_kind, g0, batches, plans, "frontier")
    assert rec == fro
    assert rec_sink == fro_sink  # same embeddings, same ORDER


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_graphs_and_streams(seed):
    """Random graph shapes × random streams (inserts + deletes) agree."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 900))
    avg = float(rng.uniform(3.0, 8.0))
    g = powerlaw_graph(n, avg, max_degree=50,
                       num_labels=int(rng.integers(1, 4)), seed=seed)
    g0, batches = derive_stream(
        g, num_updates=64, batch_size=16,
        insert_probability=float(rng.uniform(0.3, 0.7)), seed=seed + 100,
    )
    query = query_by_name(["Q1", "Q2", "Q4", "Q6"][seed % 4])
    plans = compile_delta_plans(query)
    rec, rec_sink = run_stream("zc", g0, batches, plans, "recursive")
    fro, fro_sink = run_stream("zc", g0, batches, plans, "frontier")
    assert rec == fro
    assert rec_sink == fro_sink


def test_filters_path_identical():
    """RapidFlow-style candidate filters take the same pruning decisions."""
    g = powerlaw_graph(500, 5.0, max_degree=40, num_labels=3, seed=11)
    g0, batches = derive_stream(g, num_updates=64, batch_size=32, seed=5)
    query = query_by_name("Q1")
    plans = compile_delta_plans(query)
    # a deterministic, label-consistent candidate restriction per query vertex
    filters = {
        u: np.nonzero(g0.labels == query.label(u))[0].astype(np.int64)[::2].copy()
        for u in range(query.num_vertices)
    }
    for f in filters.values():
        f.sort()
    rec, rec_sink = run_stream("host", g0, batches, plans, "recursive",
                               filters=filters)
    fro, fro_sink = run_stream("host", g0, batches, plans, "frontier",
                               filters=filters)
    assert rec == fro
    assert rec_sink == fro_sink


def test_match_static_identical():
    g = powerlaw_graph(400, 5.0, max_degree=30, num_labels=2, seed=21)
    plan = compile_static_plan(query_by_name("Q2"))
    results = {}
    for executor in EXECUTORS:
        graph = DynamicGraph(g)
        counters = AccessCounters()
        view = ZeroCopyView(graph, DEVICE, counters)
        emitted: list = []
        stats = MATCH_STATIC[executor](
            plan, view, sink=lambda e, s: emitted.append((e, s)),
        )
        results[executor] = (fingerprint(counters, stats, g.num_vertices), emitted)
    assert results["frontier"] == results["recursive"]


# ----------------------------------------------------------------------
# engine-level parity: every system that embeds the executor
# ----------------------------------------------------------------------
def _engine_fingerprints(engine, batches):
    out = []
    for batch in batches:
        r = engine.process_batch(batch)
        out.append(
            {
                "delta": r.delta_count,
                "stats": (
                    r.match_stats.signed_count,
                    r.match_stats.embeddings_found,
                    r.match_stats.roots_processed,
                    r.match_stats.tree_nodes,
                ),
                "bytes": {c.value: v
                          for c, v in r.match_counters.bytes_by_channel.items()},
                "tx": {c.value: v
                       for c, v in r.match_counters.transactions_by_channel.items()},
                "compute": r.match_counters.compute_ops,
                "output": r.match_counters.output_embeddings,
                "match_ns": r.breakdown.match_ns,
            }
        )
    return out


def _workload(seed=9, n=500):
    g = powerlaw_graph(n, 5.0, max_degree=40, num_labels=3, seed=seed)
    return derive_stream(g, num_updates=64, batch_size=32, seed=seed + 1)


@pytest.mark.parametrize("system_name", ["GCSM", "ZC", "UM", "Naive", "CPU",
                                         "VSGM", "RapidFlow"])
def test_systems_bit_identical(system_name):
    from repro.core.baselines import make_system

    g0, batches = _workload()
    query = query_by_name("Q1")
    runs = {}
    for executor in EXECUTORS:
        engine = with_executor(make_system(system_name, g0, query), executor)
        runs[executor] = _engine_fingerprints(engine, batches)
    assert runs["frontier"] == runs["recursive"]


def test_multigpu_engine_bit_identical():
    from repro.core.engine import GCSMEngine

    g0, batches = _workload(seed=13)
    query = query_by_name("Q1")
    runs = {}
    for executor in EXECUTORS:
        engine = with_executor(GCSMEngine(g0, query, devices=2), executor)
        runs[executor] = _engine_fingerprints(engine, batches)
    assert runs["frontier"] == runs["recursive"]


def test_multiquery_engine_bit_identical():
    from repro.core.multiquery import MultiQueryEngine

    g0, batches = _workload(seed=17)
    queries = [query_by_name("Q1"), query_by_name("Q2")]
    runs = {}
    for executor in EXECUTORS:
        engine = with_executor(MultiQueryEngine(g0, queries), executor)
        out = []
        for batch in batches:
            r = engine.process_batch(batch)
            out.append(
                (
                    dict(r.delta_counts),
                    {c.value: v
                     for c, v in r.match_counters.bytes_by_channel.items()},
                    r.match_counters.compute_ops,
                    r.match_counters.output_embeddings,
                    r.breakdown.match_ns,
                )
            )
        runs[executor] = out
    assert runs["frontier"] == runs["recursive"]


def test_initial_match_identical():
    from repro.core.engine import GCSMEngine

    from repro.gpu.clock import simulated_time_ns

    g = powerlaw_graph(300, 4.0, max_degree=25, num_labels=2, seed=23)
    engine = GCSMEngine(g, query_by_name("Q1"))
    counters = AccessCounters()
    stats = match_static_recursive(
        compile_static_plan(engine.query),
        ZeroCopyView(engine.graph, engine.device, counters),
    )
    reference = (stats.signed_count, simulated_time_ns(counters, engine.device))
    assert engine.initial_match() == reference
