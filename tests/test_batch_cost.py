"""A batch costs what it touches, not ``|V|``.

Padding a graph with fifteen times its vertex count in isolated vertices
changes no list a batch reads, so it must change neither the results nor
what one batch allocates: the store's per-vertex tables are kept across
epochs, the walk tallies only the cells it charged, and an access histogram
is built only when read.  Each dense per-batch pass over ``|V|`` (a fresh
``(2, n)`` degree or offset table, a ``(budgets, n)`` tally, a dense
frequency vector or a ``(2, 2^⌈log₂ n⌉)`` histogram per counters object)
shows here as megabytes in the padded run's traced per-batch peak.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.baselines import make_system
from repro.core.multiquery import MultiQueryEngine
from repro.graphs.datasets import DATASETS
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import derive_stream
from repro.query.catalog import query_by_name
from repro.query.generator import rulebook_suite

#: what a padded run's per-batch peak may exceed the plain run's by
SLACK_BYTES = 500_000
PAD = 16  # the padded graph has PAD x n vertices
WARM, MEASURED = 2, 3


def padded(graph: StaticGraph, factor: int) -> StaticGraph:
    """``graph`` plus ``(factor - 1) * n`` isolated vertices of label 0."""
    extra = (factor - 1) * graph.num_vertices
    return StaticGraph(
        np.concatenate([graph.indptr, np.full(extra, graph.indptr[-1])]),
        graph.indices,
        np.concatenate([graph.labels, np.zeros(extra, dtype=graph.labels.dtype)]),
    )


def fr_q1(g0):
    return make_system("GCSM", g0, query_by_name("Q1"), seed=0)


def az_rulebook(g0):
    queries = rulebook_suite(24, num_labels=3, seed=0)
    return MultiQueryEngine(g0, queries, seed=0, shared=True)


CASES = {  # dataset, batch size, engine
    "fr_q1": ("FR", 96, fr_q1),
    "az_rulebook24": ("AZ", 24, az_rulebook),
}


def run(engine, batches):
    """Per measured batch: the traced peak of ``process_batch`` alone, and
    what it computed (ΔM and every simulated stage but the update, which the
    cost model prices from the average degree ``2m / n``)."""
    peaks, outcomes = [], []
    for i, batch in enumerate(batches):
        if i < WARM:
            engine.process_batch(batch)
            continue
        tracemalloc.start()
        try:
            result = engine.process_batch(batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        delta = (result.delta_count, getattr(result, "delta_counts", None))  # + per query
        outcomes.append((delta, replace(result.breakdown, update_ns=0.0)))
    return peaks, outcomes


@pytest.mark.parametrize("case", list(CASES))
def test_padding_the_vertex_set_moves_no_per_batch_peak(case):
    dataset, batch_size, build = CASES[case]
    g0, batches = derive_stream(
        DATASETS[dataset].build(0), num_updates=batch_size * (WARM + MEASURED),
        batch_size=batch_size, seed=1,
    )
    plain_peaks, plain = run(build(g0), batches)
    pad_peaks, pad = run(build(padded(g0, PAD)), batches)
    assert pad == plain
    assert any(delta[0] for delta, _ in plain)  # the batches match something
    for p, q in zip(plain_peaks, pad_peaks):
        assert q - p <= SLACK_BYTES, (
            f"{case}: per-batch peak {q / 1e6:.2f} MB at {PAD}x the vertices, "
            f"{p / 1e6:.2f} MB without"
        )
