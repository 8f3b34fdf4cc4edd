"""The five benchmark workloads: inputs, engine under test, reference engine.

Each workload stresses a different layer (see README.md for the measured
shares), and for every optimisation ROADMAP items 2-4 plan there is one
workload that exercises its mechanism and one that bypasses it.  Batch
counts are fixed at >= 100 so the 90th percentile has >= 10 samples beyond
it; batch *sizes* are what was shrunk to fit the run-time envelope.

``--seed`` draws the update stream (which edges, their order, insert or
delete) and seeds the engine.  The data graph and the query set are a
workload's identity, as the paper's datasets and Fig. 7 queries are, and are
generated from pinned seeds: a fresh FR analog per seed moves
``sim_batch_us`` by 5 % and the wall tail by 9 % between seeds, more than a
third of the widest bound a metric may have, and ``rulebook_suite`` draws
different skeletons per seed, which swings per-batch cost 3x and can leave a
rulebook with no match at all.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import api

SMOKE_BATCHES = 10
GRAPH_SEED = 0     # pinned, see module docstring
RULEBOOK_SIZE = 24
RULEBOOK_SEED = 0  # pinned, see module docstring

# sparse_tri_skip: scaled from benchmarks/test_prefilter_skip.py::build_sparse_workload
N_COLD = 20_000  # labels 0/1 only: dense, but no label-2 neighbour anywhere
N_HOT = 4_000    # labels 0/1/2 mixed: real triangles appear here
HOT_EVERY = 8    # every 8th batch is hot, so the 90th percentile is a hot batch


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "gcsm" | "prefilter" | "rulebook"
    dataset: str | None
    query: str
    update_mix: str
    batch_size: int
    num_batches: int

    def batches(self, smoke: bool) -> int:
        return SMOKE_BATCHES if smoke else self.num_batches


@dataclass(frozen=True)
class Inputs:
    """What the engine receives: the generated graph, stream and query set."""

    graph: object
    batches: list
    query: object  # one QueryGraph, or the rulebook's list of them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fr_q1_mixed", "gcsm", "FR", "Q1", "mixed", 96, 100),
        Workload("ca_q3_narrow", "gcsm", "CA", "Q3", "mixed", 64, 150),
        Workload("sf3k_q1_churn", "gcsm", "SF3K", "Q1", "churn", 64, 100),
        Workload("sparse_tri_skip", "prefilter", None, "tri012", "insert", 256, 240),
        Workload("az_rulebook24", "rulebook", "AZ", "rulebook24", "mixed", 24, 100),
    )
}


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def make_query(w: Workload):
    if w.kind == "rulebook":
        return api.rulebook_suite(RULEBOOK_SIZE, num_labels=3, seed=RULEBOOK_SEED)
    if w.kind == "prefilter":
        return api.QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2], name="tri012")
    return api.query_by_name(w.query)


# ----------------------------------------------------------------------
# the label-skewed insert stream (owned by the benchmark)
# ----------------------------------------------------------------------
def sparse_graph(seed: int = GRAPH_SEED):
    """24 k vertices: a dense cold region that label-matches the triangle's
    (0,1) edge but holds no label-2 vertex, and a hot region with all three
    labels where triangles really close."""
    rng = np.random.default_rng(seed)
    n = N_COLD + N_HOT
    labels = np.empty(n, dtype=np.int64)
    labels[:N_COLD] = np.arange(N_COLD) % 2
    labels[N_COLD:] = np.arange(N_HOT) % 3
    base = np.concatenate([
        rng.integers(0, N_COLD, size=(N_COLD * 15, 2)),
        rng.integers(N_COLD, n, size=(N_HOT * 8, 2)),
    ])
    return api.StaticGraph.from_edges(n, base[base[:, 0] != base[:, 1]], labels)


def _fresh_pairs(rng, pool_a, pool_b, count, taken):
    """``count`` distinct undirected (a, b) pairs absent from ``taken`` (a
    sorted key array), in draw order."""
    n = N_COLD + N_HOT
    got = np.empty((0, 2), dtype=np.int64)
    keys = np.empty(0, dtype=np.int64)
    while got.shape[0] < count:
        draw = count - got.shape[0]
        u = pool_a[rng.integers(0, pool_a.size, size=draw + draw // 4 + 64)]
        v = pool_b[rng.integers(0, pool_b.size, size=u.size)]
        pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
        k = pairs[:, 0] * n + pairs[:, 1]
        ok = (u != v) & ~np.isin(k, taken) & ~np.isin(k, keys)
        _, first = np.unique(k[ok], return_index=True)
        keep = np.sort(first)
        got = np.concatenate([got, pairs[ok][keep]])
        keys = np.concatenate([keys, k[ok][keep]])
    return got[:count]


def sparse_stream(g0, seed: int, batch_size: int, num_batches: int):
    """Insert-only stream: 7 of 8 batches add cold (0,1) edges the
    invariant index certifies ΔM = 0 for; every 8th adds hot mixed-label
    edges that close real triangles."""
    rng = np.random.default_rng(seed + 1)
    labels = g0.labels
    idx = np.arange(N_COLD + N_HOT)
    cold = [idx[(idx < N_COLD) & (labels == lab)] for lab in range(2)]
    hot = [idx[(idx >= N_COLD) & (labels == lab)] for lab in range(3)]
    existing = g0.edge_array()
    taken = np.sort(
        np.minimum(existing[:, 0], existing[:, 1]) * (N_COLD + N_HOT)
        + np.maximum(existing[:, 0], existing[:, 1])
    )
    is_hot = [i % HOT_EVERY == HOT_EVERY - 1 for i in range(num_batches)]
    n_hot = sum(is_hot)
    third = batch_size // 3
    cold_pairs = _fresh_pairs(
        rng, cold[0], cold[1], (num_batches - n_hot) * batch_size, taken
    )
    hot_pairs = [
        _fresh_pairs(rng, hot[a], hot[b], n_hot * third, taken)
        for a, b in ((0, 1), (1, 2), (0, 2))
    ]
    batches = []
    c = h = 0
    for hot_batch in is_hot:
        if hot_batch:
            edges = np.concatenate([p[h * third:(h + 1) * third] for p in hot_pairs])
            h += 1
        else:
            edges = cold_pairs[c * batch_size:(c + 1) * batch_size]
            c += 1
        batches.append(api.UpdateBatch(edges, np.ones(edges.shape[0], dtype=np.int64)))
    return batches


# ----------------------------------------------------------------------
# build / engines / ΔM
# ----------------------------------------------------------------------
def setup(w: Workload, seed: int, smoke: bool = False, span=lambda name: nullcontext()):
    """Generate the workload's inputs and construct the engine under test:
    ``(inputs, engine)``.  ``span(name)`` wraps each layer's entry point (the
    traced run passes its tracer's; set-up is the same code either way)."""
    nb = w.batches(smoke)
    with span("graphs.datasets.build"):
        if w.kind == "prefilter":
            graph = sparse_graph()
        else:
            graph = api.DATASETS[w.dataset].build(GRAPH_SEED)
    with span("graphs.stream.derive"):
        if w.kind == "prefilter":
            g0, batches = graph, sparse_stream(graph, seed, w.batch_size, nb)
        else:
            if w.batch_size * nb > graph.num_edges // 2:
                raise RuntimeError(f"{w.name}: stream larger than half of {w.dataset}")
            derive = api.churn_stream if w.update_mix == "churn" else api.derive_stream
            g0, batches = derive(
                graph, num_updates=w.batch_size * nb, batch_size=w.batch_size,
                seed=seed + 1,
            )
    query = make_query(w)
    with span("query.plan.compile"):
        for q in query if w.kind == "rulebook" else [query]:
            api.compile_delta_plans(q)
    inputs = Inputs(g0, batches[:nb], query)
    with span("core.engine.init"):
        engine = make_engine(w, inputs, seed)
    return inputs, engine


def make_engine(w: Workload, inputs: Inputs, seed: int):
    """The engine under test, default arguments only."""
    if w.kind == "rulebook":
        return api.MultiQueryEngine(inputs.graph, inputs.query, seed=seed, shared=True)
    if w.kind == "prefilter":
        return api.GCSMEngine(inputs.graph, inputs.query, seed=seed, prefilter="on")
    return api.make_system("GCSM", inputs.graph, inputs.query, seed=seed)


def make_reference(w: Workload, inputs: Inputs, seed: int):
    """An independent placement that must produce the same ΔM per batch."""
    if w.kind == "rulebook":
        return api.MultiQueryEngine(inputs.graph, inputs.query, seed=seed, shared=False)
    if w.kind == "prefilter":
        return api.GCSMEngine(inputs.graph, inputs.query, seed=seed, prefilter="off")
    return api.make_system("ZC", inputs.graph, inputs.query, seed=seed)


def delta_of(w: Workload, result):
    """ΔM of one batch: an int, or the rulebook's per-query list in name order."""
    if w.kind == "rulebook":
        return [int(result.delta_counts[q]) for q in sorted(result.delta_counts)]
    return int(result.delta_count)
