"""Aggregate-invariant pre-filter benchmark: skip wins and overhead bound.

Three legs, two asserted, all persisted to ``results/BENCH_prefilter.json``:

1. **Sparse stream** (label-skewed inserts, labeled triangle): most batches
   land where no endpoint can ever satisfy the query's adjacency
   requirement, so the invariant index certifies ΔM = 0 and the engine
   skips estimation, packing, and the kernel.  Asserted: >= 50 % of batches
   skipped and >= 2x wall-clock over the prefilter-off twin — with
   bit-identical ΔM per batch.
2. **Dense stream** (FR analog, catalog Q1): nearly every batch carries
   live roots, so the prefilter is pure overhead.  Asserted: modeled
   total_ns (which charges the maintenance through the cost model) within
   10 % of the prefilter-off run, same ΔM and embeddings.
3. **Road-net wildcard** (PA analog, unlabeled triangle): wildcard
   patterns give the invariants nothing to refute, the worst case for the
   index.  Reported only — skip rate and overhead land in the artifact.
"""

import json
import time

import numpy as np
from conftest import RESULTS_DIR, run_once

from repro.bench.harness import clear_caches, print_table, run_stream
from repro.core.engine import GCSMEngine
from repro.graphs import StaticGraph, UpdateBatch
from repro.query import QueryGraph, query_by_name

TRI_LABELED = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2], name="tri012")
TRI_WILD = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="tri_wild")

N_COLD = 1000  # labels 0/1 only: dense, but no label-2 neighbor anywhere
N_HOT = 500    # labels 0/1/2 mixed: real triangles appear here
N = N_COLD + N_HOT
NUM_BATCHES = 20
BATCH = 64
#: timed passes per side, alternating off / on
PASSES = 5
#: the engine settings of the two sides of the sparse leg
SIDES = {"off": {}, "on": {"prefilter": "on"}}


def build_sparse_workload(n_cold=N_COLD, n_hot=N_HOT, num_batches=NUM_BATCHES, batch=BATCH):
    """Insert stream where 18/20 batches land in a dense label-{0,1}-only
    region.  Those roots *pass* the per-edge label check — the prefilter-off
    engine walks FE estimation and expands the frontier over the dense
    neighborhoods before failing — but every root endpoint is missing the
    label-2 neighbor the triangle's adjacency requirement demands, so the
    invariant index certifies ΔM = 0 and skips the whole pipeline.  (The
    sizes are arguments for ``test_store_wallclock.py``, which replays the
    same shape at the repo benchmark's scale.)"""
    rng = np.random.default_rng(7)
    n = n_cold + n_hot
    labels = np.empty(n, dtype=np.int64)
    labels[:n_cold] = np.arange(n_cold) % 2          # cold: labels 0/1
    labels[n_cold:] = np.arange(n_hot) % 3           # hot: labels 0/1/2
    cold_edges = rng.integers(0, n_cold, size=(n_cold * 15, 2))
    hot_edges = rng.integers(n_cold, n, size=(n_hot * 4, 2))
    base = np.concatenate([cold_edges, hot_edges])
    g0 = StaticGraph.from_edges(n, base[base[:, 0] != base[:, 1]], labels)

    def fresh_pairs(pool_a, pool_b, count, seen):
        out = []
        while len(out) < count:
            u = int(pool_a[rng.integers(0, pool_a.size)])
            v = int(pool_b[rng.integers(0, pool_b.size)])
            key = (min(u, v), max(u, v))
            if u != v and key not in seen:
                seen.add(key)
                out.append(key)
        return np.array(out, dtype=np.int64)

    idx = np.arange(n)
    cold = [idx[(idx < n_cold) & (labels == lab)] for lab in range(2)]
    hot = [idx[(idx >= n_cold) & (labels == lab)] for lab in range(3)]
    seen = {(int(u), int(v)) for u, v in g0.edge_array()}
    batches = []
    for i in range(num_batches):
        if i % 10 == 9:  # hot batch: mixed-label edges, real ΔM work
            edges = np.concatenate([
                fresh_pairs(hot[0], hot[1], batch // 3, seen),
                fresh_pairs(hot[1], hot[2], batch // 3, seen),
                fresh_pairs(hot[0], hot[2], batch // 3, seen),
            ])
        else:  # cold batch: (0,1) edges that label-match but cannot close
            edges = fresh_pairs(cold[0], cold[1], batch, seen)
        batches.append(
            UpdateBatch(edges, np.ones(edges.shape[0], dtype=np.int64))
        )
    return g0, batches


def run_serial(g0, batches, **kwargs):
    engine = GCSMEngine(g0, TRI_LABELED, seed=0, **kwargs)
    wall0 = time.perf_counter()
    results = engine.process_stream(batches)
    return results, time.perf_counter() - wall0


def sparse_leg():
    g0, batches = build_sparse_workload()
    passes, results = {side: [] for side in SIDES}, {}
    for _ in range(PASSES):
        for side, settings in SIDES.items():
            results[side], wall = run_serial(g0, batches, **settings)
            passes[side].append(wall)
    res_off, res_on = results["off"], results["on"]
    wall_off, wall_on = (float(np.median(passes[side])) for side in SIDES)
    print("sparse passes, wall s: " + "; ".join(
        f"{side} {' '.join(f'{w:.3f}' for w in walls)}" for side, walls in passes.items()))

    skipped = sum(r.prefilter.batches_skipped for r in res_on)
    roots_masked = sum(r.prefilter.roots_skipped for r in res_on)
    model_on = sum(r.breakdown.total_ns for r in res_on)
    model_off = sum(r.breakdown.total_ns for r in res_off)
    speedup = wall_off / wall_on
    rows = [
        ["off", "-", "-", f"{model_off / 1e6:.3f}", f"{wall_off:.3f}"],
        ["invariant", f"{skipped}/{NUM_BATCHES}", f"{roots_masked}",
         f"{model_on / 1e6:.3f}", f"{wall_on:.3f}"],
    ]
    print_table(
        f"sparse stream: labeled triangle, {NUM_BATCHES} batches of {BATCH} "
        f"(wall speedup {speedup:.2f}x, medians of {PASSES} alternating passes)",
        ["prefilter", "batches skipped", "roots masked", "model ms", "wall s"],
        rows,
    )
    deltas_equal = all(
        a.delta_count == b.delta_count for a, b in zip(res_on, res_off)
    )
    return {
        "num_batches": NUM_BATCHES, "batch_size": BATCH,
        "batches_skipped": skipped, "skip_rate": skipped / NUM_BATCHES,
        "roots_masked": roots_masked,
        "wall_off_s": wall_off, "wall_on_s": wall_on,
        "wall_off_passes_s": passes["off"], "wall_on_passes_s": passes["on"],
        "wall_speedup": speedup,
        "model_off_ns": model_off, "model_on_ns": model_on,
        "delta_total": sum(r.delta_count for r in res_on),
        "deltas_equal": deltas_equal,
    }


def stream_leg(dataset, query, *, num_batches, batch_size=None):
    clear_caches()
    off = run_stream("GCSM", dataset, query,
                     batch_size=batch_size, num_batches=num_batches, seed=0)
    on = run_stream("GCSM", dataset, query,
                    batch_size=batch_size, num_batches=num_batches, seed=0,
                    prefilter="on")
    overhead = on.breakdown.total_ns / off.breakdown.total_ns
    return on, off, {
        "dataset": dataset, "query": query.name,
        "num_batches": num_batches,
        "model_off_ns": off.breakdown.total_ns,
        "model_on_ns": on.breakdown.total_ns,
        "prefilter_ns": on.breakdown.prefilter_ns,
        "overhead_ratio": overhead,
        "batches_skipped": on.batches_skipped,
        "roots_skipped": on.roots_skipped,
        "delta_total": on.delta_total,
        "deltas_equal": on.delta_total == off.delta_total,
        "embeddings_equal": on.embeddings_total == off.embeddings_total,
    }


def dense_and_road_legs():
    q1 = query_by_name("Q1")
    _, _, dense = stream_leg("FR", q1, num_batches=3, batch_size=256)
    _, _, road = stream_leg("PA", TRI_WILD, num_batches=4)
    rows = [
        [leg["dataset"], leg["query"],
         f"{leg['batches_skipped']}/{leg['num_batches']}",
         f"{leg['roots_skipped']}",
         f"{leg['overhead_ratio']:.3f}"]
        for leg in (dense, road)
    ]
    print_table(
        "prefilter overhead on dense / wildcard streams (modeled ns ratio)",
        ["dataset", "query", "batches skipped", "roots masked", "on/off ratio"],
        rows,
    )
    return dense, road


def test_prefilter_skip(benchmark, record_table):
    with record_table("prefilter_skip"):
        sparse = run_once(benchmark, sparse_leg)
        dense, road = dense_and_road_legs()
    # persisted before the gates, so a failing run leaves its passes behind
    artifact = {"sparse": sparse, "dense": dense, "road_wildcard": road}
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_prefilter.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    assert json.loads(path.read_text())["sparse"]["skip_rate"] == sparse["skip_rate"]

    # exactness everywhere: the prefilter may only remove provably dead work
    assert sparse["deltas_equal"]
    assert dense["deltas_equal"] and dense["embeddings_equal"]
    assert road["deltas_equal"] and road["embeddings_equal"]

    # headline sparse claim: >= 50 % certified batch skips, >= 2x wall clock
    assert sparse["skip_rate"] >= 0.5, f"skip rate {sparse['skip_rate']:.2f}"
    assert sparse["wall_speedup"] >= 2.0, (
        f"sparse wall speedup only {sparse['wall_speedup']:.2f}x"
    )
    # the modeled clock must agree with the wall-clock direction
    assert sparse["model_on_ns"] < sparse["model_off_ns"]

    # dense bound: maintenance charged through the cost model stays <= 10 %
    assert dense["batches_skipped"] == 0
    assert dense["overhead_ratio"] <= 1.10, (
        f"dense overhead {dense['overhead_ratio']:.3f}"
    )
