"""The CPU store alone: wall-clock of update, reorganize and set-up.

Replays three of the repo benchmark's stream shapes through a bare
``DynamicGraph`` — no estimator, no kernel, no engine — and times the two
store stages separately, plus set-up by layer: ``fr/build`` (the dataset),
``fr/derive`` (``derive_stream``: selection, ``without_edges``, batches),
``fr/store_init`` (``DynamicGraph(g0)``) and ``sf3k/setup`` (all three, with
``churn_stream``).  Nothing is gated: the rows size the store
for a before/after comparison (``benchmarks/results/store_wallclock.txt``
holds parent/change rounds run alternately), and the file uses only names
the parent commit has, so the same edition runs on both sides.

* ``sparse`` — ``test_prefilter_skip.build_sparse_workload`` at the repo
  benchmark's ``sparse_tri_skip`` scale (20 000 cold + 4 000 hot vertices,
  240 insert-only batches of 256): every update touches two fresh lists.
* ``fr`` — FR analog, 100 mixed batches of 96 (``derive_stream``).
* ``sf3k_churn`` — SF3K analog, 100 batches of 64 (``churn_stream``): each
  batch deletes the previous batch's inserts.
* ``fr/check_invariants`` and ``fr/csr_new`` run on the settled FR store the
  replay leaves behind.
"""

from __future__ import annotations

import time

from conftest import run_once
from test_prefilter_skip import build_sparse_workload

from repro.graphs import DynamicGraph, datasets
from repro.graphs.stream import churn_stream, derive_stream

REPEATS = 5
FR = (96, 100)
SF3K = (64, 100)


def _replay(g0, batches) -> tuple[float, float, DynamicGraph]:
    """``(update_s, reorganize_s, store)`` over the stream on a fresh store."""
    store = DynamicGraph(g0)
    update = reorganize = 0.0
    for batch in batches:
        t0 = time.perf_counter()
        store.apply_batch(batch)
        t1 = time.perf_counter()
        store.reorganize()
        t2 = time.perf_counter()
        update += t1 - t0
        reorganize += t2 - t1
    return update, reorganize, store


def _timed(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - t0


def _setup(spec, derive, size, count) -> tuple[float, float, float]:
    """``(build_s, derive_s, store_init_s)`` of one cold set-up."""
    t0 = time.perf_counter()
    graph = datasets.DATASETS[spec].build(0)
    t1 = time.perf_counter()
    g0, _ = derive(graph, num_updates=size * count, batch_size=size, seed=0)
    t2 = time.perf_counter()
    DynamicGraph(g0)
    return t1 - t0, t2 - t1, time.perf_counter() - t2


def test_store_wallclock(benchmark, record_table):
    def run():
        streams = {"sparse": build_sparse_workload(20_000, 4_000, 240, 256)}
        for name, spec, (size, count), derive in (
            ("fr", "FR", FR, derive_stream),
            ("sf3k_churn", "SF3K", SF3K, churn_stream),
        ):
            graph = datasets.DATASETS[spec].build(0)
            streams[name] = derive(graph, num_updates=size * count, batch_size=size, seed=0)
        rows = []
        for name, (g0, batches) in streams.items():
            # best of N per stage (the minimum filters scheduler noise)
            runs = []
            for _ in range(REPEATS):
                *stages, store = _replay(g0, batches)  # one store alive at a time
                runs.append(stages)
            rows.append((f"{name}/update", len(batches), min(r[0] for r in runs)))
            rows.append((f"{name}/reorganize", len(batches), min(r[1] for r in runs)))
            if name == "fr":
                for row, calls, fn in (
                    ("check_invariants", 1, store.check_invariants),
                    ("csr_new", 5, store.csr_new),
                ):
                    best = min(_timed(fn, calls) for _ in range(REPEATS))
                    rows.append((f"fr/{row}", calls, best))
        fr = [_setup("FR", derive_stream, *FR) for _ in range(REPEATS)]
        for at, layer in enumerate(("build", "derive", "store_init")):
            rows.append((f"fr/{layer}", 1, min(run[at] for run in fr)))
        sf3k = min(sum(_setup("SF3K", churn_stream, *SF3K)) for _ in range(REPEATS))
        rows.append(("sf3k/setup", 1, sf3k))
        return rows

    rows = run_once(benchmark, run)
    with record_table("store_wallclock"):
        print(f"store wall-clock: a bare DynamicGraph (best of {REPEATS})")
        print(f"{'row':<24} {'calls':>6} {'total s':>9} {'ms / call':>10}")
        for name, calls, seconds in rows:
            print(f"{name:<24} {calls:>6} {seconds:>9.3f} {seconds / calls * 1e3:>10.3f}")
    assert all(seconds > 0 for _, _, seconds in rows)
