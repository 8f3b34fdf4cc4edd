"""Table III: CPU graph-reorganization time per batch.

Paper shape: a few milliseconds at most — negligible against matching time
— growing with batch size and with graph/list sizes.

Also covers the vectorized per-list merge that reorganize() uses: parity
against the scalar reference (``repro.testing.merge_runs_reference``) and the
wall-clock win on long adjacency lists.
"""

import time

import numpy as np
from conftest import run_once

from repro.bench import figures
from repro.graphs import datasets
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.utils import merge_sorted


def test_table3_reorg_time(benchmark, record_table):
    with record_table("table3_reorg"):
        out = run_once(benchmark, figures.table3_reorg_time)

    small, big = figures.SCALED_BATCH_4096, figures.SCALED_BATCH_8192
    for name in datasets.TABLE1_ORDER:
        # bigger batches reorganize more lists
        assert out[(name, big)] > out[(name, small)], name
        # reorganization stays tiny: well under a simulated millisecond at
        # our scale (the paper's absolute values are 0.8-9.5 ms)
        assert out[(name, big)] < 1.0, (name, out[(name, big)])
    # denser graphs pay more (longer lists to merge)
    assert out[("SF10K", big)] > out[("PA", big)]
    assert out[("FR", small)] > out[("AZ", small)]


def test_reorganize_merge_parity_with_scalar_reference(benchmark, monkeypatch):
    """Replaying the same stream with the vectorized merge and with the
    scalar reference must leave bit-identical stores and ReorganizeStats."""
    from repro.graphs import DynamicGraph
    from repro.graphs import dynamic_graph as dg_mod
    from repro.testing import merge_runs_reference

    g = erdos_renyi(400, 8.0, num_labels=2, seed=21)
    g0, batches = derive_stream(g, update_fraction=0.4, batch_size=64, seed=21)

    def replay(use_reference):
        if use_reference:
            monkeypatch.setattr(dg_mod, "merge_sorted", merge_runs_reference)
        else:
            monkeypatch.setattr(dg_mod, "merge_sorted", merge_sorted)
        store = DynamicGraph(g0)
        stats = []
        for batch in batches:
            store.apply_batch(batch)
            s = store.reorganize()
            stats.append((s.lists_touched, s.merged_elements,
                          s.deletions_dropped, s.insertions_merged))
        return store.snapshot(), stats

    snap_vec, stats_vec = run_once(benchmark, replay, False)
    snap_ref, stats_ref = replay(True)
    assert snap_vec == snap_ref
    assert stats_vec == stats_ref  # bit-for-bit counter parity


def test_reorganize_vectorized_merge_wallclock(benchmark):
    """The numpy two-searchsorted merge beats the scalar two-pointer loop
    on long adjacency lists (where reorganize time actually accrues)."""
    from repro.testing import merge_runs_reference

    rng = np.random.default_rng(7)
    pool = rng.choice(2_000_000, size=120_000, replace=False)
    kept = np.sort(pool[:100_000]).astype(np.int64)
    delta = np.sort(pool[100_000:]).astype(np.int64)

    def timed(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn(kept, delta)
            best = min(best, time.perf_counter() - t0)
        return best, out

    t_vec, out_vec = run_once(benchmark, timed, merge_sorted)
    t_ref, out_ref = timed(merge_runs_reference, repeats=1)
    assert out_vec.tolist() == out_ref.tolist()
    speedup = t_ref / max(t_vec, 1e-9)
    print(f"\nvectorized merge: {t_vec*1e3:.2f} ms vs scalar {t_ref*1e3:.2f} ms "
          f"({speedup:.0f}x) on {kept.size + delta.size} elements")
    assert speedup > 3.0
