"""Table III: CPU graph-reorganization time per batch.

Paper shape: a few milliseconds at most — negligible against matching time
— growing with batch size and with graph/list sizes.

Also covers the merge itself: the lists reorganize() stores (the open
batch's N') against the scalar two-pointer reference
(``repro.testing.merge_runs_reference``) with the work accounting pinned, and
the wall-clock win of the vectorized ``repro.testing.merge_sorted`` (the
reference kernels' merge) on long adjacency lists.
"""

import time

import numpy as np
from conftest import run_once

from repro.bench import figures
from repro.graphs import datasets
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.testing import merge_sorted


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


#: ``ReorganizeStats`` per batch of the parity stream below, recorded from the
#: commit before reorganize() read its lists in bulk (it merged each touched
#: list with ``merge_sorted`` and counted per list): the accounting
#: prices ``reorg_ns``, so it may not move
PARITY_STATS = [
    (108, 768, 74, 54), (106, 722, 58, 70), (107, 735, 66, 62), (106, 700, 78, 50),
    (108, 712, 80, 48), (111, 769, 58, 70), (106, 724, 64, 64), (111, 811, 62, 66),
    (111, 742, 74, 54), (111, 734, 62, 66),
]


def test_reorganize_merge_parity_with_scalar_reference(benchmark):
    """Every list reorganize() stores equals the scalar two-pointer merge of
    the ``(base_kept, ΔN)`` runs it replaced, and ``ReorganizeStats`` equals
    the recorded per-batch tuples."""
    from repro.graphs import DynamicGraph
    from repro.testing import merge_runs_reference, neighbors_new_parts, neighbors_old, stored_runs

    g = erdos_renyi(400, 8.0, num_labels=2, seed=21)
    g0, batches = derive_stream(g, update_fraction=0.4, batch_size=64, seed=21)

    def replay():
        store = DynamicGraph(g0)
        stats = []
        for batch in batches:
            store.apply_batch(batch)
            runs = {v: neighbors_new_parts(store, v) for v in store.touched_vertices}
            want = {v: merge_runs_reference(kept, delta) for v, (kept, delta) in runs.items()}
            s = store.reorganize()
            stats.append((s.lists_touched, s.merged_elements,
                          s.deletions_dropped, s.insertions_merged))
            for v, merged in want.items():
                assert neighbors_old(store, v).tolist() == merged.tolist(), v
                assert stored_runs(store, v)[1].size == 0
        return stats

    assert run_once(benchmark, replay) == PARITY_STATS  # bit-for-bit counter parity


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
