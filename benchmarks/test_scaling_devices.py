"""Multi-GPU scaling study: the device sweep.

Extension beyond the paper (which evaluates a single RTX3090): shard the
GCSM pipeline across a simulated NVLink fleet, vertex ``v`` owned by shard
``hash(v) mod N``, and measure where the speedup goes.  Expected shape:
end-to-end speedup is **monotone but sub-linear** in the device count — the
host-side phases (update, estimation, reorganize) are shared serial work
(Amdahl), and the kernel phase pays peer-interconnect stalls for every
cross-shard read plus a ΔM all-reduce per batch.

``results/partitioner_decision.txt`` records why ownership is the hash:
range, frequency-aware and min-cut owners and online repartitioning were
measured against it before they were removed.
"""

from conftest import run_once

from repro.bench.harness import print_table, run_stream
from repro.query import query_by_name

DATASET = "SF3K"
QUERY = "Q1"
BATCH = 256
NUM_BATCHES = 2
DEVICE_SWEEP = (1, 2, 4, 8)


def _run(devices):
    return run_stream(
        "GCSM", DATASET, query_by_name(QUERY),
        batch_size=BATCH, num_batches=NUM_BATCHES, seed=0, devices=devices,
    )


def scale_devices():
    results = {}
    rows = []
    base_ns = None
    for n in DEVICE_SWEEP:
        r = _run(n)
        results[n] = r
        if base_ns is None:
            base_ns = r.breakdown.total_ns
        speedup = base_ns / r.breakdown.total_ns
        rows.append([
            n, r.breakdown.total_ns / 1e6, r.breakdown.match_ns / 1e6,
            f"{speedup:.2f}x", f"{speedup / n:.2f}",
            r.peer_bytes, r.breakdown.comm_ns / 1e3,
            f"{r.imbalance:.2f}" if r.imbalance is not None else "-",
        ])
    print_table(
        f"device scaling ({DATASET}, {QUERY}, |ΔE|={BATCH}, hash owners)",
        ["devices", "total ms", "match ms", "speedup", "efficiency",
         "peer B", "comm us", "imbalance"],
        rows,
    )
    return results


def test_scaling_devices(benchmark, record_table):
    with record_table("scaling_devices"):
        results = run_once(benchmark, scale_devices)

    # sharding never changes the answer
    assert len({r.delta_total for r in results.values()}) == 1
    base = results[1].breakdown.total_ns
    speedups = {n: base / results[n].breakdown.total_ns for n in DEVICE_SWEEP}
    # monotone: each doubling of the fleet helps ...
    for a, b in zip(DEVICE_SWEEP, DEVICE_SWEEP[1:]):
        assert speedups[b] > speedups[a], speedups
    # ... but sub-linearly (shared host phases + peer stalls + all-reduce)
    for n in DEVICE_SWEEP[1:]:
        assert speedups[n] < n, speedups
    # cross-device traffic exists iff the fleet is sharded
    assert results[1].peer_bytes == 0
    for n in DEVICE_SWEEP[1:]:
        assert results[n].peer_bytes > 0
        assert results[n].breakdown.comm_ns > 0
    # every sharded run carries a per-batch load-balance report
    assert all(len(results[n].load_balance) == NUM_BATCHES
               for n in DEVICE_SWEEP[1:])
