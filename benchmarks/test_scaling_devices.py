"""Multi-GPU scaling study: device sweep + partitioner ablation.

Extension beyond the paper (which evaluates a single RTX3090): shard the
GCSM pipeline across a simulated NVLink fleet and measure where the speedup
goes.  Expected shape:

* end-to-end speedup is **monotone but sub-linear** in the device count —
  the host-side phases (update, estimation, reorganize) are shared serial
  work (Amdahl), and the kernel phase pays peer-interconnect stalls for
  every cross-shard read plus a ΔM all-reduce per batch;
* the **frequency-aware partitioner** strictly reduces PEER traffic vs
  hash partitioning by co-locating hot lists with their neighborhoods —
  at the price of a host-side clustering pass and a looser load balance;
* the **min-cut partitioner** (reader-graph Fennel streaming + bounded
  refinement) cuts PEER bytes by >= 30 % below even ``freq`` at 4 and 8
  devices while holding the owner-map degree-mass imbalance under 1.15;
* **online repartitioning** started from a deliberately bad sticky map
  recovers the heat-weighted cut-rate, paying for the recovery in
  explicit migration traffic (``repartition_ns``), with ΔM untouched.

Everything asserted here is persisted to ``results/BENCH_partition.json``
for the CI ``partition-smoke`` job.
"""

import json

import numpy as np
from conftest import RESULTS_DIR, run_once

from repro.bench.harness import build_workload, print_table, run_stream
from repro.core.baselines import make_system
from repro.gpu.counters import Channel
from repro.query import query_by_name

DATASET = "SF3K"
QUERY = "Q1"
BATCH = 256
NUM_BATCHES = 2
DEVICE_SWEEP = (1, 2, 4, 8)


def _run(devices, partitioner="hash"):
    return run_stream(
        "GCSM", DATASET, query_by_name(QUERY),
        batch_size=BATCH, num_batches=NUM_BATCHES, seed=0,
        devices=devices, partitioner=partitioner,
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
        f"device scaling ({DATASET}, {QUERY}, |ΔE|={BATCH}, hash partitioner)",
        ["devices", "total ms", "match ms", "speedup", "efficiency",
         "peer B", "comm us", "imbalance"],
        rows,
    )
    return results


def ablate_partitioners(devices=4):
    results = {}
    rows = []
    for part in ("hash", "range", "freq", "mincut"):
        r = _run(devices, part)
        results[part] = r
        rows.append([
            part, r.breakdown.total_ns / 1e6, r.peer_bytes,
            f"{r.imbalance:.2f}" if r.imbalance is not None else "-",
        ])
    print_table(
        f"partitioner ablation ({DATASET}, {QUERY}, {devices} devices)",
        ["partitioner", "total ms", "peer B", "imbalance"],
        rows,
    )
    return results


def _partition_leg(devices, part):
    """One direct engine run capturing the owner map the fleet actually used.

    ``run_stream`` reports peer bytes and match-time imbalance but discards
    the placement; the balance the partitioners *control* is the owner-map
    degree-mass spread (match-time imbalance is dominated by which shard
    draws the expensive roots — even ``hash`` shows 1.2-1.8 there), so we
    recompute it from the captured map.
    """
    g0, batches = build_workload(
        DATASET, batch_size=BATCH, num_batches=NUM_BATCHES, seed=0
    )
    eng = make_system(
        "GCSM", g0, query_by_name(QUERY), devices=devices,
        partitioner=part, seed=0,
    )
    captured = {}
    inner = eng.fleet.partitioner.assign

    def capture(*args, **kwargs):
        captured["owner"] = inner(*args, **kwargs)
        return captured["owner"]

    eng.fleet.partitioner.assign = capture
    peer = delta = 0
    match_imb = []
    for batch in batches:
        r = eng.process_batch(batch)
        delta += r.delta_count
        peer += r.match_counters.bytes_by_channel[Channel.PEER]
        match_imb.append(r.load_balance.imbalance)
    owner = captured["owner"]
    degrees = eng.graph.degrees_new().astype(np.int64)
    load = np.bincount(owner, weights=degrees, minlength=devices)
    return {
        "devices": devices,
        "partitioner": part,
        "peer_bytes": int(peer),
        "delta_total": int(delta),
        "degmass_imbalance": float(load.max() / load.mean()),
        "match_imbalance": float(np.mean(match_imb)),
    }


def partition_quality(device_points=(4, 8)):
    """PEER bytes + balance of hash/freq/mincut at each fleet size."""
    legs = {}
    rows = []
    for devices in device_points:
        for part in ("hash", "freq", "mincut"):
            legs[(devices, part)] = _partition_leg(devices, part)
        freq_peer = legs[(devices, "freq")]["peer_bytes"]
        for part in ("hash", "freq", "mincut"):
            leg = legs[(devices, part)]
            rows.append([
                devices, part, leg["peer_bytes"],
                f"{leg['peer_bytes'] / freq_peer:.3f}",
                f"{leg['degmass_imbalance']:.3f}",
                f"{leg['match_imbalance']:.2f}",
            ])
    print_table(
        f"partition quality ({DATASET}, {QUERY}, |ΔE|={BATCH}x{NUM_BATCHES})",
        ["devices", "partitioner", "peer B", "vs freq",
         "degmass imbalance", "match imbalance"],
        rows,
    )
    return legs


def drift_recovery(devices=4):
    """Sticky ownership from a bad (hash) seed map, repartitioning on.

    The hash map's heat-weighted cut-rate trips the drift detector; the
    replans must lower the cut, charge their migration to
    ``repartition_ns``, and leave ΔM identical to the repartition-off run.
    """
    cfg = {"every": 2, "threshold": 0.05, "horizon": 200.0}
    on = run_stream(
        "GCSM", DATASET, query_by_name(QUERY),
        batch_size=BATCH, num_batches=4, seed=0,
        devices=devices, partitioner="hash", repartition=cfg,
    )
    off = run_stream(
        "GCSM", DATASET, query_by_name(QUERY),
        batch_size=BATCH, num_batches=4, seed=0,
        devices=devices, partitioner="hash",
    )
    rep = on.repartition
    last = rep["last"] or {}
    print_table(
        f"online repartitioning ({DATASET}, {QUERY}, {devices} devices, hash seed map)",
        ["replans", "moved", "migration B", "repart us",
         "cut before", "cut after", "ΔM on", "ΔM off"],
        [[
            f"{rep['triggered']}/{rep['evaluated']}", rep["moved"],
            rep["migration_bytes"], rep["repartition_ns"] / 1e3,
            f"{last.get('cut_rate_before', 0.0):.3f}",
            f"{last.get('cut_rate_after', 0.0):.3f}",
            on.delta_total, off.delta_total,
        ]],
    )
    return {
        "devices": devices,
        "config": rep["config"],
        "evaluated": rep["evaluated"],
        "triggered": rep["triggered"],
        "moved": rep["moved"],
        "migration_bytes": rep["migration_bytes"],
        "repartition_ns": rep["repartition_ns"],
        "last_report": rep["last"],
        "delta_on": on.delta_total,
        "delta_off": off.delta_total,
    }


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


def test_partitioner_ablation(benchmark, record_table):
    with record_table("scaling_partitioners"):
        results = run_once(benchmark, ablate_partitioners)

    # partitioning never changes the answer
    assert len({r.delta_total for r in results.values()}) == 1
    # the frequency-aware partitioner strictly reduces peer traffic vs hash
    assert results["freq"].peer_bytes < results["hash"].peer_bytes
    # degree-mass range partitioning also beats oblivious hashing here
    assert results["range"].peer_bytes < results["hash"].peer_bytes
    # the reader-graph min-cut placement beats all of them
    assert results["mincut"].peer_bytes < results["freq"].peer_bytes
    # the resolved knobs travel with the result for the JSON records
    assert results["mincut"].partitioner_opts is not None
    assert "balance_slack" in results["mincut"].partitioner_opts


def test_partition_quality(benchmark, record_table):
    with record_table("partition_quality"):
        legs = run_once(benchmark, partition_quality)
        drift = drift_recovery()

    # placement never changes the answer
    assert len({leg["delta_total"] for leg in legs.values()}) == 1

    for devices in (4, 8):
        freq = legs[(devices, "freq")]
        mincut = legs[(devices, "mincut")]
        ratio = mincut["peer_bytes"] / freq["peer_bytes"]
        # headline claim: >= 30 % PEER bytes below the freq baseline
        assert ratio <= 0.70, (
            f"mincut/freq peer ratio {ratio:.3f} at {devices} devices"
        )
        # ... without giving the balance away: the owner-map degree-mass
        # spread (what balance_slack constrains) stays under 1.15
        assert mincut["degmass_imbalance"] <= 1.15, mincut

    # drift recovery: the bad sticky map must trip the detector, the
    # replan must lower the heat-weighted cut, and the migration must be
    # paid for in the dedicated lane -- all without touching ΔM
    assert drift["triggered"] >= 1
    assert drift["moved"] > 0 and drift["migration_bytes"] > 0
    assert drift["repartition_ns"] > 0.0
    last = drift["last_report"]
    assert last["cut_rate_after"] < last["cut_rate_before"]
    assert drift["delta_on"] == drift["delta_off"]

    artifact = {
        "quality": [legs[key] for key in sorted(legs)],
        "drift_recovery": drift,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_partition.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    assert json.loads(path.read_text())["drift_recovery"]["triggered"] >= 1
