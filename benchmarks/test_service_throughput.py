"""Service-layer benchmark: pipeline overlap wins and bounded-p99 overload.

Two claims, both asserted and persisted to ``results/BENCH_service.json``:

1. **Pipeline overlap**: on a matching-dominated workload (FR, Q1, large
   batches) the pipelined engine sustains >= 1.3x the serial engine's
   edge-update throughput — host prep (update/FE/pack) and reorganize hide
   under the kernel, so the device lane, not the stage sum, sets the pace.
   Results stay bit-identical (same ΔM, same counters); only the clock moves.
2. **Admission control**: under a 3-tenant overload burst, shed-oldest with
   a tight queue bounds p99 latency (each served batch waited behind at most
   ``capacity`` others), where an over-provisioned queue lets p99 grow with
   the backlog.  The price is an explicit, measured shed rate.
"""

import json
import time

from conftest import RESULTS_DIR, run_once

from repro.bench.harness import print_table, run_service, run_stream
from repro.query import query_by_name

DATASET = "FR"
QUERY = "Q1"
BATCH = 256
NUM_BATCHES = 3

OVERLOAD = dict(
    num_batches=6, batch_size=8, rate_per_sec=1e9,
    num_devices=1, admission="shed-oldest", seed=3,
    workload_kwargs={"graph_size": 24, "avg_degree": 5.0},
)


def pipeline_vs_serial():
    query = query_by_name(QUERY)
    wall0 = time.perf_counter()
    serial = run_stream("GCSM", DATASET, query,
                        batch_size=BATCH, num_batches=NUM_BATCHES, seed=0)
    wall_serial = time.perf_counter() - wall0
    wall0 = time.perf_counter()
    piped = run_stream("Pipelined", DATASET, query,
                       batch_size=BATCH, num_batches=NUM_BATCHES, seed=0)
    wall_piped = time.perf_counter() - wall0

    serial_ns = serial.breakdown.total_ns       # mean per batch
    piped_ns = piped.breakdown.critical_path_ns  # mean makespan contribution
    speedup = serial_ns / piped_ns
    rows = [
        ["serial GCSM", f"{serial_ns / 1e6:.3f}", "-",
         f"{BATCH / (serial_ns / 1e9):,.0f}", f"{wall_serial:.2f}"],
        ["Pipelined", f"{piped.breakdown.total_ns / 1e6:.3f}",
         f"{piped_ns / 1e6:.3f}",
         f"{BATCH / (piped_ns / 1e9):,.0f}", f"{wall_piped:.2f}"],
    ]
    print_table(
        f"pipelined vs serial ({DATASET}, {QUERY}, |ΔE|={BATCH}, "
        f"{NUM_BATCHES} batches; speedup {speedup:.2f}x)",
        ["engine", "stage sum ms/batch", "schedule ms/batch",
         "sustained edges/s", "wall s"],
        rows,
    )
    return {
        "serial": serial, "piped": piped, "speedup": speedup,
        "wall_serial_s": wall_serial, "wall_piped_s": wall_piped,
    }


def overload_p99():
    bounded = run_service(3, queue_capacity=2, **OVERLOAD)
    relaxed = run_service(3, queue_capacity=64, **OVERLOAD)
    rows = []
    for label, rep in (("capacity=2 (shed)", bounded), ("capacity=64", relaxed)):
        p99 = max(t["latency"]["p99_ns"] for t in rep.tenants)
        rows.append([
            label, rep.completed, f"{rep.max_shed_rate:.2f}",
            f"{p99 / 1e6:.3f}", f"{rep.sustained_edges_per_sec:,.0f}",
        ])
    print_table(
        "overload: admission control bounds tail latency (3 tenants, burst)",
        ["config", "done", "shed rate", "worst p99 ms", "edges/s"],
        rows,
    )
    return bounded, relaxed


def test_service_throughput(benchmark, record_table):
    with record_table("service_throughput"):
        out = run_once(benchmark, pipeline_vs_serial)
        bounded, relaxed = overload_p99()

    serial, piped = out["serial"], out["piped"]
    # bit-parity: the pipeline changed the clock, not the answers
    assert piped.delta_total == serial.delta_total
    assert piped.breakdown.total_ns == serial.breakdown.total_ns
    assert piped.counters.summary() == serial.counters.summary()

    # the headline claim: >= 1.3x sustained throughput from overlap alone
    assert out["speedup"] >= 1.3, f"pipeline speedup only {out['speedup']:.2f}x"
    serial_rate = BATCH / (serial.breakdown.total_ns / 1e9)
    piped_rate = BATCH / (piped.breakdown.critical_path_ns / 1e9)
    assert piped_rate >= 1.3 * serial_rate

    # overload: tight queue + shedding bounds p99 below the relaxed queue's
    p99_bounded = max(t["latency"]["p99_ns"] for t in bounded.tenants)
    p99_relaxed = max(t["latency"]["p99_ns"] for t in relaxed.tenants)
    assert bounded.max_shed_rate > 0.0
    assert relaxed.max_shed_rate == 0.0
    assert p99_bounded < p99_relaxed

    artifact = {
        "stream": {
            "dataset": DATASET, "query": QUERY, "batch_size": BATCH,
            "num_batches": NUM_BATCHES,
            "serial_ns_per_batch": serial.breakdown.total_ns,
            "pipelined_ns_per_batch": piped.breakdown.critical_path_ns,
            "speedup": out["speedup"],
            "serial_edges_per_sec": serial_rate,
            "pipelined_edges_per_sec": piped_rate,
            "delta_total": piped.delta_total,
            "wall_clock_s": {
                "serial": out["wall_serial_s"], "pipelined": out["wall_piped_s"],
            },
            "counters": piped.counters.summary(),
        },
        "service_overload": {
            "bounded": bounded.to_dict(),
            "relaxed": relaxed.to_dict(),
            "p99_bounded_ns": p99_bounded,
            "p99_relaxed_ns": p99_relaxed,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_service.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    assert json.loads(path.read_text())["stream"]["speedup"] >= 1.3
