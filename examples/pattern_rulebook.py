#!/usr/bin/env python3
"""Monitoring a whole rule book of patterns with one shared pipeline.

Production CSM systems rarely watch a single pattern: a fraud team runs a
*rule book*.  Running one engine per rule repeats the per-batch graph
update, frequency estimation, cache packing, DMA, and reorganization for
every rule.  A :class:`repro.Rulebook` on the one engine shares all of
that — one pooled random-walk estimate covers the union workload (the sum
of unbiased per-rule estimates is unbiased for the union), one DCSR cache
serves every rule's kernel.

This example monitors the full Q1-Q6 catalog on the LiveJournal analog and
compares wall-of-simulated-time against six independent engines.
"""

from repro import GCSMEngine, QUERIES, QUERY_ORDER, Rulebook
from repro.bench.harness import build_workload
from repro.utils import format_time_ns


def _shared_phases(bd) -> float:
    """Everything except the matching kernel: paid once per batch."""
    return bd.update_ns + bd.estimate_ns + bd.pack_ns + bd.reorg_ns


def main() -> None:
    # small batches = frequent pipeline turns, where the fixed per-batch
    # phases (update / estimate / pack / reorganize) matter most
    g0, batches = build_workload("LJ", batch_size=64, num_batches=6, seed=0)
    rules = [QUERIES[name] for name in QUERY_ORDER]
    print(f"rule book: {len(rules)} patterns ({', '.join(QUERY_ORDER)}) on {g0}\n")

    # --- shared pipeline ------------------------------------------------
    shared = GCSMEngine(g0, Rulebook(rules), seed=5)
    shared_ns = 0.0
    shared_phase_ns = 0.0
    print("multi-query engine (shared update/FE/cache/reorg):")
    for k, batch in enumerate(batches):
        r = shared.process_batch(batch)
        shared_ns += r.breakdown.total_ns
        shared_phase_ns += _shared_phases(r.breakdown)
        deltas = "  ".join(f"{n}:{d:+d}" for n, d in r.delta_counts.items())
        print(f"  batch {k}: {format_time_ns(r.breakdown.total_ns):>9}  {deltas}")

    # --- one engine per rule ---------------------------------------------
    separate_ns = 0.0
    separate_phase_ns = 0.0
    engines = {q.name: GCSMEngine(g0, q, seed=5) for q in rules}
    per_rule_deltas = {name: 0 for name in QUERY_ORDER}
    for batch in batches:
        for name, engine in engines.items():
            result = engine.process_batch(batch)
            separate_ns += result.breakdown.total_ns
            separate_phase_ns += _shared_phases(result.breakdown)
            per_rule_deltas[name] += result.delta_count

    # the shared pipeline computes exactly the same answers
    shared_totals = {name: 0 for name in QUERY_ORDER}
    check = GCSMEngine(g0, Rulebook(rules), seed=5)
    for batch in batches:
        r = check.process_batch(batch)
        for name, d in r.delta_counts.items():
            shared_totals[name] += d
    assert shared_totals == per_rule_deltas

    print(f"\nsimulated time, {len(batches)} batches x {len(rules)} rules:")
    print(f"  separate engines : {format_time_ns(separate_ns)} total, "
          f"{format_time_ns(separate_phase_ns)} in non-matching phases")
    print(f"  shared pipeline  : {format_time_ns(shared_ns)} total "
          f"({separate_ns / shared_ns:.2f}x), "
          f"{format_time_ns(shared_phase_ns)} in non-matching phases "
          f"({separate_phase_ns / shared_phase_ns:.2f}x saved)")
    print("  (identical ΔM per rule — verified)")


if __name__ == "__main__":
    main()
