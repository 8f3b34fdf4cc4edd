#!/usr/bin/env python3
"""How close is GCSM's online cache to the offline optimum?

The random-walk policy predicts access frequencies *before* matching; the
best any same-size cache could do is known only *after* matching.  This
example captures the exact access trace of one batch with
:class:`repro.testing.trace.TracingView`, then replays the identical trace under:

* the empty cache (= the ZC baseline),
* degree-ranked caches (the Naive policy),
* GCSM's actual online selection, and
* the **offline-optimal** cache of the same size (the trace's own
  most-accessed vertices),

pricing each with the device cost model.  The gap between GCSM's selection
and the oracle is the headroom left for any smarter online policy — the
kind of analysis Sec. IV's estimator guarantees are about.
"""

import numpy as np

from repro.bench.harness import build_workload
from repro.core.engine import GCSMEngine
from repro.core.matching import match_batch
from repro.gpu import (
    AccessCounters,
    Channel,
    ZeroCopyView,
    default_device,
    simulated_time_ns,
)
from repro.graphs import DynamicGraph
from repro.query import compile_delta_plans, query_by_name
from repro.testing.trace import TracingView, replay_cached
from repro.utils import format_bytes, format_time_ns


def main() -> None:
    device = default_device()
    g0, batches = build_workload("FR", batch_size=256, seed=0)
    batch = batches[0]
    query = query_by_name("Q2")
    print(f"workload: {g0}, query {query.name}, |ΔE|={len(batch)}\n")

    # 1. GCSM's actual run (online policy)
    engine = GCSMEngine(g0, query, seed=1)
    gcsm = engine.process_batch(batch)
    online_set = set(gcsm.cached_vertices.tolist())
    k = len(online_set)

    # 2. capture the exact access trace of the same batch
    dg = DynamicGraph(g0)
    dg.apply_batch(batch)
    view = TracingView(ZeroCopyView(dg, device, AccessCounters()))
    match_batch(compile_delta_plans(query), batch, view)
    trace = view.trace()
    dg.reorganize()
    print(f"trace: {len(trace):,} accesses to {trace.distinct_vertices().size:,} "
          f"distinct vertices, {format_bytes(trace.total_bytes)} of list data")
    print(f"GCSM cached {k} vertices ({format_bytes(gcsm.cache_bytes)})\n")

    # 3. replay the trace under competing cache selections of the same size
    degrees = dg.degrees_new()
    contenders = {
        "no cache (ZC)": set(),
        f"degree top-{k} (Naive)": set(np.argsort(-degrees)[:k].tolist()),
        f"GCSM online top-{k}": online_set,
        f"offline oracle top-{k}": set(trace.top_vertices(k).tolist()),
    }
    print(f"{'cache selection':>24} {'PCIe traffic':>14} {'kernel time':>12} {'hit rate':>9}")
    oracle_ns = online_ns = None
    for label, cached in contenders.items():
        counters = replay_cached(trace, device, cached)
        t = simulated_time_ns(counters, device)
        traffic = counters.bytes_by_channel[Channel.ZERO_COPY]
        hits = sum(1 for v in trace.vertices.tolist() if v in cached)
        print(f"{label:>24} {format_bytes(traffic):>14} "
              f"{format_time_ns(t):>12} {hits / len(trace):>9.2f}")
        if "oracle" in label:
            oracle_ns = t
        if "online" in label:
            online_ns = t

    assert oracle_ns is not None and online_ns is not None
    print(f"\nGCSM's online selection is within {online_ns / oracle_ns:.2f}x of the "
          f"offline-optimal cache of the same size.")


if __name__ == "__main__":
    main()
