#!/usr/bin/env python3
"""Quickstart: continuous subgraph matching with GCSM in ~45 lines.

Builds a small labeled power-law graph, derives a dynamic edge stream from
it (the paper's Sec. VI-A methodology), and monitors a labeled triangle
pattern continuously with the GCSM engine — printing the bootstrap count of
the initial snapshot, then, per batch, the signed incremental match count
ΔM, the simulated per-phase timings, and the GPU cache statistics.

Run:  python examples/quickstart.py
"""

from repro.core.engine import GCSMEngine
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.query import QueryGraph
from repro.utils import format_bytes, format_time_ns


def main() -> None:
    # 1. A data graph: 5k vertices, power-law degrees, 4 vertex labels.
    graph = powerlaw_graph(5_000, 10.0, max_degree=150, num_labels=4, seed=7)
    print(f"data graph: {graph}")

    # 2. A query: triangle with labels (0, 1, 1).
    triangle = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, 1],
                          name="labeled-triangle")
    print(f"query:      {triangle}")

    # 3. A dynamic stream: 10% of edges become updates (half insertions,
    #    half deletions), replayed in batches of 128.
    g0, batches = derive_stream(graph, update_fraction=0.10, batch_size=128, seed=7)
    print(f"initial snapshot: {g0}, {len(batches)} update batches\n")

    # 4. Continuous matching with the GCSM engine, bootstrapped by one static
    #    pass over the initial snapshot (paper Fig. 2a).
    engine = GCSMEngine(g0, triangle, seed=7)
    initial, initial_ns = engine.initial_match()
    print(f"bootstrap: {initial} embeddings in G_0 ({format_time_ns(initial_ns)})\n")
    running_total = 0
    for k, batch in enumerate(batches):
        result = engine.process_batch(batch)
        running_total += result.delta_count
        bd = result.breakdown
        print(
            f"batch {k}: ΔM={result.delta_count:+6d}  "
            f"total={format_time_ns(bd.total_ns):>9}  "
            f"(FE {100 * bd.fe_fraction:4.1f}%, DC {100 * bd.dc_fraction:4.1f}%)  "
            f"cache={len(result.cached_vertices):4d} vertices "
            f"/ {format_bytes(result.cache_bytes):>9}  "
            f"hit-rate={result.cache_hits / max(1, result.cache_hits + result.cache_misses):.2f}"
        )

    print(f"\nnet match-count change over the stream: {running_total:+d}")

    # 5. Sanity: replaying the stream from scratch gives the same number
    #    (the brute-force oracle lives with the tests, in repro.testing).
    from repro.testing.reference import count_embeddings

    assert initial == count_embeddings(g0, triangle)
    expected = count_embeddings(engine.snapshot(), triangle) - initial
    assert running_total == expected, (running_total, expected)
    print(f"verified against a from-scratch recount: {expected:+d} ✓")


if __name__ == "__main__":
    main()
