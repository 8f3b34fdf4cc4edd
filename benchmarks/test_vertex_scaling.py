"""Per-batch cost against the vertex count: the same stream on a graph and on
the graph padded with isolated vertices.

Three of the repo benchmark's workloads (``benchmarks/e2e``'s own set-up,
read-only, full streams) — ``fr_q1_mixed``, ``ca_q3_narrow`` and
``az_rulebook24`` — each on its graph as generated (x1) and with 3 n / 15 n
isolated vertices appended (x4 / x16).  Padding moves no list a batch reads,
so ΔM and every simulated stage but the update (priced from the average
degree) stay put; what moves is whatever a batch does per vertex of the
graph.  Per row:

* ``wall ms`` — per-batch wall of ``process_batch`` after ``WARM`` warm-up
  batches, as the median over ``PASSES`` passes (each a fresh engine; the
  per-pass values are kept in the ``passes`` column; a pass runs every
  padding in turn, so the machine's drift lands on all of them alike);
* ``peak MB`` — the largest tracemalloc peak of one ``process_batch`` over
  the measured batches of one traced pass;
* ``x1 wall`` — the row's wall over the same workload's x1 row.

Nothing is gated (``tests/test_batch_cost.py`` gates the peak); the file
uses only names the parent commit has, so the same edition runs on both
sides of a before/after (``benchmarks/results/vertex_scaling.txt``).

    PYTHONPATH=src python -m pytest benchmarks/test_vertex_scaling.py -q -s
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads as W  # noqa: E402

from conftest import run_once  # noqa: E402
from repro.graphs.static_graph import StaticGraph  # noqa: E402

WORKLOADS = ("fr_q1_mixed", "ca_q3_narrow", "az_rulebook24")
FACTORS = (1, 4, 16)
WARM = 3
PASSES = 5


def padded(graph: StaticGraph, factor: int) -> StaticGraph:
    """``graph`` plus ``(factor - 1) * n`` isolated vertices of label 0."""
    extra = (factor - 1) * graph.num_vertices
    return StaticGraph(
        np.concatenate([graph.indptr, np.full(extra, graph.indptr[-1])]),
        graph.indices,
        np.concatenate([graph.labels, np.zeros(extra, dtype=graph.labels.dtype)]),
    )


def one_pass(w, inputs, traced: bool) -> tuple[float, float, list]:
    """``(per-batch wall s, max per-batch traced peak bytes, outcomes)`` of
    one fresh engine over the stream, past the warm-up batches."""
    engine = W.make_engine(w, inputs, 0)
    walls, peaks, outcomes = [], [], []
    for i, batch in enumerate(inputs.batches):
        gc.collect()
        if traced and i >= WARM:
            tracemalloc.start()
        t0 = time.perf_counter()
        result = engine.process_batch(batch)
        wall = time.perf_counter() - t0
        if traced and i >= WARM:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        if i >= WARM:
            walls.append(wall)
            outcomes.append((W.delta_of(w, result), replace(result.breakdown, update_ns=0.0)))
    return sum(walls) / len(walls), max(peaks, default=0), outcomes


def test_vertex_scaling(benchmark, record_table):
    def run():
        rows = []
        for name in WORKLOADS:
            w = W.WORKLOADS[name]
            inputs, _ = W.setup(w, 0)
            scaled = [W.Inputs(padded(inputs.graph, f), inputs.batches, inputs.query)
                      for f in FACTORS]
            walls = [[one_pass(w, s, False)[0] for s in scaled] for _ in range(PASSES)]
            for at, (factor, s) in enumerate(zip(FACTORS, scaled)):
                _, peak, outcomes = one_pass(w, s, True)
                rows.append((name, factor, s.graph.num_vertices, [p[at] for p in walls],
                             peak, outcomes))
        return rows

    rows = run_once(benchmark, run)
    with record_table("vertex_scaling"):
        print(f"per-batch cost against |V|: full streams, {WARM} warm-up batches, "
              f"median of {PASSES} passes")
        print(f"{'workload':<15} {'pad':>4} {'vertices':>9} {'wall ms':>8} {'x1 wall':>8} "
              f"{'peak MB':>8}   passes (ms)")
        base = {}
        for name, factor, n, walls, peak, _ in rows:
            wall = statistics.median(walls)
            base.setdefault(name, wall)
            raw = " ".join(f"{1e3 * s:.2f}" for s in walls)
            print(f"{name:<15} {f'x{factor}':>4} {n:>9} {1e3 * wall:>8.2f} "
                  f"{wall / base[name]:>7.2f}x {peak / 1e6:>8.2f}   {raw}")
    for name in WORKLOADS:  # padding moves no result
        outcomes = [row[5] for row in rows if row[0] == name]
        assert all(o == outcomes[0] for o in outcomes)
