"""Frontier vs recursive executor: real wall-clock comparison.

Times both executors on the same workloads — incremental ``match_batch`` at
several batch sizes, a full-snapshot ``match_static`` pass and the match stage
of a 24-pattern rulebook (the shared trie on the one driver against the
per-query loop on the recursive oracle) — and prints a speedup table (teed
to ``benchmarks/results/kernel_wallclock.txt``).  Both executors produce
bit-identical counters (enforced by ``tests/test_frontier_parity.py``); the
only difference is Python-side wall-clock, which is exactly what this file
measures.

The frontier executor's advantage grows with frontier width (roots per
plan): its per-level NumPy costs are fixed while the recursive executor pays
per tree node.  At the paper's operating point (8192-edge batches) the
representative regime is the larger batch sizes below.

The CI smoke asserts the frontier executor is never slower; the ≥3× target
applies to the wide-frontier configurations (batch ≥ 512 and static).
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path

import numpy as np

from conftest import run_once
from repro.core.engine import GCSMEngine
from repro.core.matching import match_batch, match_static
from repro.core.multiquery import Rulebook
from repro.graphs import DynamicGraph, datasets
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu import AccessCounters, ZeroCopyView, default_device
from repro.query import (
    compile_delta_plans,
    compile_static_plan,
    query_by_name,
)
from repro.query.generator import rulebook_suite
from repro.testing import (
    match_batch_recursive,
    match_static_recursive,
    use_reference_kernels,
)
from repro.utils import geometric_mean

#: the production kernel vs its parity oracle (``repro.testing``)
MATCH_BATCH = {"frontier": match_batch, "recursive": match_batch_recursive}
MATCH_STATIC = {"frontier": match_static, "recursive": match_static_recursive}

GRAPH_N = 8_000
BATCH_SIZES = (128, 512, 1024)
REPEATS = 3


def _time_batches(executor: str, g0, batches, plans) -> float:
    """Total executor seconds over a stream (update/reorg excluded)."""
    device = default_device()
    graph = DynamicGraph(g0)
    total = 0.0
    for batch in batches:
        graph.apply_batch(batch)
        view = ZeroCopyView(graph, device, AccessCounters())
        start = time.perf_counter()
        MATCH_BATCH[executor](plans, batch, view)
        total += time.perf_counter() - start
        graph.reorganize()
    return total


def _time_static(executor: str, graph_static, plan) -> float:
    device = default_device()
    graph = DynamicGraph(graph_static)
    view = ZeroCopyView(graph, device, AccessCounters())
    start = time.perf_counter()
    MATCH_STATIC[executor](plan, view)
    return time.perf_counter() - start


def _time_rulebook(executor: str, g0, batches, queries) -> float:
    """Match-stage seconds of a rulebook engine over a stream: the
    placement's ``match`` is timed inside ``process_batch``, whose other
    stages (the shared trie's expansion among them) run untimed around it."""
    if executor == "frontier":
        engine = GCSMEngine(g0, Rulebook(queries), seed=0)
    else:
        engine = use_reference_kernels(
            GCSMEngine(g0, Rulebook(queries, shared=False), seed=0), estimator=False
        )
    total = 0.0
    match = engine.placement.match

    def timed(*args):
        nonlocal total
        start = time.perf_counter()
        outcome = match(*args)
        total += time.perf_counter() - start
        return outcome

    engine.placement.match = timed
    for batch in batches:
        engine.process_batch(batch)
    return total


def _provenance() -> str:
    """Which tree, streams and NumPy produced the table."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=Path(__file__).parent, capture_output=True, text=True
        ).stdout.strip()

    sha = git("rev-parse", "--short", "HEAD") or "unknown"
    dirty = "+uncommitted" if git("status", "--porcelain", "--untracked-files=no") else ""
    return f"provenance: sha={sha}{dirty} graph/stream seed=0 (AZ stream seed=1) numpy={np.__version__}"


def _measure(fn, *args) -> float:
    """Best-of-N wall-clock (minimum filters scheduler noise)."""
    return min(fn(*args) for _ in range(REPEATS))


def test_kernel_wallclock(benchmark, record_table):
    graph = powerlaw_graph(GRAPH_N, 10.0, max_degree=120, num_labels=4, seed=0)
    plans = compile_delta_plans(query_by_name("Q1"))
    static_plan = compile_static_plan(query_by_name("Q1"))

    def run():
        rows = []
        for batch_size in BATCH_SIZES:
            g0, batches = derive_stream(
                graph, num_updates=2048, batch_size=batch_size, seed=0
            )
            rec = _measure(_time_batches, "recursive", g0, batches, plans)
            fro = _measure(_time_batches, "frontier", g0, batches, plans)
            rows.append((f"match_batch/bs={batch_size}", rec, fro))
        rec = _measure(_time_static, "recursive", graph, static_plan)
        fro = _measure(_time_static, "frontier", graph, static_plan)
        rows.append(("match_static", rec, fro))
        # the repo benchmark's az_rulebook24 shape: AZ analog, 24 patterns
        g0, batches = derive_stream(
            datasets.DATASETS["AZ"].build(0), num_updates=2400, batch_size=24, seed=1
        )
        queries = rulebook_suite(24, num_labels=3, seed=0)
        rec = _measure(_time_rulebook, "recursive", g0, batches, queries)
        fro = _measure(_time_rulebook, "frontier", g0, batches, queries)
        rows.append(("rulebook24/match", rec, fro))
        return rows

    rows = run_once(benchmark, run)

    speedups = [rec / fro for _, rec, fro in rows]
    wide = [rec / fro for name, rec, fro in rows
            if name == "match_static" or name.endswith(("512", "1024"))]
    with record_table("kernel_wallclock"):
        print(f"kernel wall-clock: frontier vs recursive executor "
              f"(Q1, powerlaw n={GRAPH_N}, best of {REPEATS})")
        print(_provenance())
        print(f"{'workload':<22} {'recursive s':>12} {'frontier s':>12} "
              f"{'speedup':>8}")
        for (name, rec, fro), s in zip(rows, speedups):
            print(f"{name:<22} {rec:>12.3f} {fro:>12.3f} {s:>7.2f}x")
        print(f"{'geomean':<22} {'':>12} {'':>12} "
              f"{geometric_mean(speedups):>7.2f}x")
        print(f"{'geomean (wide)':<22} {'':>12} {'':>12} "
              f"{geometric_mean(wide):>7.2f}x")

    # CI smoke: the default executor must never lose to the reference,
    # and must deliver the headline >=3x in the wide-frontier regime.
    assert all(s > 1.0 for s in speedups), speedups
    assert geometric_mean(wide) >= 3.0, wide
