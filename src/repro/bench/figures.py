"""Per-figure/table experiment runners (paper Sec. VI).

Every public function reproduces one table or figure: it runs the relevant
systems on the scaled workloads, prints a paper-style table, and returns the
structured rows so the ``benchmarks/`` targets can assert the expected
shape (who wins, by roughly what factor).  Results are memoized per
parameter set within the process, so e.g. Table II reuses the Fig. 8-10
runs instead of recomputing them.

Scaling: batch sizes are 1/16 of the paper's (4096 -> 256, 8192 -> 512),
matching the ~1e4 size scaling of graphs and device memory; Fig. 12 sweeps
the same 8 points scaled by the same factor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.harness import RunResult, build_workload, print_table, run_stream
from repro.core.baselines import make_system
from repro.core.engine import reorganize_step
from repro.core.rapidflow import IndexMemoryError
from repro.graphs import DynamicGraph, datasets
from repro.gpu.device import default_device
from repro.query import QUERIES, QUERY_ORDER, motifs, query_by_name
from repro.query.pattern import QueryGraph

__all__ = [
    "table1_datasets",
    "fig7_queries",
    "fig8_to_10_exec_time",
    "fig11_roadnet_motifs",
    "fig12_batch_size_sweep",
    "fig13_vsgm_breakdown",
    "fig14_rapidflow",
    "fig15_locality",
    "table2_overhead",
    "table3_reorg_time",
    "um_slowdown",
]

#: paper batch 4096 / 8192 scaled by the dataset scale factor
SCALED_BATCH_4096 = 256
SCALED_BATCH_8192 = 512

_RUN_CACHE: dict[tuple, RunResult] = {}


def _run(system: str, dataset: str, query: str | QueryGraph, *, batch_size: int,
         num_batches: int = 1, seed: int = 0, **kwargs) -> RunResult:
    """Memoized :func:`run_stream`; ``query`` is a catalog name or a pattern
    (memoized by its name)."""
    if isinstance(query, str):
        query = query_by_name(query)
    key = (system, dataset, query.name, batch_size, num_batches, seed,
           tuple(sorted(kwargs.items())))
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_stream(
            system, dataset, query,
            batch_size=batch_size, num_batches=num_batches, seed=seed, **kwargs,
        )
    return _RUN_CACHE[key]


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1_datasets(seed: int = 0) -> list[dict[str, object]]:
    """Table I: the seven data graphs (scaled analogs vs paper stats)."""
    rows = datasets.table1_rows(seed)
    print_table(
        "Table I: data graphs (scaled analog | paper)",
        ["graph", "n", "m", "maxdeg", "size(B)", "fits buf",
         "paper n(M)", "paper m(M)", "paper maxdeg", "paper GB"],
        [[r["graph"], r["vertices"], r["edges"], r["max_degree"], r["size_bytes"],
          r["fits_buffer"], r["paper_vertices_M"], r["paper_edges_M"],
          r["paper_max_degree"], r["paper_size_gb"]] for r in rows],
    )
    return rows


# ----------------------------------------------------------------------
# Fig. 7
# ----------------------------------------------------------------------
def fig7_queries() -> list[dict[str, object]]:
    """Fig. 7: the query catalog (sizes 5-7, increasing density)."""
    rows = []
    for name in QUERY_ORDER:
        q = QUERIES[name]
        rows.append({
            "query": name, "vertices": q.num_vertices, "edges": q.num_edges,
            "diameter": q.diameter(), "labels": list(q.labels),
        })
    print_table(
        "Fig. 7: query graphs",
        ["query", "n", "m", "diam", "labels"],
        [[r["query"], r["vertices"], r["edges"], r["diameter"], r["labels"]]
         for r in rows],
    )
    return rows


# ----------------------------------------------------------------------
# Fig. 8 / 9 / 10
# ----------------------------------------------------------------------
def fig8_to_10_exec_time(
    dataset: str,
    *,
    batch_size: int | None = None,
    queries: Sequence[str] = tuple(QUERY_ORDER),
    systems: Sequence[str] = ("GCSM", "ZC", "Naive", "CPU"),
    num_batches: int = 1,
    seed: int = 0,
) -> dict[str, dict[str, RunResult]]:
    """Figs. 8-10: per-query execution time of GCSM vs the baselines.

    Returns ``{query: {system: RunResult}}``.  The printed table carries the
    per-bar CPU-access-size labels of the paper's figures.
    """
    if batch_size is None:
        batch_size = SCALED_BATCH_8192 if dataset == "SF10K" else SCALED_BATCH_4096
    out: dict[str, dict[str, RunResult]] = {}
    rows = []
    for qname in queries:
        out[qname] = {}
        for system in systems:
            r = _run(system, dataset, qname, batch_size=batch_size,
                     num_batches=num_batches, seed=seed)
            out[qname][system] = r
        zc = out[qname].get("ZC")
        for system in systems:
            r = out[qname][system]
            speedup = (zc.breakdown.total_ns / r.breakdown.total_ns) if zc else float("nan")
            rows.append([qname, system, r.total_ms, r.match_ms,
                         r.cpu_access_bytes, speedup])
    fig = {"FR": "Fig. 8", "SF3K": "Fig. 9", "SF10K": "Fig. 10"}.get(dataset, "Fig. 8-10")
    print_table(
        f"{fig}: execution time per batch ({dataset}, |ΔE|={batch_size})",
        ["query", "system", "total ms", "match ms", "CPU access B", "vs ZC"],
        rows,
    )
    return out


# ----------------------------------------------------------------------
# Fig. 11
# ----------------------------------------------------------------------
def fig11_roadnet_motifs(
    *,
    graphs: Sequence[str] = ("PA", "CA"),
    sizes: Sequence[int] = (3, 4, 5),
    systems: Sequence[str] = ("GCSM", "ZC", "Naive"),
    batch_size: int = SCALED_BATCH_4096,
    seed: int = 0,
) -> dict[tuple[str, int], dict[str, float]]:
    """Fig. 11: counting all size-3/4/5 motifs on the road networks.

    Per (graph, motif size): total simulated time per batch summed over all
    motifs of that size, per system.  Returns ``{(graph, size): {system: ns}}``.
    """
    out: dict[tuple[str, int], dict[str, float]] = {}
    rows = []
    for dataset in graphs:
        for size in sizes:
            totals = {s: 0.0 for s in systems}
            for motif in motifs(size):
                for system in systems:
                    r = _run(system, dataset, motif, batch_size=batch_size, seed=seed)
                    totals[system] += r.breakdown.total_ns
            out[(dataset, size)] = totals
            zc = totals.get("ZC")
            for system in systems:
                rows.append([dataset, size, system, totals[system] / 1e6,
                             (zc / totals[system]) if zc else float("nan")])
    print_table(
        f"Fig. 11: size-3/4/5 motif counting on road networks (|ΔE|={batch_size})",
        ["graph", "motif size", "system", "total ms", "vs ZC"],
        rows,
    )
    return out


# ----------------------------------------------------------------------
# Fig. 12
# ----------------------------------------------------------------------
def fig12_batch_size_sweep(
    *,
    cases: Sequence[tuple[str, str]] = (("SF3K", "Q6"), ("SF10K", "Q5")),
    batch_sizes: Sequence[int] = (16, 32, 64, 128, 256, 512),
    total_updates: int = 512,
    seed: int = 0,
) -> dict[tuple[str, str, int], dict[str, RunResult]]:
    """Fig. 12: execution time vs batch size (paper: 64..8192, scaled /16).

    The *same* ``total_updates``-edge update set is replayed at every batch
    size (derive_stream's selection depends only on the update count and
    seed), so the sweep isolates batching granularity exactly as the paper
    does; reported times are means per batch.  The paper's headline: time is
    nearly proportional to batch size and GCSM's speedup holds across sizes.
    """
    out: dict[tuple[str, str, int], dict[str, RunResult]] = {}
    rows = []
    for dataset, qname in cases:
        for bs in batch_sizes:
            num_batches = max(1, total_updates // bs)
            res = {
                system: _run(system, dataset, qname, batch_size=bs,
                             num_batches=num_batches, seed=seed)
                for system in ("GCSM", "ZC", "Naive")
            }
            out[(dataset, qname, bs)] = res
            rows.append([
                dataset, qname, bs,
                res["GCSM"].total_ms, res["ZC"].total_ms,
                res["ZC"].breakdown.total_ns / res["GCSM"].breakdown.total_ns,
                res["Naive"].breakdown.total_ns / res["GCSM"].breakdown.total_ns,
            ])
    print_table(
        "Fig. 12: batch-size sweep (mean time per batch over one 512-update stream)",
        ["graph", "query", "|ΔE|", "GCSM ms", "ZC ms", "ZC/GCSM", "Naive/GCSM"],
        rows,
    )
    return out


# ----------------------------------------------------------------------
# Fig. 13
# ----------------------------------------------------------------------
def fig13_vsgm_breakdown(
    *,
    cases: Sequence[tuple[str, str, int]] = (("SF3K", "Q1", 8), ("SF10K", "Q1", 4)),
    seed: int = 0,
) -> dict[str, dict[str, dict[str, float]]]:
    """Fig. 13: DC-vs-Match breakdown of VSGM and GCSM.

    The paper had to shrink VSGM's batches to 128 (SF3K) / 64 (SF10K) to fit
    the k-hop working set in GPU memory; we use the same sizes scaled (/16).
    At our *vertex* scale the k-hop neighborhood saturates to a large graph
    fraction even for tiny batches (44k vertices vs the real graph's 33M),
    so VSGM runs with ``strict_capacity=False`` and the table reports how
    far its working set overflows the buffer — the very pathology that
    limits VSGM.  The headline shape is unaffected: both systems' matching
    kernels cost about the same, while VSGM's data-copy phase dominates.
    Returns ``{dataset: {system: {"dc_ms", "match_ms", "batch",
    "copy_bytes"}}}``.
    """
    out: dict[str, dict[str, dict[str, float]]] = {}
    rows = []
    device = default_device()
    for dataset, qname, bs in cases:
        vsgm = _run("VSGM", dataset, qname, batch_size=bs, seed=seed,
                    strict_capacity=False)
        gcsm = _run("GCSM", dataset, qname, batch_size=bs, seed=seed)
        vsgm_dc = vsgm.breakdown.pack_ns / 1e6
        vsgm_match = vsgm.match_ms
        overflow = vsgm.cache_bytes / device.cache_buffer_bytes
        out[dataset] = {
            "VSGM": {"dc_ms": vsgm_dc, "match_ms": vsgm_match, "batch": bs,
                     "copy_bytes": float(vsgm.cache_bytes),
                     "buffer_overflow_x": overflow},
            "GCSM": {"dc_ms": gcsm.dc_ms, "match_ms": gcsm.match_ms, "batch": bs,
                     "copy_bytes": float(gcsm.cache_bytes)},
        }
        rows.append([dataset, qname, bs, "VSGM", vsgm_dc, vsgm_match,
                     int(vsgm.cache_bytes), f"{overflow:.1f}x"])
        rows.append([dataset, qname, bs, "GCSM", gcsm.dc_ms, gcsm.match_ms,
                     int(gcsm.cache_bytes), "fits"])
    print_table(
        "Fig. 13: VSGM vs GCSM breakdown (paper batches 128/64, scaled /16)",
        ["graph", "query", "|ΔE|", "system", "DC ms", "match ms",
         "copied B", "vs buffer"],
        rows,
    )
    return out


# ----------------------------------------------------------------------
# Fig. 14
# ----------------------------------------------------------------------
def fig14_rapidflow(
    *,
    graphs: Sequence[str] = ("AZ", "LJ"),
    queries: Sequence[str] = tuple(QUERY_ORDER),
    batch_size: int = SCALED_BATCH_4096,
    seed: int = 0,
) -> dict[str, dict[str, dict[str, RunResult]]]:
    """Fig. 14: RapidFlow vs the CPU baseline vs GCSM on the small graphs.

    Also demonstrates the Sec. VI-C crash: constructing RapidFlow on the FR
    analog raises :class:`IndexMemoryError` (reported in the table footer).
    """
    out: dict[str, dict[str, dict[str, RunResult]]] = {}
    rows = []
    for dataset in graphs:
        out[dataset] = {}
        for qname in queries:
            res = {
                system: _run(system, dataset, qname, batch_size=batch_size, seed=seed)
                for system in ("GCSM", "CPU", "RapidFlow")
            }
            out[dataset][qname] = res
            rows.append([
                dataset, qname,
                res["GCSM"].total_ms, res["CPU"].total_ms, res["RapidFlow"].total_ms,
                res["RapidFlow"].breakdown.total_ns / res["GCSM"].breakdown.total_ns,
                res["CPU"].breakdown.total_ns / res["RapidFlow"].breakdown.total_ns,
            ])
    print_table(
        f"Fig. 14: RapidFlow comparison (|ΔE|={batch_size})",
        ["graph", "query", "GCSM ms", "CPU ms", "RF ms", "RF/GCSM", "CPU/RF"],
        rows,
    )
    # the large-graph OOM that keeps RapidFlow out of Figs. 8-10
    g0, _ = build_workload("FR", batch_size=batch_size, seed=seed)
    try:
        make_system("RapidFlow", g0, QUERIES["Q1"])
        oom = False
    except IndexMemoryError as exc:
        oom = True
        print(f"RapidFlow on FR analog: {exc}")
    out["FR_oom"] = oom  # type: ignore[assignment]
    return out


# ----------------------------------------------------------------------
# Fig. 15
# ----------------------------------------------------------------------
def fig15_locality(
    *,
    graphs: Sequence[str] = ("FR", "SF3K", "SF10K"),
    queries: Sequence[str] = ("Q1", "Q2", "Q4"),
    batch_size: int = SCALED_BATCH_4096,
    fractions: Sequence[float] = (0.01, 0.02, 0.03, 0.04, 0.05, 0.10, 0.20),
    seed: int = 0,
) -> dict[str, dict[str, object]]:
    """Fig. 15a: memory-access distribution (share of accesses/bytes served
    by the top-x% most accessed vertices) and Fig. 15b: GPU-cache coverage
    of the top-1..5% exact-frequency vertices."""
    out: dict[str, dict[str, object]] = {}
    cdf_rows = []
    cov_rows = []
    for dataset in graphs:
        counts_cdf = np.zeros(len(fractions))
        bytes_cdf = np.zeros(len(fractions))
        cov1 = []
        cov5 = []
        for qname in queries:
            r = _run("GCSM", dataset, qname, batch_size=batch_size, seed=seed)
            counts_cdf += np.array(r.counters.access_cdf(list(fractions)))
            bytes_cdf += np.array(r.counters.access_cdf(list(fractions), weight="bytes"))
            if r.coverage_top1 is not None:
                cov1.append(r.coverage_top1)
                cov5.append(r.coverage_top5)
        counts_cdf /= len(queries)
        bytes_cdf /= len(queries)
        out[dataset] = {
            "fractions": list(fractions),
            "access_share": counts_cdf.tolist(),
            "byte_share": bytes_cdf.tolist(),
            "coverage_top1": float(np.mean(cov1)) if cov1 else None,
            "coverage_top5": float(np.mean(cov5)) if cov5 else None,
        }
        for f, cs, bs_ in zip(fractions, counts_cdf, bytes_cdf):
            cdf_rows.append([dataset, f"{f:.0%}", cs, bs_])
        cov_rows.append([dataset, out[dataset]["coverage_top1"],
                         out[dataset]["coverage_top5"]])
    print_table(
        "Fig. 15a: memory-access distribution (share to top-x% accessed vertices)",
        ["graph", "top-x%", "access share", "byte share"], cdf_rows,
    )
    print_table(
        "Fig. 15b: cache coverage of most-frequent vertices",
        ["graph", "coverage top-1%", "coverage top-5%"], cov_rows,
    )
    return out


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
def table2_overhead(
    *,
    graphs: Sequence[str] = ("FR", "SF3K", "SF10K"),
    queries: Sequence[str] = tuple(QUERY_ORDER),
    seed: int = 0,
) -> dict[tuple[str, str], tuple[float, float]]:
    """Table II: FE (frequency estimation) and DC (data copy) overheads as a
    percentage of GCSM's total time per batch."""
    out: dict[tuple[str, str], tuple[float, float]] = {}
    rows = []
    for qname in queries:
        row: list[object] = [qname]
        for dataset in graphs:
            bs = SCALED_BATCH_8192 if dataset == "SF10K" else SCALED_BATCH_4096
            r = _run("GCSM", dataset, qname, batch_size=bs, seed=seed)
            fe = 100.0 * r.breakdown.fe_fraction
            dc = 100.0 * r.breakdown.dc_fraction
            out[(dataset, qname)] = (fe, dc)
            row.extend([fe, dc])
        rows.append(row)
    header = ["query"]
    for dataset in graphs:
        header.extend([f"{dataset} FE%", f"{dataset} DC%"])
    print_table("Table II: FE / DC overhead (% of total)", header, rows)
    return out


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def table3_reorg_time(
    *,
    graphs: Sequence[str] = tuple(datasets.TABLE1_ORDER),
    batch_sizes: Sequence[int] = (SCALED_BATCH_4096, SCALED_BATCH_8192),
    seed: int = 0,
) -> dict[tuple[str, int], float]:
    """Table III: CPU graph-reorganization time per batch (simulated ms).

    Pure dynamic-store exercise (no matching): apply a batch, then the
    engine's step 5 (:func:`~repro.core.engine.reorganize_step`) reorganizes
    and prices the merge work with the CPU model."""
    out: dict[tuple[str, int], float] = {}
    rows = []
    for dataset in graphs:
        row: list[object] = [dataset]
        for bs in batch_sizes:
            g0, batches = build_workload(dataset, batch_size=bs, seed=seed)
            dg = DynamicGraph(g0)
            dg.apply_batch(batches[0])
            ms = reorganize_step(dg, default_device()) / 1e6
            out[(dataset, bs)] = ms
            row.append(ms)
        rows.append(row)
    print_table(
        "Table III: graph reorganization time (ms)",
        ["graph"] + [f"|ΔE|={bs}" for bs in batch_sizes],
        rows,
    )
    return out


# ----------------------------------------------------------------------
# UM slowdown (text claim, Sec. VI-B)
# ----------------------------------------------------------------------
def um_slowdown(
    *,
    cases: Sequence[tuple[str, str]] = (("FR", "Q1"), ("LJ", "Q1")),
    batch_size: int = 64,
    seed: int = 0,
) -> dict[str, float]:
    """Sec. VI-B text: UM is 69-210x slower than zero-copy."""
    out: dict[str, float] = {}
    rows = []
    for dataset, qname in cases:
        um = _run("UM", dataset, qname, batch_size=batch_size, seed=seed)
        zc = _run("ZC", dataset, qname, batch_size=batch_size, seed=seed)
        ratio = um.breakdown.total_ns / zc.breakdown.total_ns
        out[dataset] = ratio
        rows.append([dataset, qname, um.total_ms, zc.total_ms, ratio])
    print_table(
        "UM vs ZC (Sec. VI-B: paper reports 69-210x)",
        ["graph", "query", "UM ms", "ZC ms", "UM/ZC"], rows,
    )
    return out
