"""Shared experiment machinery.

``build_workload`` materializes a Table I analog and its update stream
(cached at module level — the bench suite reuses graphs across queries and
systems, as the paper does).  ``run_stream`` drives one system over one or
more batches and aggregates simulated timings, traffic, and GCSM-specific
artifacts into a :class:`RunResult` — the one record of a run: the figure
runners read it, ``RunResult.to_dict`` is what ``repro run --json`` exports
and the scenario matrix gates, and :func:`summarize` turns a set of them
into the paper's speedup statistics.

Workloads span several *update mixes* (the axis batch-dynamic systems are
regime-sensitive to): the paper's balanced ``mixed`` stream, skewed
``insert-heavy`` / ``delete-heavy`` variants, a ``churn`` stream whose
batches delete the previous batch's inserts, and the fuzzer's
``adversarial`` anomaly stream.  A ``window`` overlays TTL expiry
(:mod:`repro.graphs.window`) on any mix.  Requests larger than the dataset
can serve are *explicitly* truncated: the returned :class:`Workload`
records requested vs delivered sizes and a ``RuntimeWarning`` is emitted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from repro.core.baselines import make_system
from repro.core.engine import BatchResult
from repro.core.multiquery import Rulebook
from repro.graphs import datasets
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import (
    UpdateBatch,
    churn_stream,
    derive_stream,
    generate_adversarial_stream,
)
from repro.gpu.clock import TimeBreakdown
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import DeviceConfig
from repro.query.pattern import QueryGraph
from repro.utils import format_time_ns, geometric_mean, require

__all__ = [
    "RunResult",
    "ComparisonSummary",
    "Workload",
    "UPDATE_MIXES",
    "run_stream",
    "summarize",
    "run_service",
    "build_workload",
    "clear_caches",
    "print_table",
]

#: recognized ``update_mix`` values for :func:`build_workload`
UPDATE_MIXES = ("mixed", "insert-heavy", "delete-heavy", "churn", "adversarial")

_GRAPH_CACHE: dict[tuple, StaticGraph] = {}
_STREAM_CACHE: dict[tuple, "Workload"] = {}


def clear_caches() -> None:
    """Drop memoized graphs/streams (tests use this for isolation)."""
    _GRAPH_CACHE.clear()
    _STREAM_CACHE.clear()


@dataclass(frozen=True)
class Workload:
    """One memoized (initial graph, update stream) pair plus its audit trail.

    Iterable as ``(graph, batches)`` for drop-in compatibility with the
    historical tuple return of :func:`build_workload`; the extra fields make
    request-vs-delivery explicit (the dataset caps the derivable update
    count at ``num_edges // 2``, so a large request can come back smaller).
    """

    graph: StaticGraph
    batches: list[UpdateBatch]
    batch_size_requested: int
    num_batches_requested: int
    updates_requested: int
    update_mix: str = "mixed"
    window: int | None = None

    def __iter__(self):
        # yields the *same* objects on every call, preserving the memoized
        # identity semantics of the historical tuple return
        yield self.graph
        yield self.batches

    @property
    def updates_delivered(self) -> int:
        return int(sum(len(b) for b in self.batches))

    @property
    def num_batches_delivered(self) -> int:
        return len(self.batches)

    @property
    def truncated(self) -> bool:
        """True when the dataset could not satisfy the requested volume."""
        return (self.num_batches_delivered < self.num_batches_requested
                or self.updates_delivered < self.updates_requested)


def _validate_size(name: str, value: int) -> int:
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def build_workload(
    dataset: str,
    *,
    batch_size: int | None = None,
    num_batches: int = 1,
    seed: int = 0,
    update_mix: str = "mixed",
    window: int | None = None,
) -> Workload:
    """Dataset analog + derived update stream (paper Sec. VI-A methodology).

    ``batch_size=None`` uses the dataset's default (the scaled analog of the
    paper's 4096/8192); explicit sizes must be positive (``0`` is an error,
    not "use the default").  Streams are derived with enough updates to fill
    ``num_batches`` batches and memoized per parameter set.  The derivable
    update count is capped at ``graph.num_edges // 2``; when the cap bites,
    the returned :class:`Workload` reports it and a ``RuntimeWarning`` is
    emitted (on cache hits too).

    ``update_mix`` picks the stream regime (:data:`UPDATE_MIXES`);
    ``window`` overlays TTL expiry of that many batches
    (:func:`repro.graphs.window.apply_window` — windowed streams need a
    non-``strict`` conflict mode downstream).
    """
    spec = datasets.DATASETS[dataset]
    if batch_size is None:
        bs = spec.default_batch_size
    else:
        bs = _validate_size("batch_size", batch_size)
    nb = _validate_size("num_batches", num_batches)
    if update_mix not in UPDATE_MIXES:
        raise ValueError(
            f"unknown update_mix {update_mix!r}; expected one of {UPDATE_MIXES}"
        )
    if window is not None:
        window = _validate_size("window", window)
    gkey = (dataset, seed)
    if gkey not in _GRAPH_CACHE:
        _GRAPH_CACHE[gkey] = spec.build(seed)
    graph = _GRAPH_CACHE[gkey]
    skey = (dataset, seed, bs, nb, update_mix, window)
    if skey not in _STREAM_CACHE:
        _STREAM_CACHE[skey] = _derive_workload(graph, bs, nb, seed, update_mix, window)
    workload = _STREAM_CACHE[skey]
    if workload.truncated:
        # warn on every call (memoized hits included): the caller asking is
        # the one whose run shrinks
        warnings.warn(
            f"workload truncated for {dataset!r}: requested "
            f"{workload.num_batches_requested} x {workload.batch_size_requested} "
            f"updates but the dataset caps at {graph.num_edges // 2} "
            f"({workload.num_batches_delivered} batches / "
            f"{workload.updates_delivered} updates delivered)",
            RuntimeWarning,
            stacklevel=2,
        )
    return workload


def _derive_workload(
    graph: StaticGraph,
    bs: int,
    nb: int,
    seed: int,
    update_mix: str,
    window: int | None,
) -> Workload:
    requested = bs * nb
    capped = min(requested, graph.num_edges // 2)
    if update_mix == "adversarial":
        # synthesized anomalies (duplicates, phantom deletes, flapping)
        # don't consume distinct dataset edges, so no cap applies
        g0, batches = graph, generate_adversarial_stream(
            graph, num_batches=nb, batch_size=max(4, bs), seed=seed + 1
        )
        requested = max(4, bs) * nb
    elif update_mix == "churn":
        g0, batches = churn_stream(
            graph, num_updates=capped, batch_size=bs, seed=seed + 1
        )
    else:
        p_insert = {"mixed": 0.5, "insert-heavy": 0.9, "delete-heavy": 0.1}[update_mix]
        g0, batches = derive_stream(
            graph, num_updates=capped, batch_size=bs, seed=seed + 1,
            insert_probability=p_insert,
        )
    if window is not None:
        from repro.graphs.window import apply_window

        batches = apply_window(g0, batches, window=window)
    return Workload(
        graph=g0,
        batches=list(batches),
        batch_size_requested=bs,
        num_batches_requested=nb,
        updates_requested=requested,
        update_mix=update_mix,
        window=window,
    )


@dataclass
class RunResult:
    """Aggregated outcome of one system over a stream prefix.

    Times are simulated nanoseconds *per batch* (mean), matching how the
    paper reports "average execution time for one batch of edge updates".
    """

    system: str
    dataset: str
    query: str
    batch_size: float  # actual mean updates per driven batch
    num_batches: int  # batches actually driven
    breakdown: TimeBreakdown  # mean per batch
    counters: AccessCounters  # summed over batches
    delta_total: int
    embeddings_total: int
    cpu_access_bytes: int  # mean per batch
    #: requested sizing (None for legacy records): diverges from the actual
    #: ``batch_size`` / ``num_batches`` when the dataset truncates the
    #: derivable update stream (``build_workload`` caps at num_edges // 2)
    batch_size_requested: int | None = None
    num_batches_requested: int | None = None
    #: workload axes the stream was built with (``build_workload``)
    update_mix: str | None = None
    window: int | None = None
    coverage_top1: float | None = None
    coverage_top5: float | None = None
    cache_hit_rate: float | None = None
    cache_bytes: int = 0  # mean per batch
    conflict_mode: str | None = None  # update-conflict policy (Sec. V-A hardening)
    # -- multi-GPU extras (left at defaults for single-device systems) -----
    num_devices: int = 1
    peer_bytes: int = 0  # summed over batches
    allreduce_ns: float = 0.0  # summed over batches
    imbalance: float | None = None  # mean per-batch max/mean shard time
    load_balance: list[dict] = field(default_factory=list)  # per-batch reports
    # -- multi-query (rulebook) extras -------------------------------------
    shared: bool | None = None  # shared trie execution vs per-query loop
    rulebook_size: int | None = None  # number of standing queries
    # -- aggregate-invariant pre-filter extras (None/0 when disabled) ------
    prefilter: str | None = None  # "invariant" when the certified skip ran
    batches_skipped: int = 0  # batches certified ΔM = 0 (summed)
    roots_skipped: int = 0  # roots dropped by dominance masks (summed)
    queries_skipped: int = 0  # rulebook entries certified ΔM = 0 (summed)

    @property
    def batch_skip_rate(self) -> float:
        """Fraction of batches the pre-filter certified away entirely."""
        return self.batches_skipped / max(1, self.num_batches)

    @property
    def total_ms(self) -> float:
        return self.breakdown.total_ns / 1e6

    @property
    def match_ms(self) -> float:
        return self.breakdown.match_ns / 1e6

    @property
    def dc_ms(self) -> float:
        """Data-preparation time: FE + packing/DMA (Fig. 13's 'DC')."""
        return (self.breakdown.estimate_ns + self.breakdown.pack_ns) / 1e6

    def to_dict(self) -> dict:
        """The run as one flat, JSON-ready row: every field but
        ``breakdown`` and ``counters``, plus the breakdown's per-batch
        ``*_ns`` columns and ``total_ns``."""
        row = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("breakdown", "counters")}
        bd = self.breakdown
        row.update({f.name: getattr(bd, f.name) for f in fields(bd)})
        row["total_ns"] = bd.total_ns
        return row

    def describe(self) -> str:
        return (
            f"{self.system:>9} {self.dataset:>6} {self.query:>10} "
            f"total={format_time_ns(self.breakdown.total_ns):>10} "
            f"match={format_time_ns(self.breakdown.match_ns):>10} "
            f"cpu_access={self.cpu_access_bytes:>12,d} B"
        )


class _StreamTotals:
    """What :func:`run_stream` sums over the batches it drives, and the
    :class:`RunResult` fields that follow from it."""

    def __init__(self) -> None:
        self.breakdown = TimeBreakdown()
        self.counters = AccessCounters()
        self.cache_bytes = self.hits = self.misses = 0
        self.batches_skipped = self.roots_skipped = self.queries_skipped = 0

    def add(self, result) -> None:
        self.breakdown = self.breakdown + result.breakdown
        self.counters.merge(result.match_counters)
        self.cache_bytes += result.cache_bytes
        self.hits += result.cache_hits
        self.misses += result.cache_misses
        if result.prefilter is not None:
            self.batches_skipped += result.prefilter.batches_skipped
            self.roots_skipped += result.prefilter.roots_skipped
            self.queries_skipped += result.prefilter.queries_skipped

    def fields(self, workload: Workload, batches: list[UpdateBatch],
               num_batches: int) -> dict:
        n = max(1, len(batches))
        touched = self.hits + self.misses
        return dict(
            batch_size=float(np.mean([len(b) for b in batches])) if batches else 0.0,
            num_batches=len(batches),
            batch_size_requested=workload.batch_size_requested,
            num_batches_requested=num_batches,
            update_mix=workload.update_mix,
            window=workload.window,
            breakdown=self.breakdown.scaled(1.0 / n),
            counters=self.counters,
            cpu_access_bytes=self.counters.bytes_by_channel[Channel.ZERO_COPY] // n,
            cache_hit_rate=self.hits / touched if touched else None,
            cache_bytes=self.cache_bytes // n,
            batches_skipped=self.batches_skipped,
            roots_skipped=self.roots_skipped,
            queries_skipped=self.queries_skipped,
        )


def run_stream(
    system_name: str,
    dataset: str,
    query: QueryGraph | Rulebook,
    *,
    batch_size: int | None = None,
    num_batches: int = 1,
    seed: int = 0,
    device: DeviceConfig | None = None,
    update_mix: str = "mixed",
    window: int | None = None,
    **system_kwargs,
) -> RunResult:
    """Build the workload, drive ``system_name`` over it, aggregate.

    ``query`` is one pattern or a :class:`~repro.core.multiquery.Rulebook`:
    ``delta_total`` / ``embeddings_total`` then sum over all its queries."""
    workload = build_workload(
        dataset, batch_size=batch_size, num_batches=num_batches, seed=seed,
        update_mix=update_mix, window=window,
    )
    batches = workload.batches[:num_batches]
    system = make_system(
        system_name, workload.graph, query, device=device, seed=seed, **system_kwargs
    )
    config, fleet = system.config, system.num_devices > 1

    totals = _StreamTotals()
    delta_total = embeddings_total = 0
    cov1: list[float] = []
    cov5: list[float] = []
    peer_bytes = 0
    allreduce_ns = 0.0
    imbalances: list[float] = []
    lb_reports: list[dict] = []
    for batch in batches:
        result: BatchResult = system.process_batch(batch)
        totals.add(result)
        delta_total += result.delta_count
        embeddings_total += result.embeddings_found
        if result.cached_vertices.size and result.estimation is not None:
            cov1.append(result.coverage(0.01))
            cov5.append(result.coverage(0.05))
        if not fleet:
            continue
        # fleet diagnostics (a certified-skip batch carries none)
        if result.load_balance is not None:
            imbalances.append(result.load_balance.imbalance)
            lb_reports.append(result.load_balance.to_dict())
        if result.comm is not None:
            peer_bytes += result.comm.peer_bytes
            allreduce_ns += result.comm.allreduce_ns

    return RunResult(
        system=system_name,
        dataset=dataset,
        query=query.name,
        delta_total=delta_total,
        embeddings_total=embeddings_total,
        coverage_top1=float(np.mean(cov1)) if cov1 else None,
        coverage_top5=float(np.mean(cov5)) if cov5 else None,
        conflict_mode=config.conflict_mode,
        num_devices=system.num_devices,
        peer_bytes=peer_bytes,
        allreduce_ns=allreduce_ns,
        imbalance=float(np.mean(imbalances)) if imbalances else None,
        load_balance=lb_reports,
        shared=getattr(query, "shared", None),
        rulebook_size=len(query.queries) if isinstance(query, Rulebook) else None,
        prefilter=config.prefilter if config.prefilter != "off" else None,
        **totals.fields(workload, batches, num_batches),
    )


@dataclass
class ComparisonSummary:
    """Speedup statistics of one system against a baseline.

    ``speedups`` maps (dataset, query) to baseline_time / system_time — the
    paper's convention (values > 1 mean the system wins).
    """

    system: str
    baseline: str
    speedups: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def min(self) -> float:
        return min(self.speedups.values())

    @property
    def max(self) -> float:
        return max(self.speedups.values())

    @property
    def geomean(self) -> float:
        return geometric_mean(self.speedups.values())

    @property
    def wins(self) -> int:
        return sum(1 for v in self.speedups.values() if v > 1.0)

    def describe(self) -> str:
        return (
            f"{self.system} vs {self.baseline}: "
            f"{self.min:.2f}x-{self.max:.2f}x "
            f"(geomean {self.geomean:.2f}x, wins {self.wins}/{len(self.speedups)})"
        )


def summarize(
    runs: Iterable[RunResult], system: str, baseline: str
) -> ComparisonSummary:
    """Pairwise speedup summary over matching (dataset, query) legs."""
    by_key = {(r.system, r.dataset, r.query): r for r in runs}
    summary = ComparisonSummary(system=system, baseline=baseline)
    for (sys_name, dataset, query), run in by_key.items():
        if sys_name != system:
            continue
        base = by_key.get((baseline, dataset, query))
        if base is None:
            continue
        require(run.breakdown.total_ns > 0, "non-positive system time")
        summary.speedups[(dataset, query)] = (
            base.breakdown.total_ns / run.breakdown.total_ns
        )
    require(bool(summary.speedups), f"no overlapping legs for {system} vs {baseline}")
    return summary


def run_service(
    num_tenants: int = 2,
    *,
    num_batches: int = 8,
    batch_size: int = 16,
    rate_per_sec: float = 50.0,
    arrival: str = "poisson",
    burst: int = 4,
    think_ns: float = 0.0,
    num_devices: int = 1,
    queue_capacity: int = 8,
    scheduler: str = "fair",
    admission: str = "reject",
    pipeline: bool = True,
    seed: int = 0,
    device: DeviceConfig | None = None,
    json_path: str | None = None,
    engine_kwargs: dict | None = None,
    workload_kwargs: dict | None = None,
):
    """One multi-tenant service run; optionally persist the report as JSON.

    Builds ``num_tenants`` adversarial-stream tenants
    (:func:`repro.service.load.make_tenant_workloads`), drives them through
    a :class:`repro.service.server.MatchService`, and returns the
    :class:`repro.service.metrics.ServiceReport` — the machine-readable
    per-run artifact (per-tenant p50/p95/p99 latency, sustained edges/sec,
    queue depth, shed rate, counter totals, wall clock + simulated time).
    """
    from repro.service import MatchService, make_tenant_workloads

    workloads = make_tenant_workloads(
        num_tenants,
        num_batches=num_batches, batch_size=batch_size,
        rate_per_sec=rate_per_sec, arrival=arrival, burst=burst,
        think_ns=think_ns, seed=seed, **(workload_kwargs or {}),
    )
    service = MatchService(
        workloads,
        num_devices=num_devices, queue_capacity=queue_capacity,
        scheduler=scheduler, admission=admission,
        pipeline=pipeline,
        device=device, seed=seed, engine_kwargs=engine_kwargs,
    )
    report = service.run()
    if json_path:
        report.save(json_path)
    return report


def print_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    """Minimal fixed-width table printer for the figure runners."""
    widths = [len(h) for h in header]
    str_rows = [[_fmt(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.rjust(w) for h, w in zip(header, widths))
    print(f"\n== {title}")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
