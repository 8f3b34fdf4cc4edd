"""Traced run: a staged replay of ``process_batch`` with a span per layer call.

The program has no tracing of its own yet (ROADMAP item 2), so the spans are
recorded here, around the layers' public functions called in the engine's
order.  To show the spans cover the same work, every replayed batch must
reproduce the engine's ΔM **and each stage's simulated ns** exactly; a batch
that does not is a failed operation.  End-to-end metrics never come from
this module.

``MultiQueryEngine`` exposes no per-stage public entry, so the rulebook
workload records one span per ``process_batch``.
"""

from __future__ import annotations

import gc
import statistics
import time

import api
import measure
import workloads as W

#: per-batch stage span -> per-layer metric stem (``*_wall_ms`` / ``*_wall_share``)
STAGE_METRIC = {
    "graphs.dynamic_graph.update_step": "graphs.dynamic_graph.update",
    "core.prefilter.apply_batch": "core.prefilter",
    "core.prefilter.evaluate": "core.prefilter",
    "core.prefilter.close_batch": "core.prefilter",
    "core.frequency.estimate": "core.frequency.estimate",
    "core.cache.select": "core.cache.select",
    "core.dcsr.pack_step": "core.dcsr.pack",
    "core.matching.match_batch": "core.matching.match",
    "graphs.dynamic_graph.reorganize_step": "graphs.dynamic_graph.reorganize",
    "core.multiquery.process_batch": "core.multiquery.process_batch",
}
SELF = "bench.e2e.replay_self"
STEMS = tuple(dict.fromkeys(STAGE_METRIC.values())) + (SELF,)


def wall_name(stem: str, suffix: str) -> str:
    # the issue names the prefilter pair ``core.prefilter.wall_ms`` / ``.wall_share``
    return f"{stem}.wall_{suffix}" if stem == "core.prefilter" else f"{stem}_wall_{suffix}"


class Tracer:
    """In-memory span log: ``[name, start_s, end_s, parent, batch, pass]``,
    ``parent`` an index into the same list (``None`` at the top)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id: int | None = None

    def span(self, name: str, batch: int | None = None) -> "_Span":
        return _Span(self, name, batch)


class _Span:
    def __init__(self, tracer: Tracer, name: str, batch: int | None) -> None:
        self.tracer, self.name, self.batch = tracer, name, batch

    def __enter__(self) -> "_Span":
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        if self.batch is None and parent is not None:
            self.batch = tr.spans[parent][4]
        self.index = len(tr.spans)
        tr.spans.append([self.name, 0.0, 0.0, parent, self.batch, tr.pass_id])
        tr._stack.append(self.index)
        tr.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer.spans[self.index][2] = end
        self.tracer._stack.pop()


# ----------------------------------------------------------------------
# set-up, stage by stage
# ----------------------------------------------------------------------
SETUP_STAGES = {
    "graphs.datasets.build": ("graphs.datasets.build_wall_s", 1.0),
    "graphs.stream.derive": ("graphs.stream.derive_wall_s", 1.0),
    "query.plan.compile": ("query.plan.compile_wall_ms", 1e3),
    "core.engine.init": ("core.engine.init_wall_s", 1.0),
}


def staged_setup(w: W.Workload, seed: int, smoke: bool, tr: Tracer):
    """``workloads.setup`` with a span around each layer's entry point;
    returns ``(inputs, engine, stage walls at reference speed)``."""
    gc.collect()
    first = len(tr.spans)
    (inputs, engine), _, speed = measure.with_machine_speed(
        lambda: W.setup(w, seed, smoke, tr.span)
    )
    stages = {}
    for name, start, end, *_ in tr.spans[first:]:
        if name in SETUP_STAGES:
            metric, scale = SETUP_STAGES[name]
            stages[metric] = (end - start) * scale / speed
    return inputs, engine, stages


# ----------------------------------------------------------------------
# one traced pass
# ----------------------------------------------------------------------
def _hook_reorganize(graph) -> list:
    """``reorganize_step`` returns only its simulated ns; keep the store's
    own ReorganizeStats of the latest call in the returned one-slot list."""
    last = [None]
    reorganize = graph.reorganize

    def counting():
        last[0] = reorganize()
        return last[0]

    graph.reorganize = counting
    return last


def replay_pass(w: W.Workload, inputs: W.Inputs, engine, tr: Tracer):
    """Replay the stream on ``engine``'s own parts, stage by stage.

    Returns per-batch ``{"delta", "ns", reorg counts, tree_nodes}`` records
    (rulebook: through ``process_batch`` under a single span) and the
    calibration sample taken before each batch."""
    out, cals = [], []
    if w.kind == "rulebook":
        for i, batch in enumerate(inputs.batches):
            cals.append(measure.calibration_sample())
            with tr.span("batch", batch=i):
                with tr.span("core.multiquery.process_batch"):
                    result = engine.process_batch(batch)
            rec = measure.light_record(w, result)
            rec.update(merged=0, lists=0, tree_nodes=measure.sum_stats(
                result.match_stats, "tree_nodes"))
            out.append(rec)
        return out, cals

    graph, device, plans = engine.graph, engine.device, engine.plans
    index = engine.prefilter_index
    last_reorg = _hook_reorganize(graph)
    for i, raw in enumerate(inputs.batches):
        cals.append(measure.calibration_sample())
        prefilter_ns = estimate_ns = pack_ns = match_ns = 0.0
        delta = tree_nodes = 0
        decision = None
        with tr.span("batch", batch=i):
            with tr.span("graphs.dynamic_graph.update_step"):
                batch, update_ns = api.update_step(graph, raw, device)
            if index is not None:
                with tr.span("core.prefilter.apply_batch"):
                    counters = index.apply_batch(batch)
                with tr.span("core.prefilter.evaluate"):
                    decision = index.evaluate(plans, batch)
                counters.merge(decision.counters)
                prefilter_ns = api.simulated_time_ns(counters, device, platform="cpu")
            if decision is None or not decision.skip_batch:
                est_in = decision.estimate_batch if decision is not None else batch
                with tr.span("core.frequency.estimate"):
                    estimation = engine.estimator.estimate(plans, est_in, num_walks=None)
                estimate_ns = api.simulated_time_ns(
                    estimation.counters, device, platform="cpu_estimator"
                )
                with tr.span("core.cache.select"):
                    selected = engine.policy.select(
                        graph, estimation.frequencies, engine.cache_budget_bytes
                    )
                with tr.span("core.dcsr.pack_step"):
                    cache, pack_ns = api.pack_step(graph, selected, device)
                with tr.span("core.matching.match_batch"):
                    match_counters = api.AccessCounters()
                    view = api.CachedDeviceView(graph, device, match_counters, cache)
                    stats = api.match_batch(plans, batch, view, prefilter=decision)
                match_ns = api.simulated_time_ns(match_counters, device, platform="gpu")
                delta, tree_nodes = int(stats.signed_count), stats.tree_nodes
            with tr.span("graphs.dynamic_graph.reorganize_step"):
                reorg_ns = api.reorganize_step(graph, device)
            if index is not None:
                with tr.span("core.prefilter.close_batch"):
                    index.close_batch()
        out.append({
            "delta": delta,
            "ns": (update_ns, prefilter_ns, estimate_ns, pack_ns, match_ns, reorg_ns),
            "merged": last_reorg[0].merged_elements,
            "lists": last_reorg[0].lists_touched,
            "tree_nodes": tree_nodes,
        })
    return out, cals


# ----------------------------------------------------------------------
# spans -> per-layer wall metrics
# ----------------------------------------------------------------------
def layer_walls(
    tr: Tracer, replays: list[list], pass_cals: list[list[float]],
    untraced_walls: list[float],
) -> dict:
    """Stage wall per batch at reference speed (median over the traced
    passes, then median over the batches the stage ran in), stage share of
    all batch-span time, the replay's self time, and the tracing overhead
    against the untraced pass (``untraced_walls``, calibrated too)."""
    speed = [
        measure.calibrated([1.0] * len(cals), cals) for cals in pass_cals
    ]  # speed[pass][batch]: the factor a raw second is multiplied by
    per = {}  # (pass, batch) -> {stem: seconds}; "batch" holds the span itself
    for name, start, end, parent, batch, pass_id in tr.spans:
        if pass_id is None:
            continue
        cell = per.setdefault((pass_id, batch), {})
        stem = "batch" if name == "batch" else STAGE_METRIC[name]
        cell[stem] = cell.get(stem, 0.0) + (end - start) * speed[pass_id][batch]
    for cell in per.values():
        cell[SELF] = cell["batch"] - sum(v for k, v in cell.items() if k != "batch")

    span_total = sum(cell["batch"] for cell in per.values())
    passes = sorted({p for p, _ in per})
    num = len(untraced_walls)
    out = {}
    for stem in STEMS:
        per_batch = [
            statistics.median(vals)
            for i in range(num)
            if (vals := [per[p, i][stem] for p in passes if stem in per[p, i]])
        ]
        out[wall_name(stem, "ms")] = statistics.median(per_batch) * 1e3 if per_batch else 0.0
        out[wall_name(stem, "share")] = (
            sum(cell.get(stem, 0.0) for cell in per.values()) / span_total
        )
    traced = sum(statistics.median(per[p, i]["batch"] for p in passes) for i in range(num))
    out["bench.e2e.trace_overhead_pct"] = 100.0 * (traced / sum(untraced_walls) - 1.0)

    match_s = sum(cell.get("core.matching.match", 0.0) for cell in per.values())
    tree_nodes = sum(r["tree_nodes"] for records in replays for r in records)
    out["core.matching.tree_nodes_per_ms"] = measure.ratio(tree_nodes, match_s * 1e3)
    first = replays[0]
    out["graphs.dynamic_graph.reorg_merged_elements"] = (
        sum(r["merged"] for r in first) / len(first)
    )
    out["graphs.dynamic_graph.reorg_lists_touched"] = (
        sum(r["lists"] for r in first) / len(first)
    )
    return out
