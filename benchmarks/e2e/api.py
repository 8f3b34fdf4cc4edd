"""The program under test, as the benchmark sees it.

Every name the benchmark takes from ``repro`` is listed in the tables below
and imported here and nowhere else, so a refactor of the program (ROADMAP
item 1) can tell from this one file what the benchmark needs to keep alive.
``DRIVER`` names are what set-up and the timed, untraced passes go through;
``REPLAY`` names are used only by the staged replay of the traced run
(``replay.py``), which re-sequences the engine's stages from the benchmark's
side to put a span around each.  ``RESULT_FIELDS`` are the attributes read
from each ``process_batch`` result.

The benchmark passes no ``executor=`` / ``estimator=`` / ``conflict_mode=``
arguments anywhere: defaults only.
"""

from __future__ import annotations

from importlib import import_module

#: name -> module; what set-up and the timed passes are driven through
DRIVER = {
    "DATASETS": "repro.graphs.datasets",       # DATASETS[name].build(seed)
    "derive_stream": "repro.graphs.stream",
    "churn_stream": "repro.graphs.stream",
    "compile_delta_plans": "repro.query.plan",
    "make_system": "repro.core.baselines",     # make_system(name, g0, query, seed=)
    "GCSMEngine": "repro.core.engine",         # GCSMEngine(g0, query, seed=, prefilter=)
    "MultiQueryEngine": "repro.core.multiquery",  # MultiQueryEngine(g0, queries, seed=, shared=)
    "query_by_name": "repro.query.catalog",
    "rulebook_suite": "repro.query.generator",
    "QueryGraph": "repro.query.pattern",
    "StaticGraph": "repro.graphs.static_graph",
    "UpdateBatch": "repro.graphs.stream",
    "Channel": "repro.gpu.counters",           # match_counters.bytes_by_channel[...]
}

#: name -> module; the layers' public functions the staged replay calls, in
#: ``process_batch`` order
REPLAY = {
    "update_step": "repro.core.engine",
    "pack_step": "repro.core.engine",
    "reorganize_step": "repro.core.engine",
    "match_batch": "repro.core.matching",
    "CachedDeviceView": "repro.core.cache",
    "AccessCounters": "repro.gpu.counters",
    "simulated_time_ns": "repro.gpu.clock",
}

#: attributes read from a ``process_batch`` result (``delta_counts``,
#: per-query ``match_stats`` and ``trie_stats`` on the rulebook engine only)
RESULT_FIELDS = (
    "delta_count", "delta_counts", "breakdown", "match_counters", "match_stats",
    "estimation", "cached_vertices", "cache_bytes", "cache_hits", "cache_misses",
    "conflicts", "prefilter", "trie_stats",
)

#: the simulated stages that sum to ``breakdown.total_ns`` on one device
STAGE_NS = ("update_ns", "prefilter_ns", "estimate_ns", "pack_ns", "match_ns", "reorg_ns")

#: attributes of a constructed ``GCSMEngine`` the staged replay drives
ENGINE_PARTS = (
    "graph", "device", "plans", "estimator", "policy", "cache_budget_bytes",
    "prefilter_index",
)

for _name, _module in {**DRIVER, **REPLAY}.items():
    globals()[_name] = getattr(import_module(_module), _name)
