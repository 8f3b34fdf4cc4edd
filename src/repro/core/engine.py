"""The GCSM engine: one staged per-batch pipeline, four plug points.

For every update batch ``ΔE_k`` (paper Fig. 3):

1. **Update** — ``ΔE_k`` is folded into the CPU adjacency store (insertions
   appended, deletions marked).
2. **Estimate** — merged random walks estimate per-vertex access frequency
   (Sec. IV); runs on the CPU.
3. **Pack** — the most frequent vertices' lists are packed into a DCSR
   buffer and moved to the GPU with a single DMA transfer (Sec. V-B).
4. **Match** — the incremental WCOJ kernel runs on the (simulated) GPU,
   reading cached lists from global memory and everything else via
   zero-copy (Sec. V-C).
5. **Reorganize** — updated CPU lists are re-sorted for the next batch;
   performed after matching so the kernel sees consistent data (Sec. V-A).

Every step's work is counted and priced by the device cost model, giving
the Table II / Fig. 13 phase breakdown per batch.

:class:`GCSMEngine` is the only engine class.  Its skeleton — update →
prefilter → expand → prepare → match → reorganize → result, one body in
:meth:`GCSMEngine.process_batch` — is fixed; a frozen,
once-validated :class:`EngineConfig` picks three narrow plugs and the
constructor's ``query`` argument is the fourth:

* **placement** (:class:`Placement`) — what *prepare* estimates, packs and
  ships from the kernel's one expansion, which
  :class:`~repro.gpu.views.GraphView` the kernel reads through, and the
  result bookkeeping.  ``cached`` is the paper's system; the
  baselines' data paths (:mod:`repro.core.baselines`,
  :mod:`repro.core.rapidflow`) are loaded on first use.
* **schedule** — ``serial``, or ``pipelined``: the same stages in the same
  order, with a :class:`~repro.gpu.clock.PipelineClock` placing each batch's
  stage times on overlapping CPU / GPU lanes in simulated time.
* **fan-out** — ``devices=N``: the ``cached`` placement keyed by an owner
  column (``hash(v) mod N``, :func:`repro.multigpu.engine.hash_owners`);
  one device is the case where every vertex is device 0's.
* **query set** (:class:`QuerySet`) — what a batch is matched against: one
  :class:`~repro.query.pattern.QueryGraph` on the fused one-launch-per-level
  kernel, or a :class:`repro.core.multiquery.Rulebook` of standing patterns
  on the shared execution trie.

Every paper baseline is therefore a row of config overrides
(:data:`repro.core.baselines.SYSTEMS`), not a class.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import import_module
from typing import Callable, NamedTuple

import numpy as np

from repro.core.cache import (
    CachedDeviceView,
    CachePolicy,
    DegreeCachePolicy,
    FrequencyCachePolicy,
)
from repro.core.dcsr import DcsrCache, packed_size_bytes, probe_cost
from repro.core.frequency import EstimationResult
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.matching import Expansion, MatchStats, expand, match_batch, match_static, settle
from repro.core.prefilter import (
    DEFAULT_PREFILTER,
    PrefilterDecision,
    PrefilterStats,
    make_prefilter,
    normalize_prefilter,
)
from repro.core.querytrie import solo_trie
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import DEFAULT_CONFLICT_MODE, CanonicalReport, UpdateBatch
from repro.gpu.clock import (
    PipelineClock, ScheduleReport, TimeBreakdown, gpu_time_ns, simulated_time_ns,
)
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import (
    BYTES_PER_NEIGHBOR,
    ClusterConfig,
    DeviceConfig,
    default_device,
)
from repro.gpu.views import GraphView, ZeroCopyView
from repro.query.pattern import QueryGraph
from repro.query.plan import MatchPlan, compile_delta_plans, compile_static_plan
from repro.utils import VERTEX_DTYPE, as_generator, require, spawn_generator

__all__ = [
    "GCSMEngine",
    "EngineConfig",
    "BatchResult",
    "Placement",
    "CachedPlacement",
    "CachedPack",
    "QuerySet",
    "MatchOutcome",
    "PLACEMENTS",
    "SCHEDULES",
    "make_policy",
    "update_step",
    "pack_ns",
    "pack_step",
    "reorganize_step",
]


# ----------------------------------------------------------------------
# Shared batch-step internals.  The engine's pack pricing and the
# benchmark's staged replay compose these, so a change here changes every
# caller identically.
# ----------------------------------------------------------------------
_POLICIES = {cls.name: cls for cls in (FrequencyCachePolicy, DegreeCachePolicy)}


def make_policy(policy: str) -> CachePolicy:
    """Resolve a policy name (``"frequency"`` | ``"degree"``) to a CachePolicy."""
    require(policy in _POLICIES, f"unknown cache policy {policy!r}")
    return _POLICIES[policy]()


def update_step(
    graph: DynamicGraph,
    batch: UpdateBatch,
    device: DeviceConfig,
    mode: str = DEFAULT_CONFLICT_MODE,
    on_applied: Callable[[UpdateBatch], tuple[int, int]] | None = None,
) -> tuple[UpdateBatch, float]:
    """Step 1: net ``ΔE`` under ``mode`` and fold it into the CPU store
    (:meth:`DynamicGraph.apply_batch`); returns ``(effective_batch, simulated_ns)``.

    Every later step — estimation, root generation, matching — must run on
    the returned *effective* batch: its updates are exactly the symmetric
    difference between the pre- and post-batch edge sets, which is what
    makes ΔM equal the true state difference on conflicted streams.  The
    raw batch is still what the CPU scans (and classifies), so the charged
    work covers the full input.  ``on_applied(effective)`` runs while the
    batch is open and returns the ``(compute ops, DRAM bytes)`` of host-side
    maintenance that rides on the update (RapidFlow's candidate index), priced
    with it.  The step is priced as the CPU platform prices counters
    (:func:`~repro.gpu.clock.simulated_time_ns`): its ops, or its DRAM reads
    if they take longer.
    """
    effective = graph.apply_batch(batch, mode=mode)
    avg_deg = max(2.0, 2.0 * graph.num_edges / max(1, graph.num_vertices))
    ops, nbytes = len(batch) * int(2 * (1 + math.log2(avg_deg))), 0
    if on_applied is not None:
        more, nbytes = on_applied(effective)
        ops += more
    return effective, max(ops / device.cpu_compute_ops_per_ns, device.cpu_read_time_ns(nbytes))


def pack_ns(device: DeviceConfig, rows, entries, nbytes):
    """Step 3's simulated ns, array-valued (a fleet prices every device at
    once): the host copies ``entries`` list entries of ``rows`` lists, one
    compute op each, then one DMA request moves the ``nbytes`` buffer."""
    return (entries + rows) / device.cpu_compute_ops_per_ns + device.dma_time_ns(nbytes)


def pack_step(
    graph: DynamicGraph, selected: np.ndarray, device: DeviceConfig
) -> tuple[DcsrCache, float]:
    """Step 3: pack ``selected`` vertices' lists into a DCSR buffer and DMA
    it to the device; returns ``(cache, simulated_ns)``."""
    cache = DcsrCache.build(graph, selected)
    return cache, pack_ns(device, cache.num_cached, cache.colidx.shape[0], cache.total_bytes)


def reorganize_step(graph: DynamicGraph, device: DeviceConfig) -> float:
    """Step 5: re-sort updated CPU lists; returns simulated ns."""
    stats = graph.reorganize()
    # priced as the CPU platform prices counters, as :func:`update_step` is
    return max((stats.merged_elements + stats.lists_touched) / device.cpu_compute_ops_per_ns,
               device.cpu_read_time_ns(stats.merged_elements * BYTES_PER_NEIGHBOR))


@dataclass
class BatchResult:
    """Everything one batch produced.

    ``delta_count`` is the signed incremental match count (ΔM).
    ``breakdown`` holds simulated per-phase times; ``match_counters`` the
    kernel's traffic (its per-vertex histogram is the *exact* access
    frequency ``C_v`` of this batch — the ground truth for Fig. 15);
    ``estimation`` the estimator output; ``cached_vertices`` the set shipped
    to the GPU (the defaults say "nothing estimated, nothing shipped": a
    certified-skip batch, or a placement without a cache).
    """

    delta_count: int
    match_stats: MatchStats
    breakdown: TimeBreakdown
    match_counters: AccessCounters
    estimation: EstimationResult | None = None
    cached_vertices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=VERTEX_DTYPE)
    )
    cache_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: classification of the raw batch against the pre-batch store (None for
    #: legacy constructors); ``conflicts.anomalies`` counts updates a clean
    #: stream would never contain
    conflicts: CanonicalReport | None = None
    #: certified-skip accounting when the aggregate-invariant pre-filter is
    #: enabled (None with ``prefilter="off"``)
    prefilter: PrefilterStats | None = None

    @property
    def embeddings_found(self) -> int:
        """Embeddings the kernel emitted, inserted and deleted alike."""
        return self.match_stats.embeddings_found

    @property
    def cpu_access_bytes(self) -> int:
        """Bytes the kernel read from CPU memory (the Fig. 8-10 bar labels)."""
        return self.match_counters.bytes_by_channel[Channel.ZERO_COPY]

    def coverage(self, top_fraction: float) -> float:
        """Fig. 15b metric: fraction of the exact top-``top_fraction``
        most-accessed vertices that were in the GPU cache (``|S∩T|/|S|``)."""
        counts = self.match_counters.vertex_access_counts()
        accessed = np.nonzero(counts > 0)[0]
        if accessed.size == 0:
            return 1.0
        k = max(1, int(round(top_fraction * accessed.size)))
        order = np.argsort(-counts[accessed], kind="stable")
        top = set(accessed[order[:k]].tolist())
        cached = set(self.cached_vertices.tolist())
        return len(top & cached) / len(top)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
#: placement name -> ``module:class`` of its :class:`Placement`; resolved on
#: first use so the default engine's import graph stays minimal
PLACEMENTS = {
    "cached": "repro.core.engine:CachedPlacement",
    "zero-copy": "repro.core.baselines:DirectPlacement",
    "unified": "repro.core.baselines:UnifiedMemoryPlacement",
    "host": "repro.core.baselines:HostPlacement",
    "khop": "repro.core.baselines:KhopPlacement",
    "indexed": "repro.core.rapidflow:IndexedPlacement",
}
SCHEDULES = ("serial", "pipelined")


def _resolve(spec: str):
    module, _, name = spec.partition(":")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class EngineConfig:
    """Every setting of a :class:`GCSMEngine`, validated once.

    Each field is consumed by exactly one plug (the "Engine configuration"
    table in ``DESIGN.md``); contradictions are rejected here and nowhere
    else.

    device:
        Cost/capacity model; defaults to the scaled RTX3090 analog.
    placement:
        The kernel's data path, a :data:`PLACEMENTS` key: ``cached`` (DCSR
        cache + zero-copy fallback — GCSM, Naive), ``zero-copy`` /
        ``unified`` / ``host`` (one view, nothing shipped — ZC / UM / CPU),
        ``khop`` (bulk-copy the batch's k-hop neighbourhood — VSGM),
        ``indexed`` (host loops over a candidate index — RapidFlow).
    policy, cache_budget_bytes:
        ``cached`` only: selection policy (``"frequency"``; Naive's
        ``"degree"`` also skips estimation) and device bytes for cached
        lists, per device on a fleet (``None``: the full device buffer).
    num_walks, adaptive_walks, survival:
        Estimator budget (``None``:
        :func:`~repro.core.frequency.default_num_walks`), the Eq. (5)
        re-sampling loop, and the walk-continuation schedule.
    strict_capacity:
        ``khop``: raise when the working set exceeds the device buffer.
    schedule:
        ``"serial"`` or ``"pipelined"`` (cross-batch stage overlap in
        simulated time: same results, annotated breakdowns).
    devices:
        The fan-out: a count or a :class:`~repro.gpu.device.ClusterConfig`;
        ``devices > 1`` keys the cached placement's pack and match by an
        owner column, each device owning the vertices that hash to it.
    """

    device: DeviceConfig | None = None
    placement: str = "cached"
    policy: str = "frequency"
    num_walks: int | None = None
    adaptive_walks: bool = False
    cache_budget_bytes: int | None = None
    survival: float | None = 1.0
    seed: int | np.random.Generator | None = 0
    conflict_mode: str = DEFAULT_CONFLICT_MODE
    prefilter: str = DEFAULT_PREFILTER
    strict_capacity: bool = True
    schedule: str = "serial"
    devices: int | ClusterConfig | None = None

    def __post_init__(self) -> None:
        cached = self.placement == "cached"
        require(self.placement in PLACEMENTS, f"unknown placement {self.placement!r}")
        require(self.schedule in SCHEDULES, f"unknown schedule {self.schedule!r}")
        object.__setattr__(self, "prefilter", normalize_prefilter(self.prefilter))
        if self.devices is not None:
            require(isinstance(self.devices, ClusterConfig) or int(self.devices) >= 1,
                    "devices must be >= 1")
            require(cached, f"devices requires placement='cached', not {self.placement!r}")
        require(cached or self.schedule == "serial",
                f"the pipelined schedule requires placement='cached', not {self.placement!r}")


# ----------------------------------------------------------------------
# the placement plug
# ----------------------------------------------------------------------
@dataclass
class MatchOutcome:
    """What the match stage hands back."""

    stats: MatchStats
    counters: AccessCounters
    match_ns: float
    view: GraphView | None = None  #: what the kernel read through (hits/misses)
    comm_ns: float = 0.0  #: collective after the kernels drain (fleets only)
    reader_ns: np.ndarray | None = None  #: each device's match time (fleets only)


class Placement:
    """Where the kernel's reads are served from, and what has to be shipped
    there first.  The base class is the "nothing shipped, nothing cached"
    data path; subclasses override the hooks they need."""

    #: result class the engine instantiates (fleets add diagnostics)
    result_type = BatchResult
    #: per-query-vertex candidate arrays handed to the kernel (``indexed``)
    filters: dict[int, np.ndarray] | None = None

    def __init__(self, engine: "GCSMEngine") -> None:
        # weak: the engine owns its placement, and an engine (with its whole
        # store) must be freed when dropped, not whenever the cycle collector
        # next runs — services and benchmarks build engines in a loop
        self.engine = weakref.proxy(engine)

    def compile_plans(self, query: QueryGraph) -> list[MatchPlan]:
        return compile_delta_plans(query)

    def maintain(self, batch: UpdateBatch) -> tuple[int, int]:
        """Host maintenance riding on the update: its ``(compute ops, DRAM
        bytes)``, priced into ``update_ns``."""
        return 0, 0

    def prepare(
        self, batch: UpdateBatch, decision: PrefilterDecision | None,
        breakdown: TimeBreakdown, expansion: Expansion | None,
    ) -> object:
        """Estimate / pack / ship for ``batch``, reading the kernel's
        ``expansion``; fills ``estimate_ns`` and ``pack_ns`` and returns what
        ``match`` reads."""
        return None

    def view(self, graph: DynamicGraph, counters: AccessCounters,
             shipped: object) -> GraphView:
        raise NotImplementedError

    def match(
        self, batch: UpdateBatch, shipped: object,
        decision: PrefilterDecision | None, sinks: dict | None,
        expansion: Expansion | None,
    ) -> MatchOutcome:
        """The kernel stage through :meth:`view`: settle ``expansion`` (or,
        handed none, run the kernel whole)."""
        engine = self.engine
        counters = AccessCounters()
        view = self.view(engine.graph, counters, shipped)
        stats = engine.query_set.match(
            engine, batch, view, decision, sinks, expansion, filters=self.filters
        )
        ns = simulated_time_ns(counters, engine.device, platform=view.platform)
        return MatchOutcome(stats, counters, ns, view)

    def bookkeeping(self, shipped: object, outcome: MatchOutcome | None) -> dict:
        """The placement-specific :class:`BatchResult` fields; ``outcome`` is
        ``None`` for a certified-skip batch."""
        return {}


class CachedPack(NamedTuple):
    """What the cached placement ships: the estimate, the cached vertices
    (owner-major, rank order within an owner) packed as one cache, the owner
    map (``None`` on one device), and per device its directory's probe cost,
    its own buffer's bytes and its pack time."""

    estimation: EstimationResult | None
    selected: np.ndarray
    cache: DcsrCache
    owner: np.ndarray | None
    probe_ops: np.ndarray
    nbytes: np.ndarray
    pack_ns: np.ndarray


class CachedPlacement(Placement):
    """GCSM's data path: estimate, select, pack one DCSR buffer, single DMA;
    the kernel hits the cache or falls back to zero-copy.  The walk reads
    the kernel's joins (the skeleton's :meth:`QuerySet.expand`), ``match``
    settles them.  On ``devices=N`` every step is keyed by an owner column,
    ``hash(v) mod N`` (:func:`repro.multigpu.engine.hash_owners`): each
    device caches what it owns within its own budget and settles the roots
    whose first endpoint it owns; one device owns every vertex."""

    @property
    def result_type(self) -> type[BatchResult]:
        if self.engine.num_devices == 1:
            return BatchResult
        from repro.multigpu.engine import FleetBatchResult

        return FleetBatchResult

    def prepare(self, batch, decision, breakdown, expansion):
        """The walk (policy-gated), then one pack for every device: each keeps
        the prefix of its owned ranked vertices whose running packed size
        fits its budget (one grouped cumulative sum), the union is packed
        into one cache, and each device's pack and DMA over its own host link
        is priced from its own rows, entries and bytes; the phase is the
        slowest device's."""
        engine, graph, n = self.engine, self.engine.graph, self.engine.num_devices
        estimation = None
        if engine.policy.requires_estimation:
            estimation = engine.query_set.estimate(engine, batch, decision, expansion)
            breakdown.estimate_ns = simulated_time_ns(
                estimation.counters, engine.device, platform="cpu_estimator")
        ranked = engine.policy.rank(graph, estimation)
        owner, owner_ns = None, 0.0
        if n > 1:  # the owner map: |V| host ops, priced as the CPU platform prices them
            from repro.multigpu.engine import hash_owners

            owner = hash_owners(graph.num_vertices, n)
            owner_ns = owner.size / engine.device.cpu_compute_ops_per_ns
        lengths = graph.run_lengths(ranked)[1]
        shard = np.zeros(ranked.size, dtype=np.int64) if owner is None else owner[ranked]
        order = shard.argsort(kind="stable")
        owned = np.bincount(shard, minlength=n)
        spent = np.concatenate(([0], packed_size_bytes(lengths[order]).cumsum()))
        before = spent[owned.cumsum() - owned].repeat(owned)
        kept = order[spent[1:] - before <= engine.cache_budget_bytes]
        shard = shard[kept]
        rows = np.bincount(shard, minlength=n)
        entries = np.bincount(shard, lengths[kept], n).astype(np.int64)
        # each device's own buffer: rowidx, rowptr pairs + sentinel row, colidx
        nbytes = (3 * rows + 2 + entries) * BYTES_PER_NEIGHBOR
        device_ns = pack_ns(engine.device, rows, entries, nbytes)
        breakdown.pack_ns = owner_ns + float(device_ns.max())
        selected = ranked[kept]
        return CachedPack(estimation, selected, DcsrCache.build(graph, selected), owner,
                          probe_cost(rows), nbytes, device_ns)

    def view(self, graph, counters, shipped):
        return CachedDeviceView(graph, self.engine.device, counters, shipped.cache,
                                shipped.probe_ops, shipped.owner)

    def match(self, batch, shipped, decision, sinks, expansion):
        """One settle; on a fleet the phase is the slowest device's (every
        device's split priced in one call), then the ΔM all-reduce."""
        engine = self.engine
        outcome = super().match(batch, shipped, decision, sinks, expansion)
        if engine.num_devices > 1:
            outcome.reader_ns = gpu_time_ns(outcome.view.totals, engine.device)
            outcome.match_ns = float(outcome.reader_ns.max())
            outcome.comm_ns = self.allreduce_ns
        return outcome

    @cached_property
    def allreduce_ns(self) -> float:
        """A fleet batch's ΔM all-reduce: fixed by the fleet and the plan count."""
        from repro.multigpu.comm import allreduce_delta_ns

        return allreduce_delta_ns(self.engine.cluster, self.engine.query_set.num_plans)

    def bookkeeping(self, shipped, outcome):
        if outcome is None:
            return {}
        view = outcome.view
        fields = dict(
            estimation=shipped.estimation, cached_vertices=shipped.selected,
            cache_bytes=int(shipped.nbytes.sum()), cache_hits=view.hits,
            cache_misses=view.misses,
        )
        if self.engine.num_devices > 1:
            from repro.multigpu.comm import LoadBalanceReport, comm_report

            fields.update(
                load_balance=LoadBalanceReport(tuple(outcome.reader_ns.tolist()),
                                               tuple(view.roots.tolist())),
                comm=comm_report(outcome.counters, outcome.comm_ns),
            )
        return fields


# ----------------------------------------------------------------------
# the query-set plug
# ----------------------------------------------------------------------
class QuerySet:
    """What a batch is matched against, as the handful of reads the
    skeleton, the placements and the fleet make of it.  This base is the
    single-query set: one ΔM plan list driven through ``engine.match``, the
    fused one-launch-per-level kernel.  The many-pattern set is
    :class:`repro.core.multiquery.Rulebook`."""

    def __init__(self, query: QueryGraph) -> None:
        self.query = query

    @staticmethod
    def check(config: EngineConfig) -> None:
        """Raise ``ValueError`` for a config this query set cannot run on."""

    def compile(self, placement: Placement) -> None:
        """Compile (once) ``plans``, which the engine exposes as its own, and
        build ``trie``: what every batch's estimate and match advance, found
        again from ``plans`` by identity (:func:`solo_trie`)."""
        self.plans = placement.compile_plans(self.query)
        self.trie = solo_trie(self.plans)

    @property
    def num_plans(self) -> int:
        """Partial ΔM counters a fleet all-reduces per batch."""
        return len(self.plans)

    @staticmethod
    def result_type(base: type[BatchResult]) -> type[BatchResult]:
        """The result class, given the placement's."""
        return base

    def evaluate(self, index, batch: UpdateBatch):
        """Certify skips: an object with ``skip_batch``, ``counters`` and
        ``to_stats`` that :meth:`estimate` / :meth:`match` / :meth:`settle`
        get back as ``decision``."""
        return index.evaluate(self.plans, batch)

    def expand(
        self, engine: "GCSMEngine", batch: UpdateBatch, decision, sinks: dict | None = None
    ) -> Expansion | None:
        """The kernel's view-free half (:func:`~repro.core.matching.expand`)
        under the placement's candidate ``filters``, run ahead of the
        estimate; ``None`` under a reference matcher."""
        if engine.match is not match_batch:
            return None
        sunk = frozenset([None] if (sinks or {}).get(self.query.name) else [])
        return expand(self.trie, batch, engine.graph, sinks=sunk,
                      prefilter=None if decision is None else decision.masks,
                      filters=engine.placement.filters)

    def estimate(self, engine: "GCSMEngine", batch: UpdateBatch, decision,
                 expansion: Expansion | None = None) -> EstimationResult:
        """One walk of ``expansion``; under the pre-filter the reduced
        ``estimate_batch`` only sizes the budget."""
        cfg = engine.config
        if decision is not None:
            batch = decision.estimate_batch
        if cfg.adaptive_walks:
            return engine.estimator.estimate_adaptive(
                self.plans, batch, initial_walks=cfg.num_walks, expansion=expansion
            )
        return engine.estimator.estimate(
            self.plans, batch, num_walks=cfg.num_walks, expansion=expansion
        )

    def match(
        self, engine: "GCSMEngine", batch: UpdateBatch, view: GraphView, decision,
        sinks: dict | None = None, expansion: Expansion | None = None, *,
        filters: dict[int, np.ndarray] | None = None,
    ) -> MatchStats:
        """Run the kernel (or settle :meth:`expand`'s) through ``view``;
        ``filters`` are the placement's."""
        sink = (sinks or {}).get(self.query.name)
        if expansion is not None:
            return settle(expansion, view, sinks={None: sink})[0][None]
        return engine.match(
            self.plans, batch, view, sink=sink, prefilter=decision, filters=filters
        )

    def settle(self, stats: MatchStats | None, decision) -> MatchStats:
        """The batch's final stats; ``stats`` is ``None`` when the whole
        batch was certified ΔM = 0 and no kernel ran."""
        return stats if stats is not None else MatchStats(roots_skipped=decision.roots_total)

    def result_fields(self, stats: MatchStats) -> dict:
        return dict(delta_count=stats.signed_count, match_stats=stats)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class GCSMEngine:
    """Continuous subgraph matching over one staged per-batch pipeline.

    ``GCSMEngine(initial_graph, query, **settings)`` builds the paper's
    system; ``settings`` are :class:`EngineConfig` fields (or pass a ready
    ``config`` and override fields of it).  ``initial_graph`` is the ``G_0``
    snapshot, copied into the dynamic store; ``query`` the pattern to
    monitor continuously — or a :class:`~repro.core.multiquery.Rulebook` of
    them, matched per batch over the same stages.

    ``estimator`` and ``match`` are plain attributes holding the two
    kernels, so a parity suite can run the same pipeline on reference
    kernels (:func:`repro.testing.use_reference_kernels`).
    """

    def __init__(
        self,
        initial_graph: StaticGraph,
        query: QueryGraph | QuerySet,
        config: EngineConfig | None = None,
        **overrides,
    ) -> None:
        config = EngineConfig(**overrides) if config is None else replace(config, **overrides)
        self.config = config
        self.query = query
        self.query_set = query if isinstance(query, QuerySet) else QuerySet(query)
        self.query_set.check(config)
        if config.devices is None:
            self.cluster = None
            self.device = config.device or default_device()
        else:
            self.cluster = (
                config.devices
                if isinstance(config.devices, ClusterConfig)
                else ClusterConfig(
                    num_devices=int(config.devices),
                    base=config.device or default_device(),
                )
            )
            self.device = self.cluster.device()
        self.num_devices = self.cluster.num_devices if self.cluster else 1
        self.cache_budget_bytes = (
            config.cache_budget_bytes
            if config.cache_budget_bytes is not None
            else self.device.cache_buffer_bytes
        )
        self.graph = DynamicGraph(initial_graph)
        self.estimator = FrontierFrequencyEstimator(
            self.graph, self.device,
            seed=spawn_generator(as_generator(config.seed)), survival=config.survival,
        )
        self.match = match_batch
        self.policy: CachePolicy = make_policy(config.policy)
        #: one shared host-side index, also on a fleet: maintenance is a host
        #: phase and the kernels only read precomputed masks
        self.prefilter_index = make_prefilter(config.prefilter, self.graph)
        self.placement: Placement = _resolve(PLACEMENTS[config.placement])(self)
        self.query_set.compile(self.placement)
        self.result_type = self.query_set.result_type(self.placement.result_type)
        #: the pipelined schedule's simulated-time model (None when serial)
        self.clock = PipelineClock() if config.schedule == "pipelined" else None
        self.batches_processed = 0
        self.total_delta = 0

    @property
    def plans(self):
        """The query set's compiled ΔM plans (a list; per query name for a
        rulebook)."""
        return self.query_set.plans

    # ------------------------------------------------------------------
    # the batch
    # ------------------------------------------------------------------
    def _prefilter(self, batch: UpdateBatch, breakdown: TimeBreakdown):
        """CPU stage 1b: maintain the aggregate-invariant index and certify
        skips for this (effective) batch.  The decision's per-plan root
        masks are fully materialized here, so the match stage never reads
        the live index."""
        index = self.prefilter_index
        if index is None:
            return None
        counters = index.apply_batch(batch)
        decision = self.query_set.evaluate(index, batch)
        counters.merge(decision.counters)
        breakdown.prefilter_ns = simulated_time_ns(counters, self.device, platform="cpu")
        return decision

    def _reorganize(self) -> float:
        """CPU stage 5: re-sort updated lists, close the batch."""
        ns = reorganize_step(self.graph, self.device)
        if self.prefilter_index is not None:
            # the batch is settled: OLD adjacency is gone, drop the overlay
            self.prefilter_index.close_batch()
        return ns

    def process_batch(
        self, batch: UpdateBatch, *, sinks: dict | None = None
    ) -> BatchResult:
        """Run the full pipeline for one batch (the paper's Fig. 3): update →
        prefilter → the kernel's one expansion → prepare → match →
        reorganize; a batch certified ΔM = 0 goes from prefilter straight to
        reorganize (its update really happened).  Every placement and
        schedule runs this body; the pipelined schedule's clock only
        annotates the breakdown with the batch's overlapped timing.

        If a stage raises, the engine settles before re-raising, so the next
        batch finds it usable: the store is reorganized if still open, the
        prefilter index rebuilt from the settled store (the stage may have
        failed before or after the index's ``apply_batch``, or after the
        store settled).  Nothing else holds batch state: a predicate reads
        each edge's weight as its hash.

        ``sinks`` optionally maps query names to ``(embedding, sign)``
        callbacks (a single query's sink is ``sinks[query.name]``)."""
        require(len(batch) > 0, "empty batch")
        breakdown = TimeBreakdown()
        shipped = outcome = None
        try:
            # every later step runs on the netted *effective* batch
            batch, breakdown.update_ns = update_step(
                self.graph, batch, self.device, self.config.conflict_mode,
                self.placement.maintain,
            )
            decision = self._prefilter(batch, breakdown)
            if decision is None or not decision.skip_batch:
                expansion = self.query_set.expand(self, batch, decision, sinks)
                shipped = self.placement.prepare(batch, decision, breakdown, expansion)
                outcome = self.placement.match(batch, shipped, decision, sinks, expansion)
                breakdown.match_ns, breakdown.comm_ns = outcome.match_ns, outcome.comm_ns
            breakdown.reorg_ns = self._reorganize()
        except BaseException:
            if self.graph.batch_open:
                self.graph.reorganize()
            if self.prefilter_index is not None:
                self.prefilter_index.rebuild()
            raise
        if self.clock is not None:
            self.clock.annotate(breakdown)
        if outcome is None:
            stats, counters = None, AccessCounters()
        else:
            stats, counters = outcome.stats, outcome.counters
        stats = self.query_set.settle(stats, decision)
        prefilter = None
        if decision is not None:
            prefilter = decision.to_stats(breakdown.prefilter_ns)
            # report the drops the kernel actually saw (candidate filters may
            # have removed certified-skippable roots first)
            prefilter.roots_skipped = stats.roots_skipped
        self.batches_processed += 1
        self.total_delta += stats.signed_count
        return self.result_type(
            **self.query_set.result_fields(stats),
            breakdown=breakdown,
            match_counters=counters,
            conflicts=self.graph.last_canonical_report,
            prefilter=prefilter,
            **self.placement.bookkeeping(shipped, outcome),
        )

    def process_stream(self, batches: list[UpdateBatch]) -> list[BatchResult]:
        """Process a whole stream, returning per-batch results in order."""
        return [self.process_batch(b) for b in batches]

    def schedule_report(self) -> ScheduleReport:
        """Stream-level pipeline summary (``schedule="pipelined"`` only)."""
        require(self.clock is not None, "engine built without schedule='pipelined'")
        return self.clock.report()

    def initial_match(self) -> tuple[int, float]:
        """Match the query on the current settled snapshot (paper Fig. 2a).

        CSM deployments bootstrap with one static matching pass before
        switching to incremental maintenance.  Prior GPU work covers this
        case (STMatch et al., paper Sec. III); here the snapshot is matched
        with the same kernel through the zero-copy path on one device (the
        graph lives on the CPU).  Returns ``(embedding_count, simulated_ns)``.
        """
        require(not self.graph.batch_open, "settle the open batch first")
        require(isinstance(self.query, QueryGraph), "initial_match takes one query")
        counters = AccessCounters()
        view = ZeroCopyView(self.graph, self.device, counters)
        stats = match_static(compile_static_plan(self.query), view)
        return stats.signed_count, simulated_time_ns(counters, self.device, platform="gpu")

    def snapshot(self) -> StaticGraph:
        """Current settled graph snapshot."""
        return self.graph.snapshot()
