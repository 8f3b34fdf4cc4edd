"""Cross-system consistency checking and differential stream fuzzing.

The strongest correctness property in this codebase is that *every* system —
GCSM (single- or multi-GPU), the four GPU baselines, the CPU loop,
RapidFlow — computes the exact same signed ΔM for the same batch: they
differ only in data movement.  :func:`verify_stream` drives any set of
systems over one stream and checks that property batch by batch, optionally
against the brute-force oracle (:mod:`repro.testing.reference`) as well.

On top of it sits a **differential stream fuzzer**: :func:`fuzz_verify`
replays many independently seeded adversarial cases
(:func:`repro.graphs.stream.generate_adversarial_stream`: duplicate inserts,
phantom deletes, same-batch churn, double deletes, new-vertex bursts,
hot-edge flapping) through the full system set with the oracle and
per-batch store-invariant checks enabled.  It is exposed through
``python -m repro verify [--fuzz N]`` so a user who modifies the library
(or doubts a result) can re-establish confidence in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import SYSTEMS, make_system
from repro.core.engine import EngineConfig
from repro.graphs import generators
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import (
    DEFAULT_CONFLICT_MODE,
    CanonicalReport,
    UpdateBatch,
    generate_adversarial_stream,
)
from repro.query.pattern import QueryGraph
from repro.testing.reference import count_embeddings
from repro.utils import require

__all__ = [
    "VerificationReport",
    "ConsistencyError",
    "verify_stream",
    "verify_rulebook",
    "RulebookParityReport",
    "fuzz_verify",
    "FuzzReport",
    "DEFAULT_FUZZ_SYSTEMS",
]


class ConsistencyError(AssertionError):
    """Two systems (or a system and the oracle) disagreed on ΔM."""


def _parse_system_spec(spec: str) -> tuple[str, dict]:
    """``"GCSM@2"`` → ``("GCSM", {"devices": 2})``; plain names map to ``{}``.

    The ``@N`` suffix fans a ``cached``-placement system (GCSM, Pipelined,
    Naive) out over an N-device fleet so the fuzzer exercises the
    shard-union matching path alongside single-device systems.  A
    ``+prefilter`` suffix (before any ``@N``) enables the
    aggregate-invariant pre-filter on the system, e.g. ``"GCSM+prefilter"``
    or ``"GCSM+prefilter@2"`` — the fuzzer's exactness check then covers
    the certified-skip path against every unfiltered system.  Specs come
    from the command line, so anything else is a :class:`ValueError` naming
    the spec.
    """
    kwargs: dict = {}
    if "+prefilter" in spec:
        kwargs["prefilter"] = "invariant"
    name, at, devices = spec.replace("+prefilter", "", 1).partition("@")
    require(name in SYSTEMS, f"unknown system spec {spec!r}")
    if at:
        require(EngineConfig(**SYSTEMS[name]).placement == "cached",
                f"@N device suffix needs a cached-placement system, got {spec!r}")
        require(devices.isdigit() and int(devices) >= 1,
                f"bad device count in system spec {spec!r}")
        kwargs["devices"] = int(devices)
    return name, kwargs


def _describe(report: CanonicalReport) -> str:
    """One line of what a batch's netting did."""
    return (
        f"netting[{report.mode}]: {report.input_size} -> {report.output_size} "
        f"updates (+{report.new_inserts} insert / -{report.valid_deletes} delete; "
        f"dropped {report.duplicate_inserts} dup-insert, "
        f"{report.phantom_deletes} phantom-delete, "
        f"{report.intra_batch_dropped} intra-batch)"
    )


def _conflict_key(report: CanonicalReport | None) -> tuple | None:
    if report is None:
        return None
    return (
        report.input_size, report.output_size, report.new_inserts,
        report.duplicate_inserts, report.valid_deletes,
        report.phantom_deletes, report.intra_batch_dropped,
    )


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    systems: list[str]
    query: str
    num_batches: int
    delta_per_batch: list[int] = field(default_factory=list)
    oracle_checked: bool = False
    conflict_mode: str | None = None
    invariants_checked: bool = False
    anomalies: CanonicalReport | None = None

    @property
    def total_delta(self) -> int:
        return sum(self.delta_per_batch)

    def describe(self) -> str:
        oracle = "oracle-checked" if self.oracle_checked else "cross-checked"
        msg = (
            f"{len(self.systems)} systems agree on {self.query} over "
            f"{self.num_batches} batches ({oracle}); total ΔM = {self.total_delta:+d}"
        )
        if self.anomalies is not None and self.anomalies.anomalies:
            msg += f"; absorbed {self.anomalies.anomalies} anomalous updates"
        return msg


def verify_stream(
    system_names: list[str],
    initial_graph: StaticGraph,
    query: QueryGraph,
    batches: list[UpdateBatch],
    *,
    against_oracle: bool = False,
    seed: int = 0,
    conflict_mode: str | None = None,
    check_invariants: bool = False,
    system_kwargs: dict | None = None,
    prepare=None,
) -> VerificationReport:
    """Run every system over the stream; raise on any ΔM disagreement.

    ``against_oracle=True`` additionally recounts embeddings from scratch
    after every batch (exponential-ish cost — keep the graphs small).
    ``conflict_mode`` forces one update-conflict policy on every system
    (``None`` keeps each system's default); with a mode set, the per-batch
    :class:`~repro.graphs.stream.CanonicalReport` of every system must also
    agree — all stores classify the same raw batch against the same state.
    ``check_invariants=True`` audits every system's dynamic store after each
    batch (i.e. after its reorganize).  System names accept the ``GCSM@N``
    spec for an N-device fleet, and ``system_kwargs`` is forwarded to every
    system constructor (e.g. ``{"prefilter": "on"}``).  ``prepare`` is
    applied to every constructed system before the run — parity suites pass
    ``repro.testing.use_reference_kernels`` to put the whole system set on
    the reference kernels.
    """
    require(len(system_names) >= 1, "need at least one system")
    require(len(batches) >= 1, "need at least one batch")
    systems = {}
    for spec in system_names:
        name, extra = _parse_system_spec(spec)
        kwargs = dict(system_kwargs or {})
        kwargs.update(extra)
        if conflict_mode is not None:
            kwargs["conflict_mode"] = conflict_mode
        systems[spec] = make_system(name, initial_graph, query, seed=seed, **kwargs)
        if prepare is not None:
            prepare(systems[spec])
    report = VerificationReport(
        systems=list(system_names), query=query.name, num_batches=len(batches),
        oracle_checked=against_oracle, conflict_mode=conflict_mode,
        invariants_checked=check_invariants,
        anomalies=CanonicalReport(mode=conflict_mode or "default"),
    )
    prev_count = count_embeddings(initial_graph, query) if against_oracle else None
    for k, batch in enumerate(batches):
        deltas = {}
        conflicts = {}
        for name, system in systems.items():
            result = system.process_batch(batch)
            deltas[name] = result.delta_count
            conflicts[name] = result.conflicts
            if check_invariants:
                try:
                    system.graph.check_invariants()
                except ValueError as exc:
                    raise ConsistencyError(
                        f"batch {k}: {name} store invariant violated: {exc}"
                    ) from exc
        distinct = set(deltas.values())
        if len(distinct) != 1:
            raise ConsistencyError(
                f"batch {k}: systems disagree on ΔM: {deltas}"
            )
        keys = {n: _conflict_key(r) for n, r in conflicts.items() if r is not None}
        if len(set(keys.values())) > 1:
            raise ConsistencyError(
                f"batch {k}: systems disagree on batch classification: "
                f"{ {n: _describe(r) for n, r in conflicts.items() if r is not None} }"
            )
        first = next((r for r in conflicts.values() if r is not None), None)
        if first is not None:
            assert report.anomalies is not None
            report.anomalies.merge(first)
        delta = distinct.pop()
        if against_oracle:
            snapshot = systems[system_names[0]].snapshot()
            now = count_embeddings(snapshot, query)
            assert prev_count is not None
            if delta != now - prev_count:
                raise ConsistencyError(
                    f"batch {k}: systems report ΔM={delta} but the oracle "
                    f"recount gives {now - prev_count}"
                )
            prev_count = now
        report.delta_per_batch.append(delta)
    return report


# ----------------------------------------------------------------------
# Shared-rulebook parity verification
# ----------------------------------------------------------------------
@dataclass
class RulebookParityReport:
    """Outcome of one shared-vs-independent rulebook verification."""

    num_queries: int
    num_batches: int
    aliases: dict[str, str] = field(default_factory=dict)
    delta_per_batch: list[int] = field(default_factory=list)

    @property
    def total_delta(self) -> int:
        return sum(self.delta_per_batch)

    def describe(self) -> str:
        dedup = f", {len(self.aliases)} deduped as isomorphic aliases" if self.aliases else ""
        return (
            f"shared trie matches independent per-query execution on "
            f"{self.num_queries} queries over "
            f"{self.num_batches} batches{dedup}; total ΔM = {self.total_delta:+d}"
        )


def _counters_equal(a, b) -> bool:
    if a.summary() != b.summary():
        return False
    ha, hb = a.vertex_access_counts(), b.vertex_access_counts()
    n = max(ha.size, hb.size)
    return bool(
        np.array_equal(
            np.pad(ha, (0, n - ha.size)), np.pad(hb, (0, n - hb.size))
        )
    )


def verify_rulebook(
    initial_graph: StaticGraph,
    queries: list[QueryGraph],
    batches: list[UpdateBatch],
    *,
    seed: int = 0,
    conflict_mode: str | None = None,
    engine_kwargs: dict | None = None,
    legs: dict | None = None,
) -> RulebookParityReport:
    """Shared-trie vs per-query-independent parity spec (the rulebook
    analog of :func:`verify_stream`).

    Runs one engine on a shared :class:`~repro.core.multiquery.Rulebook` and
    one independent (``shared=False``) engine per *leg* over the same stream
    — ``legs`` maps a label to a function applied to the fresh independent
    engine (default: one untouched leg; parity suites add one on the
    reference kernels via ``repro.testing.use_reference_kernels``) — and
    raises :class:`ConsistencyError` unless, per batch:

    * every query's signed ΔM is identical across all legs;
    * every *representative* query's ``MatchStats`` and attributed access
      counters (channel bytes/transactions, compute/output ops, and the
      per-vertex access histogram) are **bit-identical** between the shared
      trie and every independent leg;
    * every alias's results mirror its representative's (the documented
      dedupe contract — ΔM is an isomorphism invariant).

    With the aggregate-invariant pre-filter enabled (``engine_kwargs=
    {"prefilter": "on"}``), the shared trie masks roots at *group*
    granularity while independent legs mask per plan, so stats/counter
    equality is relaxed to: identical ``signed_count``/``embeddings_found``
    plus the audit identity ``roots_processed + roots_skipped`` equal
    across legs with ``shared.roots_processed >= independent.
    roots_processed`` (the group OR keeps at least every root any member's
    own mask keeps).
    """
    from repro.core.engine import GCSMEngine
    from repro.core.multiquery import Rulebook
    from repro.core.prefilter import normalize_prefilter

    require(len(batches) >= 1, "need at least one batch")
    kwargs = dict(engine_kwargs or {})
    prefilter_on = normalize_prefilter(kwargs.get("prefilter")) != "off"
    if conflict_mode is not None:
        kwargs["conflict_mode"] = conflict_mode
    shared_engine = GCSMEngine(initial_graph, Rulebook(queries), seed=seed, **kwargs)
    indep_engines = {}
    for ex, setup in (legs or {"default": None}).items():
        engine = GCSMEngine(
            initial_graph, Rulebook(queries, shared=False), seed=seed, **kwargs
        )
        indep_engines[ex] = setup(engine) if setup is not None else engine
    report = RulebookParityReport(
        num_queries=len(queries), num_batches=len(batches),
        aliases=shared_engine.query.aliases,
    )
    for k, batch in enumerate(batches):
        shared_res = shared_engine.process_batch(batch)
        for ex, engine in indep_engines.items():
            indep_res = engine.process_batch(batch)
            if shared_res.delta_counts != indep_res.delta_counts:
                raise ConsistencyError(
                    f"batch {k}: shared trie vs independent[{ex}] disagree "
                    f"on ΔM: {shared_res.delta_counts} != {indep_res.delta_counts}"
                )
            for name, indep_stats in indep_res.match_stats.items():
                if name in report.aliases:
                    continue  # aliases mirror their representative
                shared_stats = shared_res.match_stats[name]
                if prefilter_on:
                    ok = (
                        shared_stats.signed_count == indep_stats.signed_count
                        and shared_stats.embeddings_found
                        == indep_stats.embeddings_found
                        and shared_stats.roots_processed
                        + shared_stats.roots_skipped
                        == indep_stats.roots_processed
                        + indep_stats.roots_skipped
                        and shared_stats.roots_processed
                        >= indep_stats.roots_processed
                    )
                    if not ok:
                        raise ConsistencyError(
                            f"batch {k}: prefiltered stats diverge for {name} "
                            f"vs independent[{ex}]: "
                            f"{vars(shared_stats)} != {vars(indep_stats)}"
                        )
                    continue  # counters legitimately differ under masking
                if vars(shared_stats) != vars(indep_stats):
                    raise ConsistencyError(
                        f"batch {k}: stats diverge for {name} vs "
                        f"independent[{ex}]: "
                        f"{vars(shared_stats)} != {vars(indep_stats)}"
                    )
                assert shared_res.match_counters_by_query is not None
                assert indep_res.match_counters_by_query is not None
                if not _counters_equal(
                    shared_res.match_counters_by_query[name],
                    indep_res.match_counters_by_query[name],
                ):
                    raise ConsistencyError(
                        f"batch {k}: attributed counters diverge for {name} "
                        f"vs independent[{ex}]"
                    )
        report.delta_per_batch.append(shared_res.delta_count)
    return report


# ----------------------------------------------------------------------
# Differential fuzzing
# ----------------------------------------------------------------------

#: Every system the fuzzer cross-checks by default — GCSM on one device and
#: on a 2-device fleet, the pipelined schedule (same results, overlapped
#: stages) on one device and on a fleet, all four GPU baselines, the CPU
#: loop, RapidFlow, the prefiltered GCSM/pipelined variants (certified skips
#: must be invisible in ΔM), and a 4-device fleet (a 4-way root cover).
DEFAULT_FUZZ_SYSTEMS = (
    "GCSM", "GCSM@2", "Pipelined", "Pipelined@2", "ZC", "UM", "Naive", "VSGM",
    "CPU", "RapidFlow", "GCSM+prefilter", "Pipelined+prefilter", "GCSM@4",
)

#: Queries the fuzz cases rotate through (kept small: the oracle recounts
#: embeddings from scratch after every batch).
_FUZZ_QUERIES = ("Q1", "Q2", "Q4")


@dataclass
class FuzzReport:
    """Aggregate outcome of a differential fuzzing run."""

    num_cases: int
    systems: list[str]
    conflict_mode: str
    total_batches: int = 0
    total_updates: int = 0
    total_effective: int = 0
    total_delta: int = 0
    anomalies: CanonicalReport = field(
        default_factory=lambda: CanonicalReport(mode="aggregate")
    )
    case_seeds: list[int] = field(default_factory=list)

    def describe(self) -> str:
        a = self.anomalies
        return (
            f"fuzz: {self.num_cases} adversarial cases x {len(self.systems)} "
            f"systems agree with the oracle (mode={self.conflict_mode}); "
            f"{self.total_updates} raw updates -> {self.total_effective} "
            f"effective over {self.total_batches} batches "
            f"(absorbed {a.duplicate_inserts} dup-insert, "
            f"{a.phantom_deletes} phantom-delete, "
            f"{a.intra_batch_dropped} intra-batch); "
            f"total ΔM = {self.total_delta:+d}"
        )


def fuzz_verify(
    num_cases: int,
    *,
    systems: list[str] | None = None,
    seed: int = 0,
    conflict_mode: str = DEFAULT_CONFLICT_MODE,
    num_batches: int = 4,
    batch_size: int = 16,
    verbose: bool = False,
) -> FuzzReport:
    """Differential stream fuzzing: ``num_cases`` adversarial streams.

    Each case draws a small random labeled graph, a catalog query, and an
    adversarial stream, then runs every system batch-by-batch with the
    brute-force oracle and per-batch store-invariant checks enabled.  Any
    ΔM disagreement, oracle mismatch, classification divergence, or store
    corruption raises :class:`ConsistencyError` annotated with the exact
    case seed so the failure replays deterministically.
    """
    from repro.query import QUERIES

    require(num_cases >= 1, "need at least one fuzz case")
    systems = list(systems or DEFAULT_FUZZ_SYSTEMS)
    report = FuzzReport(
        num_cases=num_cases, systems=systems, conflict_mode=conflict_mode,
    )
    master = np.random.default_rng(seed)
    for case in range(num_cases):
        case_seed = int(master.integers(0, 2**31 - 1))
        report.case_seeds.append(case_seed)
        rng = np.random.default_rng(case_seed)
        # dense enough that the catalog queries have embeddings to gain and
        # lose (ΔM != 0), small enough that the oracle recount stays cheap
        n = int(rng.integers(24, 49))
        avg_degree = float(rng.uniform(6.0, 9.0))
        g0 = generators.erdos_renyi(
            n, avg_degree, num_labels=3, seed=np.random.default_rng(case_seed)
        )
        query = QUERIES[_FUZZ_QUERIES[case % len(_FUZZ_QUERIES)]]
        batches = generate_adversarial_stream(
            g0, num_batches=num_batches, batch_size=batch_size,
            seed=np.random.default_rng(case_seed + 1),
        )
        try:
            case_report = verify_stream(
                systems, g0, query, batches,
                against_oracle=True, seed=case_seed,
                conflict_mode=conflict_mode, check_invariants=True,
            )
        except ConsistencyError as exc:
            raise ConsistencyError(
                f"fuzz case {case} (seed={case_seed}, query={query.name}, "
                f"n={n}): {exc}"
            ) from exc
        report.total_batches += case_report.num_batches
        report.total_delta += case_report.total_delta
        assert case_report.anomalies is not None
        report.anomalies.merge(case_report.anomalies)
        report.total_updates += case_report.anomalies.input_size
        report.total_effective += case_report.anomalies.output_size
        if verbose:
            print(f"  case {case} (seed={case_seed}): {case_report.describe()}")
    return report
