"""End-to-end tests for the GCSM engine (the five-step pipeline of Fig. 3)."""

import functools

import numpy as np
import pytest

from repro.core.cache import CachedDeviceView, FrequencyCachePolicy
from repro.core.dcsr import DcsrCache
from repro.core.engine import GCSMEngine
from repro.graphs import StaticGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.multigpu.shard import ShardedDeviceView
from repro.query import QueryGraph
from repro.testing.reference import count_embeddings

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
TAILED = QueryGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 1, 1], name="tailed")


class TestCorrectness:
    @pytest.mark.parametrize("query", [TRIANGLE, TAILED], ids=lambda q: q.name)
    def test_stream_delta_counts_match_oracle(self, query):
        g = erdos_renyi(50, 5.0, num_labels=2, seed=1)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=16, seed=1)
        engine = GCSMEngine(g0, query, seed=2)
        prev = count_embeddings(g0, query)
        for batch in batches[:4]:
            result = engine.process_batch(batch)
            now = count_embeddings(engine.snapshot(), query)
            assert result.delta_count == now - prev
            prev = now
        assert engine.batches_processed == 4
        assert engine.total_delta == prev - count_embeddings(g0, query)

    def test_degree_policy_equally_correct(self):
        g = erdos_renyi(40, 5.0, num_labels=1, seed=3)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=12, seed=3)
        freq_engine = GCSMEngine(g0, TRIANGLE, policy="frequency", seed=4)
        deg_engine = GCSMEngine(g0, TRIANGLE, policy="degree", seed=4)
        for batch in batches[:3]:
            a = freq_engine.process_batch(batch)
            b = deg_engine.process_batch(batch)
            assert a.delta_count == b.delta_count  # caching never changes results

    def test_empty_batch_rejected(self):
        g = erdos_renyi(10, 3.0, seed=5)
        engine = GCSMEngine(g, TRIANGLE)
        with pytest.raises(ValueError):
            engine.process_batch(UpdateBatch(np.empty((0, 2)), np.empty(0)))

    def test_unknown_policy_rejected(self):
        g = erdos_renyi(10, 3.0, seed=5)
        with pytest.raises(ValueError):
            GCSMEngine(g, TRIANGLE, policy="magic")

    def test_policy_is_one_of_the_papers_two_names(self):
        """``"frequency"`` (GCSM) or ``"degree"`` (Naive): the hybrid extension
        is gone, and a policy object is refused like an unknown name."""
        g = erdos_renyi(10, 3.0, seed=5)
        for policy in ("hybrid", FrequencyCachePolicy()):
            with pytest.raises(ValueError, match="unknown cache policy"):
                GCSMEngine(g, TRIANGLE, policy=policy)

    def test_negative_vertex_id_never_reaches_the_store(self):
        # accepted, the batch wrote -1 into vertex 2's ΔN run (where it reads
        # as the deletion mark of vertex 0) and the next reorganize left the
        # mark count out of step
        g = erdos_renyi(30, 4.0, num_labels=1, seed=8)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=12, seed=8)
        engine, fresh = GCSMEngine(g0, TRIANGLE, seed=9), GCSMEngine(g0, TRIANGLE, seed=9)
        with pytest.raises(ValueError, match="negative vertex id in batch"):
            engine.process_batch(UpdateBatch([(-1, 2)], [1]))
        assert engine.graph.batch_open is False
        assert engine.snapshot() == g0
        engine.graph.check_invariants()
        assert (
            engine.process_batch(batches[0]).delta_count
            == fresh.process_batch(batches[0]).delta_count
        )
        engine.graph.check_invariants()


class TestPipelineArtifacts:
    def make_result(self, **kwargs):
        g = powerlaw_graph(800, 8.0, max_degree=80, num_labels=1, seed=6)
        g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=6)
        engine = GCSMEngine(g0, TRIANGLE, seed=7, **kwargs)
        return engine, engine.process_batch(batches[0])

    def test_breakdown_phases_populated(self):
        _, r = self.make_result()
        bd = r.breakdown
        assert bd.update_ns > 0
        assert bd.estimate_ns > 0  # frequency policy ran FE
        assert bd.pack_ns > 0
        assert bd.match_ns > 0
        assert bd.reorg_ns > 0
        assert bd.total_ns == pytest.approx(
            bd.update_ns + bd.estimate_ns + bd.pack_ns + bd.match_ns + bd.reorg_ns
        )

    def test_cache_artifacts(self):
        engine, r = self.make_result()
        assert r.cache_bytes <= engine.cache_budget_bytes + 64
        assert r.cached_vertices.size > 0
        assert set(np.unique(r.cached_vertices).tolist()) == set(r.cached_vertices.tolist())
        assert r.cache_hits + r.cache_misses > 0

    def test_estimation_attached(self):
        _, r = self.make_result()
        assert r.estimation is not None
        assert r.estimation.sampled_vertices.size >= r.cached_vertices.size

    def test_degree_policy_skips_estimation(self):
        _, r = self.make_result(policy="degree")
        assert r.estimation is None
        assert r.breakdown.estimate_ns == 0

    def test_cache_budget_respected(self):
        engine, r = self.make_result(cache_budget_bytes=500)
        assert r.cache_bytes <= 500 + 64

    def test_coverage_metric_bounds(self):
        _, r = self.make_result()
        for frac in (0.01, 0.05, 0.5, 1.0):
            assert 0.0 <= r.coverage(frac) <= 1.0
        # full-graph cache would give coverage 1; empty gives 0 when accessed
        assert r.coverage(1.0) <= 1.0

    def test_cpu_access_bytes_less_with_cache(self):
        """GCSM's zero-copy traffic must be below a cache-less run."""
        g = powerlaw_graph(800, 8.0, max_degree=80, num_labels=1, seed=6)
        g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=6)
        cached = GCSMEngine(g0, TRIANGLE, seed=7).process_batch(batches[0])
        uncached = GCSMEngine(
            g0, TRIANGLE, seed=7, cache_budget_bytes=0
        ).process_batch(batches[0])
        assert cached.cpu_access_bytes < uncached.cpu_access_bytes
        assert cached.delta_count == uncached.delta_count

    def test_process_stream(self):
        g = erdos_renyi(40, 4.0, num_labels=1, seed=8)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=10, seed=8)
        engine = GCSMEngine(g0, TRIANGLE, seed=9)
        results = engine.process_stream(batches[:3])
        assert len(results) == 3
        assert engine.batches_processed == 3

    def test_adaptive_walks_mode(self):
        g = erdos_renyi(40, 4.0, num_labels=1, seed=10)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=10, seed=10)
        engine = GCSMEngine(g0, TRIANGLE, adaptive_walks=True, num_walks=64, seed=11)
        r = engine.process_batch(batches[0])
        assert r.estimation is not None
        assert r.estimation.num_walks >= 64


class TestInitialMatch:
    def test_matches_oracle_snapshot(self):
        g = erdos_renyi(40, 5.0, num_labels=2, seed=20)
        engine = GCSMEngine(g, TRIANGLE, seed=21)
        count, sim_ns = engine.initial_match()
        assert count == count_embeddings(g, TRIANGLE)
        assert sim_ns > 0

    def test_rejects_open_batch(self):
        g = erdos_renyi(20, 3.0, seed=22)
        engine = GCSMEngine(g, TRIANGLE, seed=23)
        engine.graph.apply_batch(UpdateBatch([(0, 1)], [-1])
                                 if 1 in g.neighbors(0) else UpdateBatch([(0, 1)], [1]))
        with pytest.raises(ValueError):
            engine.initial_match()
        engine.graph.reorganize()
        engine.initial_match()  # works again once settled

    def test_initial_plus_stream_equals_final(self):
        g = erdos_renyi(40, 5.0, num_labels=1, seed=24)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=10, seed=24)
        engine = GCSMEngine(g0, TRIANGLE, seed=25)
        initial, _ = engine.initial_match()
        delta = sum(engine.process_batch(b).delta_count for b in batches)
        final, _ = engine.initial_match()
        assert initial + delta == final


@functools.lru_cache(maxsize=None)
def az_mixed_stream():
    """AZ under a stream that inserts and deletes in every batch, so a raise
    after the pre-filter's ``apply_batch`` leaves a delete overlay behind."""
    from repro.graphs import datasets

    return derive_stream(datasets.DATASETS["AZ"].build(0), num_updates=128,
                         batch_size=64, seed=1)


#: where a batch raises: after the update (in the pre-filter decision),
#: inside pack, inside the kernel's settle (the device views' reads; the
#: walk reads through the host view), after the store reorganized
FAULT_STAGES = ("update", "pack", "settle", "reorganized")
#: the configurations the one batch body runs under
FAULT_CONFIGS = ("serial", "pipelined", "devices=2", "rulebook")
#: a fleet's own fault: inside its one settle, the view's classify lets the
#: first shard's reads through and raises on the second's
SHARD_FAULT = "second shard"


def inject_fault(stage: str, engine: GCSMEngine, patch) -> None:
    def boom(*args):
        raise RuntimeError("injected")

    if stage == "update":
        decide = engine._prefilter
        patch.setattr(engine, "_prefilter", lambda *args: (decide(*args), boom()))
    elif stage == "pack":
        patch.setattr(DcsrCache, "build", boom)
    elif stage == "settle":
        patch.setattr(CachedDeviceView, "fetch_block", boom)
        patch.setattr(ShardedDeviceView, "fetch_block", boom)
    elif stage == SHARD_FAULT:
        classify = ShardedDeviceView.classify

        def on_the_second_shard(view, vertices, lengths, reader):
            if (reader == 1).any():
                first = reader == 0
                classify(view, vertices[first], lengths[first], reader[first])
                boom()
            return classify(view, vertices, lengths, reader)

        patch.setattr(ShardedDeviceView, "classify", on_the_second_shard)
    else:
        reorganize = engine.graph.reorganize
        patch.setattr(engine.graph, "reorganize", lambda: (reorganize(), boom()))


def fault_engine(config: str, prefilter: str) -> GCSMEngine:
    from repro.core.multiquery import Rulebook
    from repro.query import query_by_name

    g0, _ = az_mixed_stream()
    q1 = query_by_name("Q1")
    if config == "rulebook":
        return GCSMEngine(g0, Rulebook([q1, query_by_name("Q2")]), prefilter=prefilter)
    settings = {"pipelined": {"schedule": "pipelined"}, "devices=2": {"devices": 2},
                "devices=2 pipelined": {"devices": 2, "schedule": "pipelined"}}
    return GCSMEngine(g0, q1, prefilter=prefilter, **settings.get(config, {}))


def check_fault_settles(stage: str, config: str, prefilter: str) -> None:
    """A batch that raises at ``stage`` leaves the engine settled and usable:
    the store closed and valid, the index equal to a rebuild, the graph a
    twin's that ran the batch, the next batch's ΔM the twin's, and a
    pipelined clock counting only the batches that completed."""
    _, batches = az_mixed_stream()
    engine, twin = fault_engine(config, prefilter), fault_engine(config, prefilter)
    with pytest.MonkeyPatch.context() as patch:
        inject_fault(stage, engine, patch)
        with pytest.raises(RuntimeError, match="injected"):
            engine.process_batch(batches[0])
    first = twin.process_batch(batches[0])
    assert first.prefilter is None or not first.prefilter.batches_skipped
    assert engine.graph.batch_open is False
    engine.graph.check_invariants()
    if engine.prefilter_index is not None:
        engine.prefilter_index.assert_consistent()
    assert np.array_equal(engine.snapshot().edge_array(), twin.snapshot().edge_array())
    after, theirs = engine.process_batch(batches[1]), twin.process_batch(batches[1])
    assert after.delta_count == theirs.delta_count
    if stage == SHARD_FAULT:  # nothing of the failed settle reaches the next batch
        for name in ("match_stats", "load_balance", "comm", "cache_hits", "cache_misses"):
            assert getattr(after, name) == getattr(theirs, name), name
        assert after.match_counters.summary() == theirs.match_counters.summary()
    if engine.clock is not None:
        assert engine.schedule_report().num_batches == 1


class TestSettleOnFailure:
    """Any exception raised after the update was applied leaves the store
    reorganized and the pre-filter index rebuilt: the engine stays usable."""

    @staticmethod
    def _az_insert_stream():
        from repro.graphs import datasets
        from repro.query import query_by_name

        graph = datasets.DATASETS["AZ"].build(0)
        g0, batches = derive_stream(
            graph, num_updates=128, batch_size=64, insert_probability=1.0, seed=1
        )
        return g0, batches, query_by_name("Q1")

    @pytest.mark.parametrize("system", ["VSGM", "RapidFlow"])
    @pytest.mark.parametrize("prefilter", ["off", "on"])
    def test_failed_batch_leaves_engine_settled(self, system, prefilter, monkeypatch):
        from repro.core import rapidflow
        from repro.core.baselines import VsgmCapacityError, make_system
        from repro.core.rapidflow import IndexMemoryError
        from repro.gpu import DeviceConfig

        g0, batches, query = self._az_insert_stream()
        if system == "VSGM":  # an undersized device buffer
            settings = dict(device=DeviceConfig(
                global_memory_bytes=20_000,
                cache_buffer_bytes=10_000,
            ))
            error = VsgmCapacityError
        else:  # a budget just above the initial index: inserts outgrow it
            index_bytes = make_system(system, g0, query).placement.index_bytes
            monkeypatch.setattr(rapidflow, "DEFAULT_MEMORY_BUDGET_BYTES", index_bytes + 8)
            settings = {}
            error = IndexMemoryError
        engine = make_system(system, g0, query, prefilter=prefilter, **settings)
        twin = GCSMEngine(g0, query)  # the post-batch graph
        with pytest.raises(error):
            engine.process_batch(batches[0])
        twin.process_batch(batches[0])
        assert engine.graph.batch_open is False
        assert np.array_equal(
            engine.snapshot().edge_array(), twin.snapshot().edge_array()
        )
        if engine.prefilter_index is not None:
            engine.prefilter_index.assert_consistent()
        # the next batch is accepted (it used to die with "previous batch
        # not reorganized yet") and fails or succeeds on its own merits
        try:
            engine.process_batch(batches[1])
        except error:
            pass
        assert engine.graph.batch_open is False

    @pytest.mark.parametrize("stage", ["prepare", "match", "second-depth"])
    @pytest.mark.parametrize("prefilter", ["off", "on"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
    def test_failed_rulebook_batch_leaves_engine_settled(
        self, shared, prefilter, stage, monkeypatch
    ):
        """The rulebook runs on the same skeleton, so a raise after the
        update settles it too (its private pipeline used to leave the batch
        open: "previous batch not reorganized yet").  ``second-depth`` lets
        the first launch through and fails the second: the one driver is
        abandoned with a half-advanced frontier and an unsettled log."""
        import repro.core.matching as matching
        from repro.core.multiquery import MultiQueryEngine
        from repro.query import query_by_name

        g0, batches, q1 = self._az_insert_stream()

        def build():
            return MultiQueryEngine(
                g0, [q1, query_by_name("Q2")], shared=shared, prefilter=prefilter
            )

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        engine, twin = build(), build()
        with monkeypatch.context() as patch:
            if stage == "prepare":
                patch.setattr(engine.policy, "select", boom)
            elif stage == "match":  # the one driver expands through the kernel
                patch.setattr(matching, "expand_rows", boom)
            else:
                expand_rows, launches = matching.expand_rows, []

                def second_raises(*args):
                    launches.append(args)
                    return boom() if len(launches) == 2 else expand_rows(*args)

                patch.setattr(matching, "expand_rows", second_raises)
            with pytest.raises(RuntimeError, match="injected"):
                engine.process_batch(batches[0])
        twin.process_batch(batches[0])
        result = engine.process_batch(batches[1])  # accepted: the store settled
        assert engine.graph.batch_open is False
        if engine.prefilter_index is not None:
            engine.prefilter_index.assert_consistent()  # equals a rebuild
        assert result.delta_counts == twin.process_batch(batches[1]).delta_counts


    @pytest.mark.parametrize("stage", ["match", "second-depth"])
    @pytest.mark.parametrize("schedule", ["serial", "pipelined"])
    @pytest.mark.parametrize("prefilter", ["off", "on"])
    def test_failed_single_query_expansion_leaves_engine_settled(
        self, prefilter, schedule, stage, monkeypatch
    ):
        """A single query's kernel joins run in ``prepare``, ahead of the
        walk that reads them, and every launch still goes through the one
        patchable ``matching.expand_rows``: a raise in the first launch or
        the second is inside the settle guard, whatever the schedule."""
        import repro.core.matching as matching

        g0, batches, q1 = self._az_insert_stream()
        engine = GCSMEngine(g0, q1, prefilter=prefilter, schedule=schedule)
        twin = GCSMEngine(g0, q1, prefilter=prefilter)
        expand_rows, launches = matching.expand_rows, []

        def failing(*args):
            launches.append(args)
            if len(launches) == (1 if stage == "match" else 2):
                raise RuntimeError("injected")
            return expand_rows(*args)

        with monkeypatch.context() as patch:
            patch.setattr(matching, "expand_rows", failing)
            with pytest.raises(RuntimeError, match="injected"):
                engine.process_batch(batches[0])
        twin.process_batch(batches[0])
        result = engine.process_batch(batches[1])  # accepted: the store settled
        assert engine.graph.batch_open is False
        if engine.prefilter_index is not None:
            engine.prefilter_index.assert_consistent()
        assert result.delta_count == twin.process_batch(batches[1]).delta_count
        assert np.array_equal(engine.snapshot().edge_array(), twin.snapshot().edge_array())

    @pytest.mark.parametrize("prefilter", ["off", "on"])
    @pytest.mark.parametrize("config", FAULT_CONFIGS)
    @pytest.mark.parametrize("stage", FAULT_STAGES)
    def test_a_raise_at_any_stage_boundary_settles(self, stage, config, prefilter):
        check_fault_settles(stage, config, prefilter)

    @pytest.mark.parametrize("prefilter", ["off", "on"])
    @pytest.mark.parametrize("config", ["devices=2", "devices=2 pipelined"])
    def test_a_raise_on_the_second_shard_settles(self, config, prefilter):
        """A raise inside the fleet's one settle, on the second shard's
        reads after the first shard's went through, settles like any other:
        the store closed, the index a rebuild's, the next batch a fresh
        fleet's — ΔM, stats, counters and every shard's report."""
        check_fault_settles(SHARD_FAULT, config, prefilter)


class TestEngineConfig:
    """One frozen, once-validated record of settings; one validation site."""

    def test_contradictions_rejected_at_construction(self):
        from repro.core.engine import EngineConfig

        for bad in (
            dict(placement="texture"),
            dict(schedule="eager"),
            dict(prefilter="maybe"),
            dict(devices=0),
            dict(devices=2, placement="zero-copy"),
            dict(devices=1, placement="khop"),
            dict(schedule="pipelined", placement="indexed"),
        ):
            with pytest.raises(ValueError):
                EngineConfig(**bad)
        with pytest.raises(TypeError):  # the kernels are not options
            EngineConfig(executor="recursive")

    def test_rulebook_refusals_and_khop_radius(self):
        """What a rulebook cannot compose with is refused once, at
        construction; the k-hop radius is the largest member diameter."""
        from repro.core.multiquery import Rulebook

        path4 = QueryGraph(4, [(0, 1), (1, 2), (2, 3)], name="path4")
        g = erdos_renyi(30, 4.0, num_labels=1, seed=1)
        with pytest.raises(ValueError, match="placement='indexed'"):
            GCSMEngine(g, Rulebook([TRIANGLE, path4]), placement="indexed")
        with pytest.raises(ValueError, match="adaptive_walks"):
            GCSMEngine(g, Rulebook([TRIANGLE, path4]), adaptive_walks=True)
        engine = GCSMEngine(g, Rulebook([TRIANGLE, path4]), placement="khop")
        assert engine.placement.hops == path4.diameter() == 3 > TRIANGLE.diameter()

    def test_frozen_and_overridable(self):
        import dataclasses

        from repro.core.engine import EngineConfig

        config = EngineConfig(prefilter="on", seed=5)
        assert config.prefilter == "invariant"  # normalized once
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 6
        g = erdos_renyi(30, 4.0, num_labels=1, seed=1)
        engine = GCSMEngine(g, TRIANGLE, config, schedule="pipelined")
        assert engine.config.schedule == "pipelined" and engine.config.seed == 5
        assert config.schedule == "serial"  # the caller's config is untouched

    def test_settable_options_are_pinned(self):
        """13 engine fields plus the rulebook's ``shared``: an option added or
        brought back shows up here.  Execution runs on one thread, so neither
        the engine nor the service takes a threading knob."""
        import dataclasses
        import inspect

        from repro.bench.harness import run_service
        from repro.core.engine import EngineConfig
        from repro.core.multiquery import Rulebook
        from repro.service import MatchService

        fields = [f.name for f in dataclasses.fields(EngineConfig)]
        assert fields == [
            "device", "placement", "policy", "num_walks", "adaptive_walks",
            "cache_budget_bytes", "survival", "seed", "conflict_mode", "prefilter",
            "strict_capacity", "schedule", "devices",
        ]
        assert list(inspect.signature(Rulebook).parameters) == ["queries", "shared"]
        for fn in (MatchService, run_service):
            assert not {"threaded", "workers"} & set(inspect.signature(fn).parameters)

    def test_dropped_engine_is_freed_without_the_cycle_collector(self):
        """An engine holds the whole store; services and benchmarks build
        engines in a loop, so no plug may keep one alive through a cycle."""
        import gc
        import weakref

        g = erdos_renyi(30, 4.0, num_labels=1, seed=1)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=8, seed=1)
        gc.disable()
        try:
            for settings in ({}, {"devices": 2}, {"schedule": "pipelined"},
                             {"placement": "khop"}, {"placement": "indexed"}):
                engine = GCSMEngine(g0, TRIANGLE, **settings)
                engine.process_batch(batches[0])
                ref = weakref.ref(engine)
                del engine
                assert ref() is None, settings
        finally:
            gc.enable()

    def test_system_rows_compose_with_fleet_and_schedule(self):
        from repro.core.baselines import SYSTEMS, make_system

        g = erdos_renyi(40, 5.0, num_labels=1, seed=2)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=12, seed=2)
        expected = [GCSMEngine(g0, TRIANGLE, seed=3).process_batch(b).delta_count
                    for b in batches[:2]]
        for name, row in SYSTEMS.items():
            fans_out = row.get("placement", "cached") == "cached"
            if not fans_out:
                with pytest.raises(ValueError, match="placement='cached'"):
                    make_system(name, g0, TRIANGLE, devices=2)
                continue
            engine = make_system(name, g0, TRIANGLE, seed=3, devices=2)
            assert engine.num_devices == 2 and engine.fleet is not None
            got = [r.delta_count for r in engine.process_stream(batches[:2])]
            assert got == expected, name
