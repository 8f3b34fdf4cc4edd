"""Pipelined execution: schedule math and engine parity."""

import numpy as np
import pytest

from repro.core.engine import GCSMEngine
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import UpdateBatch, derive_stream, generate_adversarial_stream
from repro.gpu.clock import PipelineClock, TimeBreakdown
from repro.query import QueryGraph
from repro.testing.reference import count_embeddings

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


def PipelinedEngine(graph, query, **settings):
    return GCSMEngine(graph, query, schedule="pipelined", **settings)


def bd(update=0.0, estimate=0.0, pack=0.0, match=0.0, reorg=0.0, comm=0.0):
    return TimeBreakdown(
        update_ns=update, estimate_ns=estimate, pack_ns=pack,
        match_ns=match, reorg_ns=reorg, comm_ns=comm,
    )


class TestTimeBreakdown:
    def test_pipelined_ns_falls_back_to_total_when_serial(self):
        b = bd(update=1.0, match=5.0, reorg=2.0)
        assert b.critical_path_ns == 0.0
        assert b.pipelined_ns == b.total_ns == 8.0

    def test_pipelined_ns_is_critical_path_when_annotated(self):
        b = bd(update=1.0, match=5.0, reorg=2.0)
        b.critical_path_ns = 6.0
        assert b.pipelined_ns == 6.0

    def test_add_and_scaled_carry_pipeline_fields(self):
        a = bd(update=1.0, match=2.0)
        a.critical_path_ns, a.fill_ns, a.drain_ns = 2.5, 0.5, 0.25
        b = bd(estimate=3.0, reorg=4.0)
        b.critical_path_ns = 1.5
        s = a + b
        assert s.update_ns == 1.0 and s.estimate_ns == 3.0
        assert s.critical_path_ns == 4.0
        assert s.fill_ns == 0.5 and s.drain_ns == 0.25
        h = s.scaled(0.5)
        assert h.critical_path_ns == 2.0
        assert h.fill_ns == 0.25 and h.drain_ns == 0.125


class TestPipelineClockSchedule:
    def test_stage_resource_classes(self):
        # two batches of equal stages: the host stages of a batch run back
        # to back on one lane, batch 1's host prep overlaps batch 0's match
        # (gpu lane) and batch 0's all-reduce overlaps batch 1's match (peer)
        clock = PipelineClock()
        stages = dict(update=1, estimate=1, pack=1, match=10, reorg=1, comm=5)
        first = clock.advance(bd(**stages))
        # the host lane ran the four host stages without a gap; match
        # started when pack ended (a fill of the whole prep), the all-reduce
        # when match ended
        assert (clock.cpu_ns, clock.gpu_ns, clock.peer_ns) == (4.0, 13.0, 18.0)
        assert first.fill_ns == 3.0
        second = clock.advance(bd(**stages))
        # batch 1's host stages follow batch 0's reorganize and end (at 7)
        # while batch 0 still matches, so its match follows batch 0's with
        # no fill; batch 0's all-reduce (13-18) overlapped it and batch 1's
        # follows it
        assert (clock.cpu_ns, clock.gpu_ns, clock.peer_ns) == (8.0, 23.0, 28.0)
        assert second.fill_ns == 0.0
        assert second.critical_path_ns == 10.0

    def test_single_batch_has_no_overlap_benefit_beyond_reorg(self):
        # one batch: match overlaps only reorganize
        clock = PipelineClock()
        sched = clock.advance(bd(update=1, estimate=2, pack=3, match=10, reorg=4))
        # match waits for pack, fill = full prep time
        assert sched.fill_ns == 6.0
        assert clock.gpu_ns == 16.0
        # reorganize does NOT wait for match (the kernel's epoch is
        # double-buffered): the CPU lane runs on contiguously to 10
        assert clock.cpu_ns == 10.0
        # drain = tail past the last CPU stage
        assert sched.drain_ns == 6.0
        assert clock.makespan_ns == 16.0
        assert clock.serial_ns == 20.0

    def test_gpu_bound_steady_state(self):
        # prep is cheap, match dominates: makespan -> prep0 + sum(match)
        clock = PipelineClock()
        for _ in range(5):
            clock.advance(bd(update=1, estimate=1, pack=1, match=100, reorg=1))
        assert clock.makespan_ns == pytest.approx(3 + 5 * 100)
        # fill bubble only from batch 0's prep
        assert clock.fill_ns == pytest.approx(3.0)
        report = clock.report()
        assert report.serial_ns == pytest.approx(5 * 104)
        assert report.speedup == pytest.approx(520.0 / 503.0)
        assert report.overlap_ns == pytest.approx(report.serial_ns - report.makespan_ns)

    def test_balanced_pipeline_approaches_2x(self):
        # CPU and GPU lanes equally loaded: overlap hides almost half the work
        clock = PipelineClock()
        for _ in range(5):
            clock.advance(bd(update=1, estimate=1, pack=1, match=4, reorg=1))
        assert clock.makespan_ns == pytest.approx(3 + 5 * 4)
        assert clock.report().speedup > 1.5

    def test_cpu_bound_steady_state_has_no_gpu_wait_except_fill(self):
        # prep dominates: the device always waits on prep (all fill, no win)
        clock = PipelineClock()
        for _ in range(4):
            clock.advance(bd(update=10, estimate=10, pack=10, match=1, reorg=10))
        # CPU lane is the makespan: 4 * 40
        assert clock.makespan_ns == pytest.approx(160.0)
        assert clock.report().speedup == pytest.approx(164.0 / 160.0)

    def test_critical_paths_sum_to_makespan(self):
        rng = np.random.default_rng(0)
        clock = PipelineClock()
        cps = []
        for _ in range(20):
            b = bd(*rng.uniform(0.0, 10.0, size=6))
            cps.append(clock.annotate(b).critical_path_ns)
            assert b.critical_path_ns == cps[-1]
            assert b.pipelined_ns == cps[-1] or cps[-1] == 0.0
        assert sum(cps) == pytest.approx(clock.makespan_ns)
        assert clock.makespan_ns <= clock.serial_ns

    def test_drain_is_last_batch_tail_not_accumulated(self):
        clock = PipelineClock()
        clock.advance(bd(pack=1, match=50, reorg=1))
        clock.advance(bd(pack=1, match=50, reorg=1))
        # stream drain equals the *last* batch's tail, not the sum of tails
        last_tail = clock.gpu_ns - clock.cpu_ns
        assert clock.drain_ns == pytest.approx(last_tail)

    def test_comm_follows_match_on_peer_lane(self):
        clock = PipelineClock()
        s = clock.advance(bd(pack=1, match=5, comm=3))
        assert clock.peer_ns == clock.gpu_ns + 3 == 9.0
        assert s.critical_path_ns == clock.makespan_ns == 9.0


def parity_workload(seed=0, num_batches=4):
    g = erdos_renyi(36, 6.0, num_labels=2, seed=seed)
    batches = generate_adversarial_stream(
        g, num_batches=num_batches, batch_size=12, seed=seed + 1
    )
    return g, batches


def assert_results_equal(a, b):
    assert a.delta_count == b.delta_count
    assert a.match_stats == b.match_stats
    assert a.match_counters.summary() == b.match_counters.summary()
    assert np.array_equal(a.cached_vertices, b.cached_vertices)
    assert a.cache_bytes == b.cache_bytes
    assert (a.cache_hits, a.cache_misses) == (b.cache_hits, b.cache_misses)
    # every serial stage time equal; only the pipeline fields may differ
    for f in ("update_ns", "estimate_ns", "pack_ns", "match_ns",
              "reorg_ns", "comm_ns"):
        assert getattr(a.breakdown, f) == getattr(b.breakdown, f)


class TestEngineParity:
    def test_stream_bit_parity_with_serial_engine(self):
        g, batches = parity_workload(seed=11)
        serial = GCSMEngine(g, TRIANGLE, seed=3)
        piped = PipelinedEngine(g, TRIANGLE, seed=3)
        ser = [serial.process_batch(b) for b in batches]
        pip = piped.process_stream(batches)
        for a, b in zip(ser, pip):
            assert_results_equal(a, b)
            assert a.breakdown.critical_path_ns == 0.0  # serial: never annotated
            assert b.breakdown.critical_path_ns > 0.0
        # identical final stores
        sa, sb = serial.snapshot(), piped.snapshot()
        assert np.array_equal(sa.labels, sb.labels)
        assert sorted(map(tuple, sa.edge_array())) == \
            sorted(map(tuple, sb.edge_array()))
        piped.graph.check_invariants()

    def test_per_batch_entrypoint_matches_stream_entrypoint(self):
        g, batches = parity_workload(seed=12)
        a = PipelinedEngine(g, TRIANGLE, seed=5)
        b = PipelinedEngine(g, TRIANGLE, seed=5)
        ra = [a.process_batch(x) for x in batches]
        rb = b.process_stream(batches)
        for x, y in zip(ra, rb):
            assert_results_equal(x, y)

    def test_overlap_is_real_and_critical_paths_sum_to_makespan(self):
        g, batches = parity_workload(seed=13, num_batches=5)
        piped = PipelinedEngine(g, TRIANGLE, seed=7)
        results = piped.process_stream(batches)
        report = piped.schedule_report()
        assert report.num_batches == len(batches)
        assert report.makespan_ns < report.serial_ns  # nonzero overlap
        assert report.overlap_ns > 0.0
        assert report.speedup > 1.0
        total_cp = sum(r.breakdown.critical_path_ns for r in results)
        assert total_cp == pytest.approx(report.makespan_ns, rel=1e-9)
        serial_total = sum(r.breakdown.total_ns for r in results)
        assert serial_total == pytest.approx(report.serial_ns, rel=1e-9)

    def test_delta_counts_match_oracle_through_pipeline(self):
        g = erdos_renyi(40, 5.0, num_labels=2, seed=21)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=16, seed=21)
        piped = PipelinedEngine(g0, TRIANGLE, seed=2)
        prev = count_embeddings(g0, TRIANGLE)
        for result in piped.process_stream(batches[:4]):
            prev += result.delta_count
        assert prev == count_embeddings(piped.snapshot(), TRIANGLE)

    def test_engine_name_registered(self):
        from repro.core.baselines import SYSTEM_NAMES, make_system

        assert "Pipelined" in SYSTEM_NAMES
        g, _ = parity_workload()
        system = make_system("Pipelined", g, TRIANGLE, seed=0)
        assert system.clock is not None and GCSMEngine(g, TRIANGLE).clock is None
        assert system.config.schedule == "pipelined"

    def test_empty_batch_rejected(self):
        g, _ = parity_workload()
        piped = PipelinedEngine(g, TRIANGLE)
        with pytest.raises(ValueError):
            piped.process_batch(UpdateBatch(np.empty((0, 2)), np.empty(0)))


class TestMultiGpuPipeline:
    def test_pipeline_flag_annotates_breakdowns(self):
        g, batches = parity_workload(seed=31)
        plain = GCSMEngine(g, TRIANGLE, devices=2, seed=1)
        piped = PipelinedEngine(g, TRIANGLE, devices=2, seed=1)
        for b in batches[:3]:
            rp = plain.process_batch(b)
            rq = piped.process_batch(b)
            assert rp.delta_count == rq.delta_count
            assert rp.breakdown.critical_path_ns == 0.0
            assert rq.breakdown.critical_path_ns > 0.0
            assert rq.breakdown.pipelined_ns <= rq.breakdown.total_ns
        report = piped.schedule_report()
        assert report.num_batches == 3
        assert report.makespan_ns <= report.serial_ns

    def test_schedule_report_requires_pipeline_flag(self):
        g, _ = parity_workload()
        plain = GCSMEngine(g, TRIANGLE, devices=2, seed=1)
        with pytest.raises(ValueError):
            plain.schedule_report()
