"""Service layer: queues, admission, scheduling, metrics, CLI."""

import json

import pytest

from repro.bench.harness import run_service
from repro.cli import main
from repro.service import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    SCHEDULERS,
    LatencyStats,
    MatchService,
    QueueFullError,
    ServiceReport,
    TenantQueue,
    make_tenant_workloads,
)

# small, fast workloads for every service test
WL = dict(num_batches=3, batch_size=8, graph_size=24, avg_degree=5.0)


def tiny_workloads(num_tenants=2, *, rate_per_sec=50.0, arrival="poisson",
                   seed=0, **kwargs):
    merged = {**WL, **kwargs}
    return make_tenant_workloads(
        num_tenants, rate_per_sec=rate_per_sec, arrival=arrival,
        seed=seed, **merged,
    )


def run(workloads, **kwargs):
    return MatchService(workloads, **kwargs).run()


class TestTenantQueue:
    def test_fifo_and_capacity(self):
        q = TenantQueue("t", capacity=2)
        q.push(1.0, 0)
        q.push(2.0, 1)
        assert len(q) == 2 and q.full
        with pytest.raises(QueueFullError) as exc:
            q.push(3.0, 2)
        assert exc.value.tenant == "t" and exc.value.capacity == 2
        assert q.pop() == (1.0, 0)
        assert q.shed_oldest() == (2.0, 1)
        with pytest.raises(ValueError):
            q.pop()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TenantQueue("t", capacity=0)


class TestWorkloads:
    def test_deterministic_given_seed(self):
        a = tiny_workloads(seed=7)
        b = tiny_workloads(seed=7)
        for wa, wb in zip(a, b):
            assert wa.arrival_ns == wb.arrival_ns
            assert wa.query.name == wb.query.name
            assert [x.edges.tolist() for x in wa.batches] == \
                [x.edges.tolist() for x in wb.batches]
        c = tiny_workloads(seed=8)
        assert a[0].arrival_ns != c[0].arrival_ns

    def test_priorities_default_descending(self):
        wls = tiny_workloads(3)
        assert [w.priority for w in wls] == [2, 1, 0]
        custom = tiny_workloads(2, priorities=[5, 9])
        assert [w.priority for w in custom] == [5, 9]
        with pytest.raises(ValueError):
            tiny_workloads(2, priorities=[1])

    def test_poisson_arrivals_strictly_increase(self):
        (w,) = tiny_workloads(1, num_batches=6)
        assert len(w.arrival_ns) == 6
        assert all(b > a for a, b in zip(w.arrival_ns, w.arrival_ns[1:]))

    def test_bursty_arrivals_are_clustered(self):
        (w,) = tiny_workloads(
            1, arrival="bursty", num_batches=8, rate_per_sec=10.0,
        )
        gaps = [b - a for a, b in zip(w.arrival_ns, w.arrival_ns[1:])]
        # intra-burst spacing is exactly 1 us
        assert sum(1 for g in gaps if g == pytest.approx(1_000.0)) >= 4

    def test_closed_loop_trace_has_single_seed_arrival(self):
        (w,) = tiny_workloads(1, arrival="closed", num_batches=5)
        assert w.num_batches == 5
        assert len(w.arrival_ns) == 1

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError):
            tiny_workloads(1, arrival="uniform")
        assert set(ARRIVAL_PROCESSES) == {"poisson", "bursty", "closed"}


class TestAdmission:
    def overload(self, **kwargs):
        # everything arrives at ~t=0: queue_capacity=1 forces the policy to act
        wls = tiny_workloads(2, rate_per_sec=1e9, num_batches=4)
        return run(wls, queue_capacity=1, **kwargs)

    def test_reject_drops_arrivals(self):
        report = self.overload(admission="reject")
        rejected = sum(t["rejected"] for t in report.tenants)
        assert rejected > 0
        for t in report.tenants:
            assert t["shed"] == 0
            assert t["completed"] + t["rejected"] == t["arrived"]

    def test_shed_oldest_evicts_queue_head(self):
        report = self.overload(admission="shed-oldest")
        shed = sum(t["shed"] for t in report.tenants)
        assert shed > 0
        for t in report.tenants:
            assert t["rejected"] == 0
            assert t["completed"] + t["shed"] == t["arrived"]
            assert t["shed_rate"] == pytest.approx(t["shed"] / t["arrived"])

    def test_backpressure_stalls_but_never_drops(self):
        report = self.overload(admission="backpressure")
        for t in report.tenants:
            assert t["rejected"] == 0 and t["shed"] == 0
            assert t["completed"] == 4  # every batch eventually served
        assert sum(t["stall_ns"] for t in report.tenants) > 0

    def test_ample_capacity_never_triggers_admission(self):
        for admission in ADMISSION_POLICIES:
            report = run(
                tiny_workloads(2, rate_per_sec=1e9, num_batches=4),
                queue_capacity=16, admission=admission,
            )
            assert report.completed == 8
            assert report.max_shed_rate == 0.0


class TestScheduling:
    def test_priority_tenant_waits_less_under_contention(self):
        # one device, simultaneous overload: tenant0 has the highest priority
        wls = tiny_workloads(3, rate_per_sec=1e9, num_batches=4)
        report = run(wls, queue_capacity=8, scheduler="priority",
                     admission="backpressure")
        waits = {t["name"]: t["queue_wait"]["p50_ns"] for t in report.tenants}
        assert waits["tenant0"] < waits["tenant2"]

    def test_fair_round_robin_interleaves(self):
        wls = tiny_workloads(3, rate_per_sec=1e9, num_batches=4)
        report = run(wls, queue_capacity=8, scheduler="fair",
                     admission="backpressure")
        done = [t["completed"] for t in report.tenants]
        assert done == [4, 4, 4]
        # under fair sharing, p50 waits are in the same ballpark for everyone
        waits = [t["queue_wait"]["p50_ns"] for t in report.tenants]
        assert max(waits) < 3.5 * (min(waits) + 1.0)

    def test_more_devices_shrink_makespan(self):
        wls = tiny_workloads(3, rate_per_sec=1e9, num_batches=3)
        one = run(wls, num_devices=1, admission="backpressure",
                  queue_capacity=8)
        wls = tiny_workloads(3, rate_per_sec=1e9, num_batches=3)
        three = run(wls, num_devices=3, admission="backpressure",
                    queue_capacity=8)
        assert three.makespan_ns < one.makespan_ns
        assert one.completed == three.completed == 9

    def test_unknown_scheduler_and_admission_rejected(self):
        wls = tiny_workloads(1)
        with pytest.raises(ValueError):
            MatchService(wls, scheduler="lifo")
        with pytest.raises(ValueError):
            MatchService(wls, admission="drop-newest")
        assert set(SCHEDULERS) == {"fair", "priority"}


class TestClosedLoop:
    def test_completion_driven_arrivals(self):
        wls = tiny_workloads(2, arrival="closed", num_batches=4,
                             think_ns=500.0)
        report = run(wls, queue_capacity=1)
        for t in report.tenants:
            assert t["arrived"] == t["completed"] == 4
            assert t["rejected"] == 0 and t["shed"] == 0
            # at most one outstanding batch: queue depth never exceeds 1
            assert t["queue_depth_max"] <= 1


class TestFaultIsolation:
    """A tenant whose batch raises loses that batch, nobody else anything:
    ``run()`` returns, the failure is counted in that tenant's report, and
    every other tenant's ΔM and completions are a fault-free run's."""

    @pytest.mark.parametrize("pipeline", [True, False], ids=["pipelined", "serial"])
    @pytest.mark.parametrize("arrival", ["poisson", "closed"])
    def test_a_raising_batch_is_that_tenants_loss_alone(self, pipeline, arrival):
        from repro.graphs.stream import BatchConflictError

        workloads = tiny_workloads(3, arrival=arrival, num_batches=4, think_ns=500.0)
        clean = run(workloads, pipeline=pipeline)
        service = MatchService(workloads, pipeline=pipeline)
        victim = service.tenants["tenant1"].engine
        prepare, calls = victim.placement.prepare, []

        def second_raises(*args, **kwargs):  # after the update was applied
            calls.append(args)
            if len(calls) == 2:
                raise BatchConflictError("injected", None)
            return prepare(*args, **kwargs)

        victim.placement.prepare = second_raises
        report = service.run()
        by_name = {t["name"]: t for t in report.tenants}
        want = {t["name"]: t for t in clean.tenants}
        assert by_name["tenant1"]["failed"] == 1
        assert "BatchConflictError: injected" in by_name["tenant1"]["errors"][0]
        assert by_name["tenant1"]["completed"] == want["tenant1"]["completed"] - 1
        assert victim.graph.batch_open is False  # the engine settled
        for name in ("tenant0", "tenant2"):
            assert by_name[name]["failed"] == 0
            for key in ("delta_total", "completed", "edges_completed"):
                assert by_name[name][key] == want[name][key], (name, key)
        assert json.loads(json.dumps(report.to_dict()))["tenants"][1]["failed"] == 1


class TestMetricsAndReport:
    def test_latency_stats_percentiles(self):
        stats = LatencyStats.from_samples(list(map(float, range(1, 101))))
        assert stats.count == 100
        assert stats.p50_ns == pytest.approx(50.5)
        assert stats.p99_ns == pytest.approx(99.01)
        assert stats.max_ns == 100.0
        assert LatencyStats.from_samples([]).count == 0

    def test_report_round_trips_through_json(self, tmp_path):
        report = run(tiny_workloads(2), queue_capacity=8)
        path = tmp_path / "svc.json"
        report.save(str(path))
        # the file is plain JSON: the report's dict, with the headline
        # aggregates materialized
        raw = json.loads(path.read_text())
        assert raw == json.loads(json.dumps(report.to_dict()))
        assert raw["sustained_edges_per_sec"] == report.sustained_edges_per_sec
        assert raw["completed"] == report.completed

    def test_run_is_deterministic_modulo_wall_clock(self):
        a = run(tiny_workloads(2, seed=5), seed=5).to_dict()
        b = run(tiny_workloads(2, seed=5), seed=5).to_dict()
        a.pop("wall_clock_s"), b.pop("wall_clock_s")
        assert a == b

    def test_pipeline_schedule_aggregated_in_report(self):
        report = run(tiny_workloads(2), pipeline=True)
        assert report.schedule is not None
        assert report.schedule["makespan_ns"] <= report.schedule["serial_ns"]
        assert report.schedule["speedup"] >= 1.0
        serial = run(tiny_workloads(2), pipeline=False)
        assert serial.schedule is None

    def test_counters_totaled_across_tenants(self):
        report = run(tiny_workloads(2))
        assert report.counters  # non-empty summary dict
        assert report.total_edges == sum(
            t["edges_completed"] for t in report.tenants
        )

    def test_slo_rows_sorted_by_tenant(self):
        report = run(tiny_workloads(3))
        rows = report.slo_rows()
        assert [r[0] for r in rows] == ["tenant0", "tenant1", "tenant2"]
        assert len(ServiceReport.SLO_HEADER) == len(rows[0])


class TestHarness:
    def test_run_service_persists_json(self, tmp_path):
        path = tmp_path / "report.json"
        report = run_service(
            2, num_batches=3, batch_size=8,
            json_path=str(path),
            workload_kwargs={"graph_size": 24, "avg_degree": 5.0},
        )
        assert path.exists()
        assert json.loads(path.read_text())["completed"] == report.completed


class TestServeCli:
    ARGS = ["serve", "--tenants", "2", "--batches", "3", "--batch-size", "8"]

    def test_serve_runs_and_prints_summary(self, capsys):
        assert main(self.ARGS + ["--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "service: 2 tenants x 3 batches" in out
        assert "sustained" in out
        assert "pipeline overlap" in out

    def test_serve_report_prints_slo_table(self, capsys, tmp_path):
        path = tmp_path / "svc.json"
        assert main(self.ARGS + ["--report", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-tenant SLOs" in out
        assert "p99 ms" in out
        assert path.exists()

    def test_serve_no_pipeline_omits_overlap(self, capsys):
        assert main(self.ARGS + ["--no-pipeline"]) == 0
        out = capsys.readouterr().out
        assert "pipeline overlap" not in out

    def test_serve_max_shed_gate_fails_under_overload(self, capsys):
        rc = main(self.ARGS + [
            "--rate", "1000000000", "--admission", "shed-oldest",
            "--queue-capacity", "1", "--max-shed", "0.0",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "SLO VIOLATION" in err

    def test_serve_max_shed_gate_passes_when_unloaded(self):
        assert main(self.ARGS + ["--rate", "1", "--max-shed", "0.0"]) == 0

    def test_serve_invalid_config_exits_2(self, capsys):
        assert main(self.ARGS + ["--queue-capacity", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_parser_choices(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--scheduler", "random"])
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--admission", "drop"])
        args = parser.parse_args(["serve", "--arrival", "bursty", "--burst", "2"])
        assert args.arrival == "bursty" and args.burst == 2 and args.pipeline
