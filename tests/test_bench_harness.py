"""Tests for the experiment harness (workload memoization, aggregation)."""

import warnings

import numpy as np
import pytest

from repro.bench.harness import (
    RunResult,
    Workload,
    build_workload,
    clear_caches,
    print_table,
    run_stream,
)
from repro.query import query_by_name


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestBuildWorkload:
    def test_memoized(self):
        g0a, batches_a = build_workload("AZ", batch_size=32, seed=0)
        g0b, batches_b = build_workload("AZ", batch_size=32, seed=0)
        assert g0a is g0b
        assert batches_a is batches_b

    def test_distinct_keys_distinct_streams(self):
        _, a = build_workload("AZ", batch_size=32, seed=0)
        _, b = build_workload("AZ", batch_size=64, seed=0)
        assert len(a[0]) == 32 and len(b[0]) == 64

    def test_same_update_set_across_batch_sizes(self):
        """Fig. 12's requirement: re-batching must not change the updates."""
        _, a = build_workload("AZ", batch_size=32, num_batches=4, seed=0)
        _, b = build_workload("AZ", batch_size=64, num_batches=2, seed=0)
        edges_a = np.concatenate([x.edges for x in a[:4]])
        edges_b = np.concatenate([x.edges for x in b[:2]])
        assert np.array_equal(edges_a, edges_b)

    def test_default_batch_size(self):
        _, batches = build_workload("AZ", seed=0)
        assert len(batches[0]) == 512  # AZ default

    def test_clear_caches(self):
        g0a, _ = build_workload("AZ", batch_size=32, seed=0)
        clear_caches()
        g0b, _ = build_workload("AZ", batch_size=32, seed=0)
        assert g0a is not g0b
        assert g0a == g0b  # deterministic rebuild


class TestWorkloadTruncation:
    """The silent-truncation bugfix: requests beyond num_edges // 2 must be
    surfaced, not quietly shrunk."""

    def test_truncation_warns_and_is_reported(self):
        with pytest.warns(RuntimeWarning, match="truncated"):
            wl = build_workload("AZ", batch_size=10_000, num_batches=50, seed=0)
        assert isinstance(wl, Workload)
        assert wl.truncated
        assert wl.updates_delivered < wl.updates_requested
        assert wl.batch_size_requested == 10_000
        assert wl.num_batches_requested == 50
        assert wl.num_batches_delivered < 50

    def test_warns_on_cache_hits_too(self):
        with pytest.warns(RuntimeWarning):
            build_workload("AZ", batch_size=10_000, num_batches=50, seed=0)
        with pytest.warns(RuntimeWarning):  # memoized second call still warns
            build_workload("AZ", batch_size=10_000, num_batches=50, seed=0)

    def test_satisfiable_request_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wl = build_workload("AZ", batch_size=32, num_batches=2, seed=0)
        assert not wl.truncated
        assert wl.updates_delivered == 64

    def test_run_result_records_requested_vs_actual(self):
        with pytest.warns(RuntimeWarning):
            r = run_stream("ZC", "AZ", query_by_name("Q1"),
                           batch_size=10_000, num_batches=50, seed=0)
        assert r.batch_size_requested == 10_000
        assert r.num_batches_requested == 50
        assert r.num_batches < 50
        # batch_size is the *actual* mean over driven batches
        assert 0 < r.batch_size <= 10_000


class TestSizeValidation:
    """``batch_size=0`` must be an error, not 'use the dataset default'."""

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            build_workload("AZ", batch_size=0, seed=0)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            build_workload("AZ", batch_size=-8, seed=0)
        with pytest.raises(ValueError, match="num_batches"):
            build_workload("AZ", batch_size=32, num_batches=0, seed=0)
        with pytest.raises(ValueError, match="window"):
            build_workload("AZ", batch_size=32, window=0, seed=0)

    def test_none_still_means_dataset_default(self):
        wl = build_workload("AZ", batch_size=None, seed=0)
        assert wl.batch_size_requested == 512  # AZ default

    def test_bad_update_mix_rejected(self):
        with pytest.raises(ValueError, match="update_mix"):
            build_workload("AZ", batch_size=32, update_mix="chaotic", seed=0)


class TestStreamCacheAliasing:
    """Engines consume memoized batches; a second system run over the same
    cached stream must be byte-identical to its first run."""

    def test_cached_stream_not_mutated_across_systems(self):
        q = query_by_name("Q1")
        kwargs = dict(batch_size=32, num_batches=3, seed=0,
                      conflict_mode="coalesce")
        first = run_stream("GCSM", "AZ", q, **kwargs)
        run_stream("ZC", "AZ", q, **kwargs)  # interleaved consumer
        again = run_stream("GCSM", "AZ", q, **kwargs)
        assert first.delta_total == again.delta_total
        assert first.embeddings_total == again.embeddings_total
        assert first.breakdown.total_ns == again.breakdown.total_ns
        assert (first.counters.bytes_by_channel
                == again.counters.bytes_by_channel)
        assert first.counters.compute_ops == again.counters.compute_ops

    def test_cached_batch_objects_stay_identical(self):
        wl = build_workload("AZ", batch_size=32, num_batches=2, seed=0)
        before = [b.edges.copy() for b in wl.batches]
        run_stream("GCSM", "AZ", query_by_name("Q2"), batch_size=32,
                   num_batches=2, seed=0, conflict_mode="coalesce")
        after = build_workload("AZ", batch_size=32, num_batches=2, seed=0)
        assert after is wl  # same memoized object...
        for orig, now in zip(before, after.batches):
            assert np.array_equal(orig, now.edges)  # ...bitwise untouched


class TestWorkloadMixes:
    def test_insert_and_delete_heavy_skew(self):
        heavy_i = build_workload("AZ", batch_size=64, num_batches=2, seed=0,
                                 update_mix="insert-heavy")
        heavy_d = build_workload("AZ", batch_size=64, num_batches=2, seed=0,
                                 update_mix="delete-heavy")
        frac_i = np.mean([np.mean(b.signs > 0) for b in heavy_i.batches])
        frac_d = np.mean([np.mean(b.signs > 0) for b in heavy_d.batches])
        assert frac_i > 0.75 > 0.25 > frac_d

    def test_churn_mix_runs(self):
        wl = build_workload("AZ", batch_size=32, num_batches=3, seed=0,
                            update_mix="churn")
        assert wl.num_batches_delivered >= 2
        r = run_stream("GCSM", "AZ", query_by_name("Q1"), batch_size=32,
                       num_batches=3, seed=0, update_mix="churn")
        assert r.update_mix == "churn"

    def test_windowed_workload_runs(self):
        r = run_stream("GCSM", "AZ", query_by_name("Q1"), batch_size=32,
                       num_batches=3, seed=0, window=2,
                       conflict_mode="coalesce")
        assert r.window == 2
        assert r.num_batches == 3


class TestRunStream:
    def test_aggregates_batches(self):
        single = run_stream("ZC", "AZ", query_by_name("Q1"), batch_size=32,
                            num_batches=1, seed=0)
        multi = run_stream("ZC", "AZ", query_by_name("Q1"), batch_size=32,
                           num_batches=3, seed=0)
        assert multi.num_batches == 3
        # first batch identical; totals accumulate, means stay comparable
        assert multi.counters.total_access_count > single.counters.total_access_count
        assert multi.breakdown.total_ns > 0

    def test_result_fields(self):
        r = run_stream("GCSM", "AZ", query_by_name("Q1"), batch_size=32, seed=0)
        assert isinstance(r, RunResult)
        assert r.system == "GCSM"
        assert r.dataset == "AZ"
        assert r.query == "Q1"
        assert r.batch_size == 32
        assert r.cache_hit_rate is not None
        assert r.coverage_top1 is not None
        assert r.total_ms == pytest.approx(r.breakdown.total_ns / 1e6)
        assert r.dc_ms == pytest.approx(
            (r.breakdown.estimate_ns + r.breakdown.pack_ns) / 1e6
        )
        assert "GCSM" in r.describe()

    def test_system_kwargs_forwarded(self):
        r = run_stream("GCSM", "AZ", query_by_name("Q1"), batch_size=32,
                       seed=0, cache_budget_bytes=0)
        assert r.cache_bytes <= 8  # empty DCSR sentinel only
        assert r.cache_hit_rate == 0.0

    def test_deterministic(self):
        a = run_stream("GCSM", "AZ", query_by_name("Q2"), batch_size=32, seed=1)
        clear_caches()
        b = run_stream("GCSM", "AZ", query_by_name("Q2"), batch_size=32, seed=1)
        assert a.breakdown.total_ns == b.breakdown.total_ns
        assert a.delta_total == b.delta_total


class TestPrintTable:
    def test_formats_and_aligns(self, capsys):
        print_table("demo", ["a", "long-header"], [[1, 2.5], ["xx", 3.25]])
        out = capsys.readouterr().out
        assert "demo" in out
        assert "long-header" in out
        assert "2.500" in out  # float formatting
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5  # title, header, rule, two rows


class TestRecordTable:
    """``benchmarks/conftest.py``: a benchmark run replaces only its own
    table in a results file that carries hand-annotated history."""

    @pytest.fixture()
    def bench_conftest(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_annotated_history_survives_a_run(self, bench_conftest, tmp_path):
        path = tmp_path / "store_wallclock.txt"
        history = "PR 19 before/after, by hand\nrow  parent  change\n\n"
        path.write_text(history + bench_conftest.LATEST_RUN + "stale table\n")
        for table in ("first run\n", "second run\n"):
            bench_conftest.write_table(path, table)
            assert path.read_text() == history + bench_conftest.LATEST_RUN + table

    def test_file_without_the_marker_is_all_the_runs(self, bench_conftest, tmp_path):
        path = tmp_path / "fig8_fr.txt"
        bench_conftest.write_table(path, "table one\n")  # created
        bench_conftest.write_table(path, "table two\n")  # replaced whole
        assert path.read_text() == "table two\n"

    def test_committed_annotated_files_carry_the_marker(self, bench_conftest):
        for name in ("store_wallclock", "kernel_wallclock", "estimator_wallclock"):
            text = (bench_conftest.RESULTS_DIR / f"{name}.txt").read_text()
            assert text.count(bench_conftest.LATEST_RUN) == 1, name
            assert text.index("before/after") < text.index(bench_conftest.LATEST_RUN), name
