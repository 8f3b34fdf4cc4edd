"""Tests for the run record (``RunResult.to_dict``) and speedup summaries.

``TestPinned`` holds outputs recorded at c1543fe, before ``RunResult``
became the only record of a run: the ``repro run --json`` payload (every key
written then, with its value), ``repro compare`` stdout and the Fig. 11 /
Fig. 13 tables, whose runners then built their systems and drove
``process_batch`` themselves.
"""

import json

import pytest

from repro.bench import figures
from repro.bench.harness import (
    ComparisonSummary,
    RunResult,
    clear_caches,
    run_stream,
    summarize,
)
from repro.cli import main
from repro.gpu.clock import TimeBreakdown
from repro.gpu.counters import AccessCounters
from repro.query import query_by_name


@pytest.fixture(autouse=True)
def _fresh():
    clear_caches()
    figures._RUN_CACHE.clear()
    yield
    clear_caches()
    figures._RUN_CACHE.clear()


def rec(system, dataset="FR", query="Q1", total=100.0):
    return RunResult(
        system=system, dataset=dataset, query=query, batch_size=256,
        num_batches=1, breakdown=TimeBreakdown(match_ns=total),
        counters=AccessCounters(), delta_total=5, embeddings_total=7,
        cpu_access_bytes=1000,
    )


class TestRecord:
    def test_dict_roundtrip(self):
        run = run_stream("GCSM", "AZ", query_by_name("Q1"), batch_size=64, seed=0)
        row = run.to_dict()
        assert json.loads(json.dumps(row)) == row
        assert "breakdown" not in row and "counters" not in row

    def test_json_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "record.json"
        assert main(["run", "--system", "ZC", "--dataset", "AZ", "--query", "Q1",
                     "--batch-size", "64", "--json", str(path)]) == 0
        run = run_stream("ZC", "AZ", query_by_name("Q1"), batch_size=64, seed=0)
        assert json.loads(path.read_text()) == [run.to_dict()]

    def test_from_run(self):
        run = run_stream("ZC", "AZ", query_by_name("Q1"), batch_size=64, seed=0)
        row = run.to_dict()
        assert row["system"] == "ZC"
        assert row["dataset"] == "AZ"
        assert row["total_ns"] == run.breakdown.total_ns
        assert row["match_ns"] == run.breakdown.match_ns
        assert row["cache_hit_rate"] == run.cache_hit_rate


class TestSummarize:
    def test_speedups(self):
        runs = [
            rec("GCSM", query="Q1", total=100.0),
            rec("ZC", query="Q1", total=200.0),
            rec("GCSM", query="Q2", total=50.0),
            rec("ZC", query="Q2", total=400.0),
        ]
        s = summarize(runs, "GCSM", "ZC")
        assert isinstance(s, ComparisonSummary)
        assert s.speedups[("FR", "Q1")] == pytest.approx(2.0)
        assert s.speedups[("FR", "Q2")] == pytest.approx(8.0)
        assert s.min == pytest.approx(2.0)
        assert s.max == pytest.approx(8.0)
        assert s.geomean == pytest.approx(4.0)
        assert s.wins == 2
        assert "GCSM vs ZC" in s.describe()

    def test_missing_baseline_legs_skipped(self):
        runs = [
            rec("GCSM", query="Q1", total=100.0),
            rec("ZC", query="Q1", total=150.0),
            rec("GCSM", query="Q9", total=10.0),  # no ZC leg
        ]
        s = summarize(runs, "GCSM", "ZC")
        assert list(s.speedups) == [("FR", "Q1")]

    def test_no_overlap_rejected(self):
        with pytest.raises(ValueError):
            summarize([rec("GCSM")], "GCSM", "UM")


#: ``repro run --dataset AZ --query Q1 --json`` at c1543fe
RUN_Q1 = {
    "system": "GCSM", "dataset": "AZ", "query": "Q1", "batch_size": 512.0,
    "num_batches": 1, "total_ns": 32084.388095238097, "match_ns": 9001.15,
    "estimate_ns": 5802.666666666667, "pack_ns": 8481.904761904761,
    "reorg_ns": 6409.333333333333, "update_ns": 2389.3333333333335,
    "cpu_access_bytes": 25196, "delta_total": 1, "embeddings_total": 1,
    "cache_hit_rate": 0.8232593726090283, "coverage_top1": 1.0,
    "coverage_top5": 1.0, "batch_size_requested": 512,
    "num_batches_requested": 1, "update_mix": "mixed", "window": None,
    "conflict_mode": "coalesce", "num_devices": 1, "comm_ns": 0.0,
    "peer_bytes": 0, "imbalance": None, "load_balance": [], "shared": None,
    "rulebook_size": None, "prefilter": None, "prefilter_ns": 0.0,
    "batches_skipped": 0, "roots_skipped": 0, "queries_skipped": 0,
}
#: ``... --rulebook Q1,Q3 --devices 2 --json`` at c1543fe
RUN_RULEBOOK = {
    **RUN_Q1,
    "query": "rulebook[2]", "total_ns": 35768.59285714286,
    "match_ns": 11174.483333333334, "estimate_ns": 7571.5,
    "pack_ns": 7921.142857142857, "cpu_access_bytes": 28672,
    "cache_hit_rate": 0.8234628442097321, "num_devices": 2, "comm_ns": 302.8,
    "peer_bytes": 89180, "imbalance": 1.1498314188598222,
    "load_balance": [{
        "num_devices": 2, "shard_match_ns": [8262.25, 11174.483333333334],
        "shard_roots": [554, 540], "max_ns": 11174.483333333334,
        "mean_ns": 9718.366666666667, "imbalance": 1.1498314188598222,
        "straggler": 1,
    }],
    "shared": True, "rulebook_size": 2,
}

COMPARE_STDOUT = """
== compare on AZ/Q1
system  total ms  match ms  CPU access B  ΔM
--------------------------------------------
  GCSM     0.032     0.009         25196   1
    ZC     0.056     0.047        228048   1
GCSM vs ZC: 1.73x-1.73x (geomean 1.73x, wins 1/1)
"""

FIG11_STDOUT = """
== Fig. 11: size-3/4/5 motif counting on road networks (|ΔE|=256)
graph  motif size  system  total ms  vs ZC
------------------------------------------
   PA           3    GCSM     0.025  1.935
   PA           3      ZC     0.048  1.000
   PA           3   Naive     0.112  0.425
   PA           4    GCSM     0.319  2.398
   PA           4      ZC     0.764  1.000
   PA           4   Naive     0.639  1.195
   PA           5    GCSM     3.307  2.349
   PA           5      ZC     7.767  1.000
   PA           5   Naive     4.528  1.715
   CA           3    GCSM     0.026  1.871
   CA           3      ZC     0.048  1.000
   CA           3   Naive     0.125  0.386
   CA           4    GCSM     0.369  2.322
   CA           4      ZC     0.857  1.000
   CA           4   Naive     0.915  0.936
   CA           5    GCSM     4.279  2.247
   CA           5      ZC     9.613  1.000
   CA           5   Naive     7.968  1.207
"""

FIG13_STDOUT = """
== Fig. 13: VSGM vs GCSM breakdown (paper batches 128/64, scaled /16)
graph  query  |ΔE|  system  DC ms  match ms  copied B  vs buffer
----------------------------------------------------------------
 SF3K     Q1     8    VSGM  0.311     0.000   3601568       2.6x
 SF3K     Q1     8    GCSM  0.008     0.001     16588       fits
SF10K     Q1     4    VSGM  0.464     0.000   5936748       4.2x
SF10K     Q1     4    GCSM  0.001     0.000       148       fits
"""


class TestPinned:
    @pytest.mark.parametrize("argv, expected", [
        (["--query", "Q1"], RUN_Q1),
        (["--rulebook", "Q1,Q3", "--devices", "2"], RUN_RULEBOOK),
    ], ids=["single", "rulebook-fleet"])
    def test_run_json_keeps_every_key_and_value(self, argv, expected, tmp_path,
                                                capsys):
        path = tmp_path / "record.json"
        assert main(["run", "--dataset", "AZ", *argv, "--json", str(path)]) == 0
        [row] = json.loads(path.read_text())
        assert {k: row.get(k) for k in expected} == expected

    def test_compare_stdout(self, capsys):
        assert main(["compare", "--dataset", "AZ", "--query", "Q1",
                     "--systems", "GCSM,ZC"]) == 0
        assert capsys.readouterr().out == COMPARE_STDOUT

    @pytest.mark.parametrize("name, expected", [
        ("fig11", FIG11_STDOUT), ("fig13", FIG13_STDOUT),
    ])
    def test_figure_stdout(self, name, expected, capsys):
        assert main(["figure", name]) == 0
        assert capsys.readouterr().out == expected
