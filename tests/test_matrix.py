"""Tests for the factorial scenario-matrix runner and its regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import matrix
from repro.bench.harness import clear_caches
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
SMOKE_SPEC = ROOT / "benchmarks" / "specs" / "matrix_smoke.json"
SMOKE_BASELINE = ROOT / "benchmarks" / "results" / "BENCH_matrix.json"

TINY_SPEC = {
    "name": "tiny",
    "seed": 0,
    "factors": {
        "dataset": ["AZ"],
        "query": ["Q1"],
        "batch_size": [16],
        "num_batches": [1],
    },
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestParsePredicate:
    def test_forms(self):
        assert matrix.parse_predicate("w>=0.3") == (0.3, 1.0)
        assert matrix.parse_predicate("w<=0.7") == (0.0, 0.7)
        assert matrix.parse_predicate("0.2<=w<=0.8") == (0.2, 0.8)
        assert matrix.parse_predicate(" 0.2 <= w <= 0.8 ") == (0.2, 0.8)

    def test_rejects_garbage(self):
        for bad in ("w=0.5", "0.9<=w<=0.1", "w>=x", "nope"):
            with pytest.raises(ValueError):
                matrix.parse_predicate(bad)


class TestScenarioSpec:
    def test_unknown_factor_rejected(self):
        with pytest.raises(ValueError, match="unknown factors"):
            matrix.ScenarioSpec(name="x", factors={"wat": (1,)})
        for retired in ("executor", "estimator"):  # kernels are not options
            with pytest.raises(ValueError, match="unknown factors"):
                matrix.ScenarioSpec(name="x", factors={retired: ("frontier",)})

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="invalid level"):
            matrix.ScenarioSpec(name="x", factors={"prefilter": ("maybe",)})
        with pytest.raises(ValueError, match="invalid level"):
            matrix.ScenarioSpec(name="x", factors={"batch_size": (0,)})
        with pytest.raises(ValueError):
            matrix.ScenarioSpec(name="x", factors={"query": ("rulebook:Q9",)})

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError, match="no levels"):
            matrix.ScenarioSpec(name="x", factors={"prefilter": ()})

    def test_bad_sample_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            matrix.ScenarioSpec(name="x", sample=0.0)

    def test_round_trips_through_dict(self):
        spec = matrix.ScenarioSpec.from_dict(TINY_SPEC)
        again = matrix.ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec


class TestExpansion:
    def test_full_factorial_with_pruning(self):
        spec = matrix.ScenarioSpec(
            name="x",
            factors={
                "prefilter": ("off", "on"),
                "conflict_mode": ("strict", "coalesce"),
                "update_mix": ("mixed", "adversarial"),
            },
        )
        cells, pruned = matrix.expand_cells(spec)
        # 2*2*2 = 8 combos; adversarial x strict is invalid => 2 pruned
        assert len(cells) == 6
        assert len(pruned) == 2
        assert all("strict" in reason for _, reason in pruned)

    def test_prunes_fleet_contradictions(self):
        spec = matrix.ScenarioSpec(
            name="x",
            factors={
                "system": ("GCSM", "Pipelined", "Naive", "ZC"),
                "devices": (None, 2),
            },
        )
        cells, pruned = matrix.expand_cells(spec)
        for cell in cells:
            if cell["devices"] is not None:
                assert cell["system"] != "ZC"  # placement must be cached
        assert len(cells) + len(pruned) == 8
        # schedule and fan-out compose: Pipelined x devices and Naive x
        # devices run; only the non-cached placement is pruned, with the
        # engine config's own message
        fleet = {c["system"] for c in cells if c["devices"] is not None}
        assert fleet == {"GCSM", "Pipelined", "Naive"}
        reasons = {r for c, r in pruned if c["system"] == "ZC" and c["devices"]}
        assert reasons == {"devices requires placement='cached', not 'zero-copy'"}

    def test_rulebook_cells_compose_with_systems_and_fleets(self):
        spec = matrix.ScenarioSpec(
            name="x",
            factors={
                "system": ("GCSM", "Pipelined", "ZC", "RapidFlow"),
                "query": ("rulebook:Q1+Q3",),
                "devices": (None, 2),
            },
        )
        cells, pruned = matrix.expand_cells(spec)
        ran = {(c["system"], c["devices"]) for c in cells}
        assert ran == {("GCSM", None), ("GCSM", 2), ("Pipelined", None),
                       ("Pipelined", 2), ("ZC", None)}
        # the refusals are the engine's own: fleet x placement, rulebook x index
        reasons = {c["system"]: r for c, r in pruned if c["devices"] is None}
        assert list(reasons) == ["RapidFlow"] and "indexed" in reasons["RapidFlow"]
        record = matrix.run_cell(
            {**matrix.FACTOR_DEFAULTS, "query": "rulebook:Q1+Q3", "devices": 2}
        )
        single = matrix.run_cell({**matrix.FACTOR_DEFAULTS, "query": "rulebook:Q1+Q3"})
        for metric in matrix.EXACT_METRICS:
            assert record["metrics"][metric] == single["metrics"][metric]

    def test_sampling_is_deterministic_and_sized(self):
        spec = matrix.ScenarioSpec(
            name="x",
            factors={
                "prefilter": ("off", "on"),
                "update_mix": ("mixed", "churn", "insert-heavy", "delete-heavy"),
            },
        )
        a, _ = matrix.expand_cells(spec, sample=0.5)
        b, _ = matrix.expand_cells(spec, sample=0.5)
        assert a == b
        assert len(a) == 4  # round(0.5 * 8)
        full, _ = matrix.expand_cells(spec)
        ids = {matrix.cell_id(c) for c in full}
        assert {matrix.cell_id(c) for c in a} <= ids

    def test_filter_cells(self):
        spec = matrix.ScenarioSpec(
            name="x", factors={"prefilter": ("off", "on"),
                               "window": (None, 2)},
        )
        cells, _ = matrix.expand_cells(spec)
        kept = matrix.filter_cells(cells, {"prefilter": "on", "window": "-"})
        assert len(kept) == 1
        assert kept[0]["prefilter"] == "on"
        assert kept[0]["window"] is None
        with pytest.raises(ValueError, match="unknown filter factor"):
            matrix.filter_cells(cells, {"nope": "1"})

    def test_cell_id_covers_every_factor(self):
        spec = matrix.ScenarioSpec(name="x")
        cells, _ = matrix.expand_cells(spec)
        assert len(cells) == 1
        cid = matrix.cell_id(cells[0])
        for factor in matrix.FACTOR_NAMES:
            assert f"{factor}=" in cid


class TestRunMatrix:
    def test_records_and_round_trip(self, tmp_path):
        spec = matrix.ScenarioSpec.from_dict(TINY_SPEC)
        traj = matrix.run_matrix(spec)
        assert traj["schema_version"] == matrix.SCHEMA_VERSION
        assert traj["cells_run"] == 1
        rec = traj["records"][0]
        assert rec["cell_id"] == matrix.cell_id(
            dict(matrix.FACTOR_DEFAULTS, batch_size=16, num_batches=1)
        )
        m = rec["metrics"]
        assert m["total_ns"] > 0 and m["compute_ops"] > 0
        assert m["batch_size_requested"] == 16
        path = tmp_path / "traj.json"
        matrix.save_trajectory(traj, path)
        assert matrix.load_trajectory(path) == json.loads(path.read_text())

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema_version": 0, "records": []}))
        with pytest.raises(ValueError, match="schema"):
            matrix.load_trajectory(path)

    def test_rerun_is_deterministic(self):
        spec = matrix.ScenarioSpec.from_dict(TINY_SPEC)
        a = matrix.run_matrix(spec)
        clear_caches()
        b = matrix.run_matrix(spec)
        ma = dict(a["records"][0]["metrics"])
        mb = dict(b["records"][0]["metrics"])
        ma.pop("wall_clock_s")
        mb.pop("wall_clock_s")
        assert ma == mb


class TestCompareTrajectories:
    def _trajectory(self):
        spec = matrix.ScenarioSpec.from_dict(TINY_SPEC)
        return matrix.run_matrix(spec)

    def test_identical_passes(self):
        traj = self._trajectory()
        report = matrix.compare_trajectories(traj, copy.deepcopy(traj))
        assert report.ok
        assert report.compared == 1
        assert "OK" in report.describe()

    def test_injected_regression_fails(self):
        traj = self._trajectory()
        baseline = copy.deepcopy(traj)
        # shrink the baseline so the fresh run looks 100% slower (>= 20%)
        baseline["records"][0]["metrics"]["match_ns"] *= 0.5
        report = matrix.compare_trajectories(traj, baseline, max_regress_pct=20.0)
        assert not report.ok
        assert any(m == "match_ns" for _, m, *_ in report.regressions)
        assert "REGRESSION" in report.describe()
        # a looser tolerance lets the same pair through
        assert matrix.compare_trajectories(traj, baseline, max_regress_pct=150.0).ok

    def test_growth_from_a_zero_baseline_fails(self):
        traj = self._trajectory()
        baseline = copy.deepcopy(traj)
        baseline["records"][0]["metrics"]["match_ns"] = 0.0
        assert traj["records"][0]["metrics"]["match_ns"] > 0
        report = matrix.compare_trajectories(traj, baseline, max_regress_pct=1e9)
        assert not report.ok
        assert [m for _, m, *_ in report.regressions] == ["match_ns"]
        assert "REGRESSION match_ns" in report.describe()
        # zero staying zero is no regression
        traj["records"][0]["metrics"]["match_ns"] = 0.0
        assert matrix.compare_trajectories(traj, baseline).ok

    def test_exact_metric_must_match(self):
        traj = self._trajectory()
        baseline = copy.deepcopy(traj)
        baseline["records"][0]["metrics"]["delta_total"] += 1
        report = matrix.compare_trajectories(traj, baseline)
        assert not report.ok
        assert report.mismatches
        assert "MISMATCH" in report.describe()

    def test_improvements_and_new_cells_pass(self):
        traj = self._trajectory()
        baseline = copy.deepcopy(traj)
        baseline["records"][0]["metrics"]["total_ns"] *= 10  # we got faster
        traj["records"].append({"cell_id": "new-cell", "metrics": {"total_ns": 1.0}})
        report = matrix.compare_trajectories(traj, baseline)
        assert report.ok
        assert report.new_cells == ["new-cell"] and not report.missing_cells

    def test_a_missing_baseline_cell_fails(self):
        traj = self._trajectory()
        baseline = copy.deepcopy(traj)
        baseline["records"].append(
            {"cell_id": "retired-cell", "factors": {}, "metrics": {"total_ns": 1.0}}
        )
        report = matrix.compare_trajectories(traj, baseline)
        assert not report.ok
        assert report.missing_cells == ["retired-cell"]
        assert "MISSING" in report.describe()

    def test_a_renamed_factor_compares_nothing_and_fails(self):
        traj = self._trajectory()
        baseline = copy.deepcopy(traj)
        for rec in baseline["records"]:
            rec["cell_id"] = rec["cell_id"].replace("devices=", "fleet=")
        report = matrix.compare_trajectories(traj, baseline)
        assert report.compared == 0 and not report.ok
        assert "NOTHING COMPARED" in report.describe()

    def test_filters_scope_the_missing_cells(self):
        spec = matrix.ScenarioSpec.from_dict(
            {**TINY_SPEC, "factors": {**TINY_SPEC["factors"], "devices": [None, 2]}}
        )
        baseline = matrix.run_matrix(spec)
        assert baseline["cells_run"] == 2
        current = matrix.run_matrix(spec, filters={"devices": "2"})
        report = matrix.compare_trajectories(current, baseline)
        assert report.ok and report.compared == 1 and not report.missing_cells


class TestCommittedSmokeBaseline:
    """The CI gate compares against cells that can regress: engine cells
    with ΔM != 0 and with pre-filter root skips, from the committed spec."""

    def _engine_records(self):
        return [r for r in matrix.load_trajectory(SMOKE_BASELINE)["records"]
                if "service" not in r["factors"]]

    def test_baseline_runs_the_committed_spec(self):
        cells, _ = matrix.expand_cells(matrix.ScenarioSpec.from_json(SMOKE_SPEC))
        assert sorted(r["cell_id"] for r in self._engine_records()) == sorted(
            matrix.cell_id(c) for c in cells
        )

    def test_baseline_cells_bite(self):
        records = self._engine_records()
        assert any(r["metrics"]["delta_total"] != 0 for r in records)
        assert any(r["metrics"]["roots_skipped"] > 0 for r in records)


class TestMatrixCLI:
    def _write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TINY_SPEC))
        return str(path)

    def test_list_mode(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        assert main(["matrix", "--spec", spec, "--list"]) == 0
        out = capsys.readouterr().out
        assert "1 cells to run" in out

    def test_run_gate_clean_then_regressed(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out_path = tmp_path / "BENCH_matrix.json"
        assert main(["matrix", "--spec", spec, "--out", str(out_path)]) == 0
        # gating a fresh run against its own trajectory passes
        assert main(["matrix", "--spec", spec, "--baseline", str(out_path)]) == 0
        # inject a >= 20% simulated-time regression into the baseline
        traj = json.loads(out_path.read_text())
        for rec in traj["records"]:
            rec["metrics"]["total_ns"] *= 0.5
        out_path.write_text(json.dumps(traj))
        capsys.readouterr()
        assert main(["matrix", "--spec", spec, "--baseline", str(out_path),
                     "--max-regress", "20"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_usage_errors(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        assert main(["matrix", "--spec", str(tmp_path / "nope.json")]) == 2
        assert main(["matrix", "--spec", spec, "--filter", "bogus"]) == 2
        assert main(["matrix", "--spec", spec, "--filter", "wat=1"]) == 2
        bad = tmp_path / "bad_baseline.json"
        bad.write_text("{}")
        assert main(["matrix", "--spec", spec, "--baseline", str(bad)]) == 2
