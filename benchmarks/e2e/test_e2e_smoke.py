"""Smoke test of the end-to-end benchmark (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs every workload at ``--smoke`` scale (10 batches, one pass), untraced and
traced, and checks the contract between ``BENCHMARK.json`` and what the
command prints.
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECL["workloads"]]
SINGLE_QUERY = [w for w in WORKLOADS if w != "az_rulebook24"]
SMOKE_BATCHES = 10


def run_cli(*argv, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *argv], cwd=cwd, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def smoke_results():
    """``{(workload, trace): parsed last line}`` for all ten smoke runs."""
    results = {}
    for name, trace in itertools.product(WORKLOADS, (0, 1)):
        proc = run_cli("--workload", name, "--smoke", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results[name, trace] = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return results


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", WORKLOADS)
def test_declared_metrics_are_emitted(smoke_results, name, trace, section):
    result = smoke_results[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECL[section]}
    assert set(result["metrics"]) == set(declared)  # both ways
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == declared[metric]
        assert math.isfinite(entry["value"]), metric
    if section == "end_to_end":  # the contract wants end-to-end metrics never 0
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", SINGLE_QUERY)
def test_staged_replay_reproduces_the_engine(smoke_results, name):
    """The traced run counts a replayed batch whose ΔM or any stage's
    simulated ns differs from the engine's as failed: none may."""
    result = smoke_results[name, 1]
    assert result["attempted"] == 2 * SMOKE_BATCHES  # engine pass + replay pass
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.matching.match_wall_ms"] > 0
    assert metrics["graphs.dynamic_graph.reorg_lists_touched"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_simulated_stages_sum_to_sim_batch_us(smoke_results, name):
    layers = smoke_results[name, 1]["metrics"]
    stages = sum(v["value"] for k, v in layers.items() if k.startswith("gpu.clock."))
    total = smoke_results[name, 0]["metrics"]["sim_batch_us"]["value"]
    assert math.isclose(stages, total, rel_tol=1e-9)


@pytest.mark.parametrize("name", WORKLOADS)
def test_wall_shares_cover_the_batch_span(smoke_results, name):
    layers = smoke_results[name, 1]["metrics"]
    shares = sum(v["value"] for k, v in layers.items() if k.endswith("wall_share"))
    assert shares == pytest.approx(1.0, abs=0.02)


def test_corrupted_delta_fails_the_run(monkeypatch, capsys):
    """Wrap the engine so one batch reports ΔM + 1: the command must exit
    non-zero with a non-zero failed share."""
    monkeypatch.syspath_prepend(str(HERE))
    import run

    assert run.main(["--workload", "ca_q3_narrow", "--smoke"]) == 0
    capsys.readouterr()

    import workloads

    real = workloads.make_engine

    def corrupting(w, inputs, seed):
        engine = real(w, inputs, seed)
        inner, calls = engine.process_batch, itertools.count()

        def process_batch(batch):
            result = inner(batch)
            if next(calls) == 3:
                result.delta_count += 1
            return result

        engine.process_batch = process_batch
        return engine

    monkeypatch.setattr(workloads, "make_engine", corrupting)
    assert run.main(["--workload", "ca_q3_narrow", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.rstrip("\n").split("\n")[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == SMOKE_BATCHES


def test_pinned_names_exist(monkeypatch):
    """The attribute tables of ``api.py`` name things the program really has."""
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import api
    import workloads

    rulebook_only = {"delta_counts", "trie_stats"}
    for name, absent in (("ca_q3_narrow", rulebook_only), ("az_rulebook24",
                                                            {"delta_count", "conflicts"})):
        w = workloads.WORKLOADS[name]
        inputs, engine = workloads.setup(w, seed=0, smoke=True)
        result = engine.process_batch(inputs.batches[0])
        assert {f for f in api.RESULT_FIELDS if hasattr(result, f)} == (
            set(api.RESULT_FIELDS) - absent
        )
        assert all(hasattr(result.breakdown, stage) for stage in api.STAGE_NS)
        if w.kind != "rulebook":
            assert all(hasattr(engine, part) for part in api.ENGINE_PARTS)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "ca_q3_narrow", "--smoke", cwd=tmp_path,
                   script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
