"""Theorem 1 on the rulebook: estimated ÷ exact access mass, per batch.

Paper Sec. IV, Theorem 1: the walk's Eq. 3 tally is an unbiased estimator
of the *kernel's* access frequency ``C_v``.  The exact ``C_v`` of a batch is
the kernel's own histogram (``BatchResult.match_counters``: a shared trie
node's reads once, an alias's never), so per batch ``Σ_v estimate_v ÷ Σ_v
C_v`` has mean 1 for an unbiased walk.  Three statistics are tabled over the
repo benchmark's ``az_rulebook24`` inputs (``benchmarks/e2e/workloads.py``,
imported read-only; seeds 0 and 1, 100 batches each) for its 24-rule book
and for the 96-rule suite on the same stream:

* ``chains`` — :func:`repro.testing.chain_estimate`, every query's plans
  walked as chains, aliases included (bit for bit the estimator before the
  rulebook walked its merged trie);
* ``merged trie`` — :meth:`repro.core.multiquery.Rulebook.estimate` as
  shipped: the kernel's merged trie, a row entering each of a node's ``k``
  live children with probability ``min(1, survival/k)``;
* ``full fan-out`` — the same walk entering every child (``p = 1``), kept as
  the rejected alternative: unbiased too, at a higher estimate cost.

Columns: estimated ÷ exact mass (mean / median / p5 / p95 over batches),
the standard error of the mean and whether ``|mean − 1| ≤ 3 SE`` holds (the
bound), the cached set's share of exact ``C_v`` beside the share of the
exact top-k of the same size, the walk's nodes per batch and the simulated
estimate / pack / match / batch µs; then the full fan-out again at smaller
walk budgets.  Ungated beyond the shape asserted at the end; the table goes
to ``benchmarks/results/rulebook_fidelity.txt``.

    PYTHONPATH=src python -m pytest benchmarks/test_rulebook_fidelity.py -q -s
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import run_once
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.multiquery import MultiQueryEngine, Rulebook
from repro.query.generator import rulebook_suite
from repro.testing import chain_estimate

sys.path.insert(0, str(Path(__file__).parent / "e2e"))
import workloads as W  # noqa: E402

SEEDS = (0, 1)
SUITES = {"az_rulebook24": 24, "rulebook96": 96}
STATISTICS = ("chains", "merged trie", "full fan-out")
#: smaller budgets tried for the full fan-out (``az_rulebook24``'s default: 256)
SWEEP = (64, 128, 192)


class FullFanOut(FrontierFrequencyEstimator):
    """The merged-trie walk without branch thinning: every row enters every
    live child."""

    def _thinning(self, k):
        return np.ones(np.shape(k))


def engine_for(statistic: str, inputs, queries, seed: int, num_walks=None):
    engine = MultiQueryEngine(inputs.graph, queries, seed=seed, num_walks=num_walks)
    if statistic == "full fan-out":
        e = engine.estimator
        engine.estimator = FullFanOut(e.graph, e.device, seed=e.rng, survival=e.survival)
    return engine


def measure(statistic: str, rules: int, num_walks: int | None = None) -> dict:
    """Per batch over both seeds: the mass ratio, cached and top-k shares,
    walk nodes and the simulated stages."""
    rows = {key: [] for key in ("ratio", "cached", "topk", "nodes", "estimate_ns",
                                "pack_ns", "match_ns", "total_ns")}
    estimate = Rulebook.estimate
    if statistic == "chains":
        Rulebook.estimate = chain_estimate
    try:
        for seed in SEEDS:
            inputs, _ = W.setup(W.WORKLOADS["az_rulebook24"], seed)
            queries = rulebook_suite(rules, num_labels=3, seed=W.RULEBOOK_SEED)
            engine = engine_for(statistic, inputs, queries, seed, num_walks)
            n = inputs.graph.num_vertices
            for batch in inputs.batches:
                r = engine.process_batch(batch)
                exact = r.match_counters.vertex_access_counts(n).astype(np.float64)
                mass = exact.sum()
                if r.estimation is None or mass == 0:
                    continue
                k = r.cached_vertices.size
                rows["ratio"].append(r.estimation.frequencies.sum() / mass)
                rows["cached"].append(exact[r.cached_vertices].sum() / mass)
                rows["topk"].append(np.sort(exact)[::-1][:k].sum() / mass)
                rows["nodes"].append(r.estimation.nodes_visited)
                for key in ("estimate_ns", "pack_ns", "match_ns", "total_ns"):
                    rows[key].append(getattr(r.breakdown, key))
    finally:
        Rulebook.estimate = estimate
    return {key: np.array(values) for key, values in rows.items()}


def provenance() -> str:
    def git(*args):
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True,
            cwd=Path(__file__).parents[1],
        ).stdout.strip()

    try:
        sha, dirty = git("rev-parse", "--short", "HEAD"), git("status", "--porcelain", "src")
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", ""
    return (f"provenance: sha {sha}{' + uncommitted src/' if dirty else ''}, engine seeds "
            f"{SEEDS} on az_rulebook24's streams (stream seed = engine seed + 1), rulebook "
            f"seed {W.RULEBOOK_SEED}, numpy {np.__version__}, python {sys.version.split()[0]}")


def test_rulebook_fidelity(benchmark, record_table):
    def run():
        results = {(suite, s): measure(s, rules) for suite, rules in SUITES.items()
                   for s in STATISTICS}
        for walks in SWEEP:
            results["sweep", walks] = measure("full fan-out", 24, walks)
        return results

    results = run_once(benchmark, run)
    with record_table("rulebook_fidelity"):
        for suite in SUITES:
            print(f"\n{suite}: estimated / exact access mass per batch "
                  f"({results[suite, 'merged trie']['ratio'].size} batches)")
            print(f"{'statistic':<13} {'mean':>6} {'median':>7} {'p5':>6} {'p95':>6} "
                  f"{'SE':>6} {'|m-1|<=3SE':>10} {'cached C_v':>10} {'top-k C_v':>9} "
                  f"{'nodes':>7} {'est_us':>7} {'pack_us':>7} {'match_us':>8} {'batch_us':>8}")
            for statistic in STATISTICS:
                r = results[suite, statistic]
                ratio = r["ratio"]
                mean, se = ratio.mean(), ratio.std(ddof=1) / np.sqrt(ratio.size)
                p5, median, p95 = np.percentile(ratio, [5, 50, 95])
                us = [r[key].mean() / 1e3 for key in ("estimate_ns", "pack_ns", "match_ns",
                                                      "total_ns")]
                print(f"{statistic:<13} {mean:>6.3f} {median:>7.3f} {p5:>6.3f} {p95:>6.3f} "
                      f"{se:>6.3f} {'yes' if abs(mean - 1) <= 3 * se else 'NO':>10} "
                      f"{r['cached'].mean():>10.3f} {r['topk'].mean():>9.3f} "
                      f"{r['nodes'].mean():>7.1f} " + " ".join(f"{u:>7.3f}" for u in us))
            print(provenance())
        print("\naz_rulebook24, full fan-out at smaller budgets (the default is 256 walks)")
        print(f"{'num_walks':>9} {'mean':>6} {'cached C_v':>10} {'est_us':>7} {'batch_us':>8}")
        for walks in SWEEP:
            r = results["sweep", walks]
            print(f"{walks:>9} {r['ratio'].mean():>6.3f} {r['cached'].mean():>10.3f} "
                  f"{r['estimate_ns'].mean() / 1e3:>7.3f} {r['total_ns'].mean() / 1e3:>8.3f}")
        print(provenance())

    for suite in SUITES:
        chains, merged = results[suite, "chains"], results[suite, "merged trie"]
        fan_out = results[suite, "full fan-out"]
        for r in (merged, fan_out):
            se = r["ratio"].std(ddof=1) / np.sqrt(r["ratio"].size)
            assert abs(r["ratio"].mean() - 1) <= 3 * se
        assert chains["ratio"].mean() > 2.0
        assert fan_out["estimate_ns"].mean() > merged["estimate_ns"].mean()
    # the benchmark's own book: a cache at least as good, for a shorter batch
    chains, merged = results["az_rulebook24", "chains"], results["az_rulebook24", "merged trie"]
    assert merged["cached"].mean() >= chains["cached"].mean()
    assert merged["total_ns"].mean() < chains["total_ns"].mean()
    # no budget brings the full fan-out down to the thinned walk's batch
    assert all(results["sweep", w]["total_ns"].mean() > merged["total_ns"].mean() for w in SWEEP)
