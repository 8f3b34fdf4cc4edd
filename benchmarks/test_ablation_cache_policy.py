"""Ablation: cache-selection policy (DESIGN.md §6, items 1 and 3).

Sweeps the policy axis — no cache at all (budget 0, ≡ pure zero-copy),
degree-ranked (Naive) and frequency-ranked (GCSM), the paper's two rules
(Sec. V-C) — plus a cache-budget sweep that interpolates between ZC-like and VSGM-like behaviour.
"""

from conftest import run_once

from repro.bench.harness import build_workload, print_table
from repro.core.engine import GCSMEngine
from repro.query import query_by_name


def _run_policy(policy, budget=None, dataset="SF3K", qname="Q1", batch=256):
    g0, batches = build_workload(dataset, batch_size=batch, seed=0)
    kwargs = {} if budget is None else {"cache_budget_bytes": budget}
    engine = GCSMEngine(g0, query_by_name(qname), policy=policy, seed=0, **kwargs)
    return engine.process_batch(batches[0])


def ablate_policies():
    rows = []
    results = {}
    for label, policy, budget in (
        ("no-cache", "frequency", 0),
        ("degree", "degree", 200_000),
        ("frequency (GCSM)", "frequency", None),
    ):
        r = _run_policy(policy, budget)
        results[label] = r
        rows.append([
            label, r.breakdown.total_ns / 1e6, r.breakdown.match_ns / 1e6,
            r.cpu_access_bytes,
            r.cache_hits / max(1, r.cache_hits + r.cache_misses),
        ])
    print_table(
        "Ablation: cache policy (SF3K, Q1, |ΔE|=256)",
        ["policy", "total ms", "match ms", "CPU access B", "hit rate"], rows,
    )
    return results


def ablate_budget():
    rows = []
    results = {}
    for budget in (0, 25_000, 100_000, 400_000, 1_400_000):
        r = _run_policy("frequency", budget)
        results[budget] = r
        rows.append([budget, r.breakdown.total_ns / 1e6, r.cpu_access_bytes])
    print_table(
        "Ablation: cache budget (SF3K, Q1, frequency policy)",
        ["budget B", "total ms", "CPU access B"], rows,
    )
    return results


def test_ablation_cache_policy(benchmark, record_table):
    with record_table("ablation_cache_policy"):
        results = run_once(benchmark, ablate_policies)

    t = {k: r.breakdown.total_ns for k, r in results.items()}
    # every result identical (caching never changes ΔM)
    assert len({r.delta_count for r in results.values()}) == 1
    # frequency caching beats no caching end-to-end
    assert t["frequency (GCSM)"] < t["no-cache"]
    # hit rates ordered: frequency >= degree >= none
    hr = {k: r.cache_hits / max(1, r.cache_hits + r.cache_misses)
          for k, r in results.items()}
    assert hr["no-cache"] == 0.0
    assert hr["frequency (GCSM)"] >= hr["degree"] * 0.9


def test_ablation_cache_budget(benchmark, record_table):
    with record_table("ablation_cache_budget"):
        results = run_once(benchmark, ablate_budget)

    budgets = sorted(results)
    traffic = [results[b].cpu_access_bytes for b in budgets]
    # more budget -> monotonically less PCIe traffic (weakly)
    for a, b in zip(traffic, traffic[1:]):
        assert b <= a * 1.02, traffic
    assert traffic[-1] < traffic[0]
