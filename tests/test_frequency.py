"""Tests for random-walk frequency estimation (paper Sec. IV).

The key statistical test: the estimator is *unbiased* — averaging estimates
over many independent runs converges to the exact access counts measured by
instrumenting the exact matching kernel (paper Eq. 6).
"""

import math

import numpy as np
import pytest

from repro.core.frequency import (
    EstimationResult,
    default_num_walks,
    required_walks,
)
# the production sampler; its recursive oracle is covered by
# tests/test_estimator_parity.py
from repro.core.frequency_frontier import (
    FrontierFrequencyEstimator as FrequencyEstimator,
)
from repro.core.engine import GCSMEngine
from repro.core.matching import match_batch
from repro.graphs import DynamicGraph
from repro.graphs.generators import erdos_renyi, powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.gpu import AccessCounters, HostCPUView, default_device
from repro.gpu.counters import Channel
from repro.query import QueryGraph, compile_delta_plans, query_by_name

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


def setup_case(seed=0, n=40, batch=12):
    g = erdos_renyi(n, 5.0, num_labels=1, seed=seed)
    g0, batches = derive_stream(g, update_fraction=0.4, batch_size=batch, seed=seed)
    dg = DynamicGraph(g0)
    dg.apply_batch(batches[0])
    return dg, batches[0]


class TestRequiredWalks:
    def test_formula_shape(self):
        # Eq. (5): more walks for deeper patterns, bigger batches, larger D,
        # smaller frequency, tighter confidence, smaller alpha
        base = required_walks(4, 100, 10, 50.0)
        assert required_walks(5, 100, 10, 50.0) > base
        assert required_walks(4, 200, 10, 50.0) > base
        assert required_walks(4, 100, 20, 50.0) > base
        assert required_walks(4, 100, 10, 25.0) > base
        assert required_walks(4, 100, 10, 50.0, confidence=0.99) > base
        assert required_walks(4, 100, 10, 50.0, alpha=0.5) > base

    def test_exact_value(self):
        # (n-1)(2+a)|dE|D^{n-2} / (a^2 (1-delta) C_y)
        val = required_walks(3, 10, 4, 5.0, alpha=1.0, confidence=0.5)
        assert val == pytest.approx(2 * 3 * 10 * 4 / (1 * 0.5 * 5.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            required_walks(1, 10, 4, 5.0)
        with pytest.raises(ValueError):
            required_walks(3, 10, 4, 0.0)
        with pytest.raises(ValueError):
            required_walks(3, 10, 4, 5.0, alpha=-1)
        with pytest.raises(ValueError):
            required_walks(3, 10, 4, 5.0, confidence=1.5)


class TestDefaultNumWalks:
    def test_scales_with_batch_and_depth(self):
        assert default_num_walks(1000, 100, 5) > default_num_walks(100, 100, 5)
        assert default_num_walks(1000, 100, 7) > default_num_walks(1000, 100, 5)
        assert default_num_walks(1, 2, 3) >= 256  # floor


class TestEstimator:
    def test_deterministic_given_seed(self):
        dg, batch = setup_case()
        plans = compile_delta_plans(TRIANGLE)
        r1 = FrequencyEstimator(dg, default_device(), seed=5).estimate(plans, batch)
        r2 = FrequencyEstimator(dg, default_device(), seed=5).estimate(plans, batch)
        assert np.array_equal(r1.frequencies, r2.frequencies)

    def test_counters_record_cpu_cost(self):
        dg, batch = setup_case()
        plans = compile_delta_plans(TRIANGLE)
        res = FrequencyEstimator(dg, default_device(), seed=1).estimate(plans, batch)
        assert res.counters.compute_ops > 0
        assert res.nodes_visited > 0

    def test_sampled_vertices_and_top(self):
        dg, batch = setup_case()
        plans = compile_delta_plans(TRIANGLE)
        res = FrequencyEstimator(dg, default_device(), seed=2).estimate(
            plans, batch, num_walks=4096
        )
        sampled = res.sampled_vertices
        assert sampled.size > 0
        top = res.top_vertices(5)
        assert top.size <= 5
        # top vertices sorted by decreasing estimate
        vals = res.frequencies[top]
        assert bool(np.all(vals[:-1] >= vals[1:]))
        assert res.top_vertices(0).size == 0
        assert res.top_vertices(10**6).size == sampled.size

    def test_unbiasedness_against_exact_counts(self):
        """Mean of many estimates ~= exact access counts (Theorem 1 / Eq. 6)."""
        dg, batch = setup_case(seed=3, n=30, batch=8)
        plans = compile_delta_plans(TRIANGLE)
        # exact access counts from instrumenting the exact kernel
        counters = AccessCounters()
        match_batch(plans, batch, HostCPUView(dg, default_device(), counters))
        exact = counters.vertex_access_counts(dg.num_vertices).astype(float)

        acc = np.zeros(dg.num_vertices)
        runs = 60
        est = FrequencyEstimator(dg, default_device(), seed=10)
        for _ in range(runs):
            acc += est.estimate(plans, batch, num_walks=600).frequencies
        mean = acc / runs
        heavy = exact >= np.percentile(exact[exact > 0], 70)
        rel = np.abs(mean[heavy] - exact[heavy]) / exact[heavy]
        # unbiased estimator: mean relative error on frequent vertices small
        assert float(np.median(rel)) < 0.35

    def test_survival_schedule_also_unbiased(self):
        dg, batch = setup_case(seed=4, n=30, batch=8)
        plans = compile_delta_plans(TRIANGLE)
        counters = AccessCounters()
        match_batch(plans, batch, HostCPUView(dg, default_device(), counters))
        exact = counters.vertex_access_counts(dg.num_vertices).astype(float)
        est = FrequencyEstimator(dg, default_device(), seed=11, survival=1.0)
        acc = np.zeros(dg.num_vertices)
        runs = 40
        for _ in range(runs):
            acc += est.estimate(plans, batch, num_walks=400).frequencies
        mean = acc / runs
        heavy = exact >= np.percentile(exact[exact > 0], 70)
        rel = np.abs(mean[heavy] - exact[heavy]) / exact[heavy]
        assert float(np.median(rel)) < 0.35

    def test_more_walks_improve_ranking(self):
        """Spearman-style check: ranking correlation with exact counts
        improves (or stays) as M grows."""
        g = powerlaw_graph(2000, 8.0, max_degree=100, num_labels=1, seed=5)
        g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=5)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        plans = compile_delta_plans(TRIANGLE)
        counters = AccessCounters()
        match_batch(plans, batches[0], HostCPUView(dg, default_device(), counters))
        exact = counters.vertex_access_counts(dg.num_vertices).astype(float)
        top_exact = set(np.argsort(-exact)[:30].tolist())

        def overlap(num_walks):
            est = FrequencyEstimator(dg, default_device(), seed=6, survival=1.0)
            res = est.estimate(plans, batches[0], num_walks=num_walks)
            return len(set(res.top_vertices(30).tolist()) & top_exact)

        small, large = overlap(64), overlap(8192)
        assert large >= small
        assert large >= 15  # large-M ranking finds at least half the true top

    def test_adaptive_estimation_runs(self):
        dg, batch = setup_case(seed=6)
        plans = compile_delta_plans(TRIANGLE)
        est = FrequencyEstimator(dg, default_device(), seed=7)
        res = est.estimate_adaptive(plans, batch, initial_walks=128, max_walks=2048)
        assert res.num_walks >= 128
        assert res.frequencies.shape[0] == dg.num_vertices

    def test_empty_root_plans_handled(self):
        # labels that match nothing -> no roots -> zero estimates
        g = erdos_renyi(20, 3.0, num_labels=2, seed=8)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=6, seed=8)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        impossible = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], [7, 7, 7])
        plans = compile_delta_plans(impossible)
        res = FrequencyEstimator(dg, default_device(), seed=9).estimate(plans, batches[0])
        assert res.sampled_vertices.size == 0


class TestTheorem1:
    """Empirical check of the paper's Theorem 1: the probability that the
    estimator misranks a clearly-more-frequent vertex below a less-frequent
    one decreases with the number of walks M, and at large M is small."""

    def _misrank_rate(self, num_walks, runs=40):
        dg, batch = setup_case(seed=42, n=36, batch=10)
        plans = compile_delta_plans(TRIANGLE)
        counters = AccessCounters()
        match_batch(plans, batch, HostCPUView(dg, default_device(), counters))
        exact = counters.vertex_access_counts(dg.num_vertices).astype(float)
        accessed = np.nonzero(exact > 0)[0]
        if accessed.size < 4:
            pytest.skip("degenerate case")
        order = accessed[np.argsort(-exact[accessed])]
        x = order[0]                      # clearly frequent vertex
        y = order[min(len(order) - 1, len(order) // 2)]  # mid-tail vertex
        if exact[x] < 2 * exact[y]:
            pytest.skip("not enough frequency separation")
        est = FrequencyEstimator(dg, default_device(), seed=7, survival=1.0)
        misranks = 0
        for _ in range(runs):
            freq = est.estimate(plans, batch, num_walks=num_walks).frequencies
            if freq[x] < freq[y]:
                misranks += 1
        return misranks / runs

    def test_misranking_decreases_with_walks(self):
        small = self._misrank_rate(num_walks=24)
        large = self._misrank_rate(num_walks=1024)
        assert large <= small
        assert large < 0.1  # large M ranks the frequent vertex correctly


class TestTopVerticesTieBreak:
    """Regression: the docstring promises ties broken by ascending vertex id,
    including ties that straddle the k boundary (argpartition used to leave
    the boundary order arbitrary)."""

    def _result(self, freq):
        freq = np.asarray(freq, dtype=np.float64)
        support = np.flatnonzero(freq)
        return EstimationResult(support, freq[support], freq.size, 1, 0, AccessCounters())

    def test_tie_at_boundary_picks_smallest_ids(self):
        # four vertices tied at 5.0; top-2 must be the two smallest ids
        res = self._result([0.0, 5.0, 5.0, 5.0, 3.0, 5.0])
        assert res.top_vertices(2).tolist() == [1, 2]
        assert res.top_vertices(4).tolist() == [1, 2, 3, 5]

    def test_descending_frequency_then_id(self):
        res = self._result([2.0, 7.0, 2.0, 9.0, 7.0])
        assert res.top_vertices(5).tolist() == [3, 1, 4, 0, 2]

    def test_zero_entries_never_returned(self):
        res = self._result([0.0, 0.0, 1.0])
        assert res.top_vertices(3).tolist() == [2]

    def test_many_ties_match_full_lexsort(self):
        rng = np.random.default_rng(17)
        freq = rng.integers(0, 4, size=500).astype(np.float64)
        res = self._result(freq)
        nonzero = np.nonzero(freq > 0)[0]
        full = nonzero[np.lexsort((nonzero, -freq[nonzero]))]
        for k in (1, 7, 100, nonzero.size):
            assert res.top_vertices(k).tolist() == full[:k].tolist()


class TestAdaptiveCornerCases:
    def test_max_rounds_one_is_single_pass(self):
        """max_rounds=1 must be exactly one plain estimate() pass."""
        dg, batch = setup_case(seed=21)
        plans = compile_delta_plans(TRIANGLE)
        adaptive = FrequencyEstimator(dg, default_device(), seed=3).estimate_adaptive(
            plans, batch, initial_walks=128, max_rounds=1
        )
        single = FrequencyEstimator(dg, default_device(), seed=3).estimate(
            plans, batch, num_walks=128
        )
        assert adaptive.num_walks == single.num_walks == 128 // 3 * 3  # spent, per plan
        assert np.array_equal(adaptive.frequencies, single.frequencies)
        assert adaptive.nodes_visited == single.nodes_visited
        assert adaptive.counters.compute_ops == single.counters.compute_ops

    def test_required_walks_overflow_to_inf_clamps(self):
        """Eq. (5) can overflow to float inf; the adaptive loop must clamp
        to max_walks and keep going instead of crashing."""
        assert math.isinf(required_walks(3, 10**6, 10**6, 1e-300))
        dg, batch = setup_case(seed=22)
        plans = compile_delta_plans(TRIANGLE)
        est = FrequencyEstimator(dg, default_device(), seed=4)
        # tiny alpha makes `needed` astronomically large (inf after overflow),
        # so every round runs at the max_walks clamp
        res = est.estimate_adaptive(
            plans, batch, initial_walks=64, alpha=1e-160,
            max_walks=512, max_rounds=3,
        )
        assert res.num_walks <= 64 + 2 * 512
        assert res.num_walks > 64  # the clamp actually triggered extra rounds
        assert np.all(np.isfinite(res.frequencies))

    def test_merged_counters_equal_sum_of_passes(self):
        """estimate_adaptive's merged counters == pass-1 + pass-2 counters."""
        dg, batch = setup_case(seed=23)
        plans = compile_delta_plans(TRIANGLE)
        est = FrequencyEstimator(dg, default_device(), seed=5)
        adaptive = est.estimate_adaptive(
            plans, batch, initial_walks=32, alpha=1e-160,
            max_walks=256, max_rounds=2,
        )
        assert adaptive.num_walks == (32 // 3 + 256 // 3) * 3  # two passes happened

        # replay both passes with an identically-seeded estimator
        replay = FrequencyEstimator(dg, default_device(), seed=5)
        p1 = replay.estimate(plans, batch, num_walks=32)
        p2 = replay.estimate(plans, batch, num_walks=256)
        assert adaptive.nodes_visited == p1.nodes_visited + p2.nodes_visited
        assert adaptive.counters.compute_ops == (
            p1.counters.compute_ops + p2.counters.compute_ops
        )
        for ch in Channel:
            assert adaptive.counters.bytes_by_channel[ch] == (
                p1.counters.bytes_by_channel[ch] + p2.counters.bytes_by_channel[ch]
            )
            assert adaptive.counters.transactions_by_channel[ch] == (
                p1.counters.transactions_by_channel[ch]
                + p2.counters.transactions_by_channel[ch]
            )
        n = dg.num_vertices
        assert np.array_equal(
            adaptive.counters.vertex_access_counts(n),
            p1.counters.vertex_access_counts(n) + p2.counters.vertex_access_counts(n),
        )
        # and the merged frequencies are the average weighted by the walks
        # each pass spent (``// 3 * 3``: whole walks per plan, as reported)
        assert (p1.num_walks, p2.num_walks) == (30, 255)
        expected = (p1.frequencies * 30 + p2.frequencies * 255) / (30 + 255)
        assert np.array_equal(adaptive.frequencies, expected)


class TestWalksSpent:
    """``num_walks`` reports the walks an estimate spent — ``num_walks // m``
    per ΔM plan, times ``m`` — not the budget it was asked for (256 reported
    but 252 walked on Q1's six plans and Q3's seven), so the adaptive loop
    weighs its passes (``test_merged_counters_equal_sum_of_passes``) and
    tests its target with real counts."""

    @pytest.mark.parametrize("name, plans", [("Q1", 6), ("Q3", 7)])
    def test_the_default_budget_reports_its_whole_walks_per_plan(self, name, plans):
        g = powerlaw_graph(300, 6.0, max_degree=30, num_labels=1, seed=1)
        g0, batches = derive_stream(g, num_updates=64, batch_size=32, seed=2)
        engine = GCSMEngine(g0, query_by_name(name), seed=0)
        assert len(engine.plans) == plans
        assert engine.process_batch(batches[0]).estimation.num_walks == 252
