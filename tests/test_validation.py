"""Tests for the cross-system consistency checker and the stream fuzzer."""

import re

import pytest

from repro.graphs import DynamicGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import (
    BatchConflictError,
    CanonicalReport,
    derive_stream,
    generate_adversarial_stream,
)
from repro.query import QueryGraph
from repro.testing.validation import (
    ConsistencyError,
    _parse_system_spec,
    fuzz_verify,
    verify_stream,
)

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


def small_case(seed=1):
    g = erdos_renyi(40, 5.0, num_labels=2, seed=seed)
    return derive_stream(g, update_fraction=0.3, batch_size=12, seed=seed)


def test_all_systems_agree_with_oracle():
    g0, batches = small_case()
    report = verify_stream(
        ["GCSM", "ZC", "UM", "Naive", "CPU"], g0, TRIANGLE, batches[:2],
        against_oracle=True,
    )
    assert report.oracle_checked
    assert len(report.delta_per_batch) == 2
    assert "systems agree" in report.describe()
    assert report.total_delta == sum(report.delta_per_batch)


def test_single_system_cross_check():
    g0, batches = small_case(seed=2)
    report = verify_stream(["ZC"], g0, TRIANGLE, batches[:1])
    assert not report.oracle_checked
    assert report.num_batches == 1


def test_validation_of_inputs():
    g0, batches = small_case(seed=3)
    with pytest.raises(ValueError):
        verify_stream([], g0, TRIANGLE, batches[:1])
    with pytest.raises(ValueError):
        verify_stream(["ZC"], g0, TRIANGLE, [])


def test_detects_injected_disagreement(monkeypatch):
    """Tamper with one system's result; the checker must catch it."""
    from repro.core import baselines

    g0, batches = small_case(seed=4)
    real_make = baselines.make_system

    class Liar:
        def __init__(self, inner):
            self.inner = inner

        def process_batch(self, batch):
            result = self.inner.process_batch(batch)
            result.delta_count += 1  # off-by-one corruption
            return result

        def snapshot(self):
            return self.inner.snapshot()

    def tampered(name, *args, **kwargs):
        system = real_make(name, *args, **kwargs)
        return Liar(system) if name == "ZC" else system

    monkeypatch.setattr("repro.testing.validation.make_system", tampered)
    with pytest.raises(ConsistencyError):
        verify_stream(["GCSM", "ZC"], g0, TRIANGLE, batches[:1])


class TestSystemSpecs:
    def test_parse_device_suffix(self):
        assert _parse_system_spec("GCSM") == ("GCSM", {})
        assert _parse_system_spec("GCSM@2") == ("GCSM", {"devices": 2})
        assert _parse_system_spec("CPU") == ("CPU", {})
        # any cached-placement row fans out, not just the one named GCSM
        assert _parse_system_spec("Pipelined@2") == ("Pipelined", {"devices": 2})
        assert _parse_system_spec("Naive@4") == ("Naive", {"devices": 4})
        assert _parse_system_spec("GCSM+prefilter@2") == (
            "GCSM", {"devices": 2, "prefilter": "invariant"}
        )

    def test_bad_specs_rejected(self):
        for not_cached in ("ZC@2", "VSGM@2", "RapidFlow@2", "Nope@2"):
            with pytest.raises(ValueError):
                _parse_system_spec(not_cached)
        with pytest.raises(ValueError):
            _parse_system_spec("GCSM@zero")
        with pytest.raises(ValueError):
            _parse_system_spec("GCSM@0")

    @pytest.mark.parametrize("spec", [
        "GCSM@4:mincut", "GCSM+repart@2:mincut", "GCSM+repart@2", "GCSM@2:hash",
        "GCSM+repart", "Nope",
    ])
    def test_placement_suffixes_rejected_naming_the_spec(self, spec):
        """Ownership is ``hash(v) mod N``: a ``:partitioner`` or ``+repart``
        suffix is command-line input that no longer parses."""
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            _parse_system_spec(spec)

    def test_multigpu_spec_participates(self):
        g0, batches = small_case(seed=5)
        report = verify_stream(
            ["GCSM", "GCSM@2", "Pipelined@2", "Naive@2"], g0, TRIANGLE, batches[:2],
            check_invariants=True,
        )
        assert report.num_batches == 2


class TestAdversarialStream:
    def test_covers_every_anomaly_class(self):
        g = erdos_renyi(40, 5.0, num_labels=3, seed=0)
        batches = generate_adversarial_stream(
            g, num_batches=8, batch_size=20, seed=0
        )
        assert len(batches) == 8
        agg = CanonicalReport(mode="aggregate")
        dg = DynamicGraph(g)
        for b in batches:
            dg.apply_batch(b, mode="coalesce")
            assert dg.last_canonical_report is not None
            agg.merge(dg.last_canonical_report)
            dg.reorganize()
            dg.check_invariants()
        assert agg.new_inserts > 0
        assert agg.valid_deletes > 0
        assert agg.duplicate_inserts > 0
        assert agg.phantom_deletes > 0
        assert agg.intra_batch_dropped > 0
        assert any(b.new_vertex_labels for b in batches)  # new-vertex bursts
        assert dg.num_vertices > g.num_vertices

    def test_deterministic_given_seed(self):
        g = erdos_renyi(30, 4.0, num_labels=2, seed=1)
        a = generate_adversarial_stream(g, num_batches=3, batch_size=10, seed=3)
        b = generate_adversarial_stream(g, num_batches=3, batch_size=10, seed=3)
        for x, y in zip(a, b):
            assert x.edges.tolist() == y.edges.tolist()
            assert x.signs.tolist() == y.signs.tolist()

    def test_strict_mode_raises_on_adversarial_input(self):
        g = erdos_renyi(30, 4.0, num_labels=2, seed=2)
        batches = generate_adversarial_stream(g, num_batches=4, batch_size=16, seed=2)
        with pytest.raises(BatchConflictError):
            verify_stream(["CPU"], g, TRIANGLE, batches, conflict_mode="strict")


class TestConflictModeCorrectness:
    def test_match_counts_stay_correct_after_dirty_batch(self):
        """The batch *after* an absorbed anomaly must still report the exact
        ΔM — the regression the duplicate-insert corruption used to cause."""
        g = erdos_renyi(35, 6.0, num_labels=1, seed=6)
        edges = g.edge_array()
        dup = edges[0].tolist()
        absent = None
        for u in range(g.num_vertices):
            for v in range(u + 1, g.num_vertices):
                if v not in g.neighbors(u):
                    absent = (u, v)
                    break
            if absent:
                break
        dirty = UpdateBatch([dup, dup, list(absent)], [1, 1, 1])
        clean = UpdateBatch([absent], [-1])
        report = verify_stream(
            ["GCSM", "CPU"], g, TRIANGLE, [dirty, clean],
            against_oracle=True, conflict_mode="coalesce", check_invariants=True,
        )
        assert report.anomalies is not None
        assert report.anomalies.duplicate_inserts >= 1
        # the two batches are exact inverses on the effective stream
        assert report.delta_per_batch[1] == -report.delta_per_batch[0]

    def test_classification_agreement_enforced(self):
        g0, batches = small_case(seed=7)
        report = verify_stream(
            ["GCSM", "ZC", "CPU"], g0, TRIANGLE, batches[:2],
            conflict_mode="coalesce",
        )
        assert report.conflict_mode == "coalesce"
        assert report.anomalies is not None
        assert report.anomalies.input_size == sum(len(b) for b in batches[:2])


class TestFuzzVerify:
    def test_small_fuzz_run(self):
        report = fuzz_verify(2, systems=["GCSM", "CPU"], seed=0)
        assert report.num_cases == 2
        assert len(report.case_seeds) == 2
        assert report.total_batches == 8
        assert report.total_updates > report.total_effective
        assert report.anomalies.anomalies > 0
        assert "agree with the oracle" in report.describe()

    def test_fuzz_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fuzz_verify(0)

    def test_fuzz_failure_names_the_case(self, monkeypatch):
        from repro.testing import validation

        def broken(*args, **kwargs):
            raise ConsistencyError("injected")

        monkeypatch.setattr(validation, "verify_stream", broken)
        with pytest.raises(ConsistencyError, match="fuzz case 0 \\(seed="):
            fuzz_verify(1, systems=["CPU"], seed=0)
