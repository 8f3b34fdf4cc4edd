"""Property tests: the pipelined schedule is bit-identical to the serial one.

The contract (docs/service.md): for any stream, kernel pair (production or
``repro.testing`` reference), and conflict mode, ``schedule="pipelined"``
produces the same per-batch ΔM, match stats, counters, cache decisions, and
final store as the serial schedule — overlap only changes *when* work runs,
never *what* it computes.  The same holds when the schedule wraps a fleet's
match stage (``devices=2``), a composition the old class split ruled out.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import make_system
from repro.core.engine import GCSMEngine
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import CONFLICT_MODES, generate_adversarial_stream
from repro.query import QUERIES, QueryGraph
from repro.testing import use_reference_kernels
from repro.testing.validation import DEFAULT_FUZZ_SYSTEMS, fuzz_verify, verify_stream

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
KERNELS = ("frontier", "recursive")


def PipelinedEngine(graph, query, **settings):
    return GCSMEngine(graph, query, schedule="pipelined", **settings)


def _final_state(engine):
    snap = engine.snapshot()
    return snap.labels.tolist(), sorted(map(tuple, snap.edge_array()))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    executor=st.sampled_from(KERNELS),
    estimator=st.sampled_from(KERNELS),
    conflict_mode=st.sampled_from([m for m in CONFLICT_MODES if m != "strict"]),
)
def test_pipelined_engine_bit_parity(seed, executor, estimator, conflict_mode):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(30, 5.0, num_labels=2, seed=rng)
    batches = generate_adversarial_stream(
        g, num_batches=3, batch_size=10, seed=seed + 1
    )
    kwargs = dict(conflict_mode=conflict_mode, seed=seed)
    serial = GCSMEngine(g, TRIANGLE, **kwargs)
    piped = PipelinedEngine(g, TRIANGLE, **kwargs)
    for engine in (serial, piped):
        use_reference_kernels(
            engine, matcher=executor == "recursive",
            estimator=estimator == "recursive",
        )
    ser = [serial.process_batch(b) for b in batches]
    pip = piped.process_stream(batches)
    for a, b in zip(ser, pip):
        assert a.delta_count == b.delta_count
        assert a.match_stats == b.match_stats
        assert a.match_counters.summary() == b.match_counters.summary()
        assert np.array_equal(a.cached_vertices, b.cached_vertices)
        assert (a.cache_hits, a.cache_misses, a.cache_bytes) == \
            (b.cache_hits, b.cache_misses, b.cache_bytes)
        # same simulated stage costs; the pipeline only re-times them
        assert a.breakdown.total_ns == b.breakdown.total_ns
    assert _final_state(serial) == _final_state(piped)
    piped.graph.check_invariants()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_strict_mode_raises_identically(seed):
    # strict mode rejects adversarial batches: both engines must raise the
    # same way at the same batch, leaving their stores in step
    from repro.graphs.stream import BatchConflictError

    rng = np.random.default_rng(seed)
    g = erdos_renyi(24, 5.0, num_labels=2, seed=rng)
    batches = generate_adversarial_stream(
        g, num_batches=2, batch_size=8, seed=seed + 1
    )
    serial = GCSMEngine(g, TRIANGLE, conflict_mode="strict", seed=seed)
    piped = PipelinedEngine(g, TRIANGLE, conflict_mode="strict", seed=seed)
    for batch in batches:
        a_exc = b_exc = None
        try:
            a = serial.process_batch(batch)
        except BatchConflictError as exc:
            a_exc = str(exc)
        try:
            b = piped.process_batch(batch)
        except BatchConflictError as exc:
            b_exc = str(exc)
        assert (a_exc is None) == (b_exc is None)
        if a_exc is not None:
            assert a_exc == b_exc
            break  # stores diverge from a half-applied batch; stop here
        assert a.delta_count == b.delta_count


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_verify_stream_accepts_pipelined_system(seed):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(24, 4.0, num_labels=2, seed=rng)
    batches = generate_adversarial_stream(
        g, num_batches=3, batch_size=8, seed=seed + 1
    )
    query = [QUERIES["Q1"], QUERIES["Q2"]][seed % 2]
    report = verify_stream(
        ["GCSM", "Pipelined"], g, query, batches,
        against_oracle=True, check_invariants=True,
        conflict_mode="coalesce", seed=seed,
    )
    assert len(report.delta_per_batch) == 3  # raises on any disagreement


def test_pipelined_in_default_fuzz_systems():
    assert "Pipelined" in DEFAULT_FUZZ_SYSTEMS
    assert "Pipelined@2" in DEFAULT_FUZZ_SYSTEMS


# ----------------------------------------------------------------------
# compositions of schedule x fan-out x placement row
# ----------------------------------------------------------------------
def _assert_same_results(serial_single, serial_fleet, composed):
    """ΔM and MatchStats equal the serial single-device run; the merged
    match counters equal the serial run of the same fleet (a fleet serves
    remote-cached lists over PEER, so its channel mix is its own)."""
    for one, fleet, got in zip(serial_single, serial_fleet, composed):
        assert got.delta_count == one.delta_count
        assert got.match_stats == one.match_stats
        assert got.match_counters.summary() == fleet.match_counters.summary()
        assert np.array_equal(
            got.match_counters.vertex_access_counts(),
            fleet.match_counters.vertex_access_counts(),
        )
        assert got.breakdown.total_ns == fleet.breakdown.total_ns


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    conflict_mode=st.sampled_from([m for m in CONFLICT_MODES if m != "strict"]),
    prefilter=st.sampled_from(["off", "on"]),
)
def test_pipelined_fleet_parity(seed, conflict_mode, prefilter):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(30, 5.0, num_labels=2, seed=rng)
    batches = generate_adversarial_stream(
        g, num_batches=3, batch_size=10, seed=seed + 1
    )
    kwargs = dict(conflict_mode=conflict_mode, seed=seed, prefilter=prefilter)
    single = GCSMEngine(g, TRIANGLE, **kwargs)
    fleet = GCSMEngine(g, TRIANGLE, devices=2, **kwargs)
    piped = GCSMEngine(g, TRIANGLE, schedule="pipelined", devices=2, **kwargs)
    results = piped.process_stream(batches)
    _assert_same_results(
        single.process_stream(batches), fleet.process_stream(batches), results
    )
    # the pipelined fleet's per-batch critical paths sum to the makespan
    report = piped.schedule_report()
    assert report.num_batches == len(batches)
    assert sum(r.breakdown.critical_path_ns for r in results) == \
        pytest.approx(report.makespan_ns, rel=1e-12)
    assert _final_state(single) == _final_state(piped)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    conflict_mode=st.sampled_from([m for m in CONFLICT_MODES if m != "strict"]),
)
def test_naive_fleet_parity(seed, conflict_mode):
    rng = np.random.default_rng(seed)
    g = erdos_renyi(30, 5.0, num_labels=2, seed=rng)
    batches = generate_adversarial_stream(
        g, num_batches=3, batch_size=10, seed=seed + 1
    )
    kwargs = dict(conflict_mode=conflict_mode, seed=seed)
    single = make_system("Naive", g, TRIANGLE, **kwargs)
    fleet = make_system("Naive", g, TRIANGLE, devices=2, **kwargs)
    assert fleet.num_devices == 2 and fleet.policy.name == "degree"
    results = fleet.process_stream(batches)
    assert all(r.estimation is None for r in results)  # degree policy: no FE
    _assert_same_results(single.process_stream(batches), results, results)
    assert _final_state(single) == _final_state(fleet)


def test_fuzz_smoke_with_pipelined():
    report = fuzz_verify(
        2, systems=["GCSM", "Pipelined", "CPU"], seed=42,
        num_batches=3, batch_size=10,
    )
    assert report.num_cases == 2  # raises on any disagreement
    assert len(report.case_seeds) == 2
    assert report.total_batches == 6
