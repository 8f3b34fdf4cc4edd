"""Hash edge weights and predicate-pushdown matching."""

from functools import partial

import numpy as np
import pytest

from repro.graphs import DynamicGraph, edge_weights
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.query import QueryGraph
from repro.testing import use_reference_kernels
from repro.testing.reference import count_embeddings
from repro.testing.validation import verify_stream

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
PRED_TRIANGLE = TRIANGLE.with_edge_predicates(
    {(0, 1): (0.0, 0.6), (1, 2): (0.25, 1.0)}, name="triangle~w"
)


def small_case(seed=1):
    g = erdos_renyi(40, 5.0, num_labels=2, seed=seed)
    return derive_stream(g, update_fraction=0.3, batch_size=12, seed=seed)


class TestHashWeights:
    def test_deterministic_and_orientation_free(self):
        assert edge_weights(3, 17) == edge_weights(3, 17)
        assert edge_weights(3, 17) == edge_weights(17, 3)

    def test_range_and_spread(self):
        us = np.arange(1000)
        ws = edge_weights(us, us + 1)
        assert np.all((ws >= 0.0) & (ws < 1.0))
        # avalanche-mixed: near-uniform over [0, 1) even on adjacent ids
        assert 0.4 < ws.mean() < 0.6
        assert len(np.unique(ws)) == 1000

    def test_vector_matches_scalar(self):
        us = np.array([0, 5, 9])
        vs = np.array([1, 2, 7])
        ws = edge_weights(us, vs)
        for i in range(3):
            assert ws[i] == edge_weights(int(us[i]), int(vs[i]))

    def test_broadcasts_scalar_anchor(self):
        cand = np.array([1, 2, 3])
        ws = edge_weights(7, cand)
        assert ws.shape == (3,)
        assert ws[1] == edge_weights(7, 2)


class TestPredicatePushdown:
    def test_executors_agree_with_oracle(self):
        """Both executors x both estimators, predicated query, oracle on."""
        g0, batches = small_case(seed=3)
        for executor in ("frontier", "recursive"):
            for estimator in ("frontier", "recursive"):
                report = verify_stream(
                    ["GCSM", "ZC"], g0, PRED_TRIANGLE, batches[:3],
                    against_oracle=True,
                    prepare=partial(
                        use_reference_kernels, matcher=executor == "recursive",
                        estimator=estimator == "recursive",
                    ),
                )
                assert report.oracle_checked

    def test_predicates_restrict_counts(self):
        g = erdos_renyi(40, 6.0, num_labels=1, seed=5)
        full = count_embeddings(g, TRIANGLE)
        pred = count_embeddings(g, PRED_TRIANGLE)
        assert 0 < pred < full

    def test_full_range_predicate_matches_unpredicated(self):
        """[0, 1] bounds accept every weight: same embeddings, same delta."""
        g0, batches = small_case(seed=7)
        permissive = TRIANGLE.with_edge_predicates(
            {e: (0.0, 1.0) for e in TRIANGLE.edges}, name="triangle~all"
        )
        plain = verify_stream(["GCSM"], g0, TRIANGLE, batches[:2])
        loose = verify_stream(["GCSM"], g0, permissive, batches[:2])
        assert plain.delta_per_batch == loose.delta_per_batch

    def test_dynamic_engine_matches_recount(self):
        """Signed delta accumulates to a from-scratch final recount."""
        from repro.core.baselines import make_system

        g0, batches = small_case(seed=11)
        system = make_system("GCSM", g0, PRED_TRIANGLE, seed=0)
        delta = sum(system.process_batch(b).delta_count for b in batches[:3])
        store = DynamicGraph(g0)
        for b in batches[:3]:
            store.apply_batch(b)
            store.reorganize()
        final = store.snapshot()
        assert count_embeddings(g0, PRED_TRIANGLE) + delta == count_embeddings(
            final, PRED_TRIANGLE
        )


class TestQueryGraphPredicates:
    def test_validation(self):
        with pytest.raises(ValueError):
            TRIANGLE.with_edge_predicates({(0, 1): (0.9, 0.1)})
        with pytest.raises(KeyError):
            TRIANGLE.with_edge_predicates({(1, 9): (0.0, 1.0)})

    def test_identity_includes_predicates(self):
        assert PRED_TRIANGLE != TRIANGLE
        assert hash(PRED_TRIANGLE) != hash(TRIANGLE)
        again = TRIANGLE.with_edge_predicates(
            {(0, 1): (0.0, 0.6), (1, 2): (0.25, 1.0)}, name="triangle~w"
        )
        assert PRED_TRIANGLE == again

    def test_lookup_helpers(self):
        assert PRED_TRIANGLE.has_predicates()
        assert not TRIANGLE.has_predicates()
        assert PRED_TRIANGLE.predicate_for_index(PRED_TRIANGLE.edge_index(1, 0)) == (0.0, 0.6)
        assert PRED_TRIANGLE.predicate_for_index(PRED_TRIANGLE.edge_index(0, 2)) is None


class TestPredicatesOnEveryConfiguration:
    """Predicates are pushed down in the engine core, on each edge's hash
    weight, so predicated queries behave the same under every placement,
    schedule and fleet size."""

    @pytest.mark.parametrize(
        "spec", ["GCSM", "Pipelined", "ZC", "UM", "Naive", "VSGM", "CPU",
                 "RapidFlow", "GCSM@2", "Pipelined@2", "GCSM+rulebook",
                 "GCSM+rulebook@2"],
    )
    def test_every_system_matches_the_oracle(self, spec):
        from repro.core.baselines import SYSTEMS, make_system
        from repro.core.multiquery import Rulebook

        assert set(SYSTEMS) <= {
            "GCSM", "Pipelined", "ZC", "UM", "Naive", "VSGM", "CPU", "RapidFlow"
        }  # a new system row must be added to the parametrisation above
        g = erdos_renyi(40, 7.0, num_labels=1, seed=21)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=12, seed=21)
        name, _, devices = spec.partition("@")
        settings = {"devices": int(devices)} if devices else {}
        name, _, rulebook = name.partition("+")
        query = Rulebook([PRED_TRIANGLE, TRIANGLE]) if rulebook else PRED_TRIANGLE
        engine = make_system(name, g0, query, seed=0, **settings)
        prev = count_embeddings(g0, PRED_TRIANGLE)
        deltas = []
        for batch in batches[:4]:
            result = engine.process_batch(batch)
            now = count_embeddings(engine.snapshot(), PRED_TRIANGLE)
            delta = (result.delta_counts[PRED_TRIANGLE.name] if rulebook
                     else result.delta_count)
            assert delta == now - prev, spec
            deltas.append(delta)
            prev = now
        assert any(deltas), "the stream must move the predicated count"
