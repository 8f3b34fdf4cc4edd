"""Tests for WCOJ plan compilation (paper Fig. 2 structure)."""

import pytest

from repro.query import (
    QUERIES,
    EdgeVersion,
    QueryGraph,
    compile_delta_plans,
    compile_static_plan,
)
from repro.query.plan import greedy_matching_order


def square_with_diag():
    # the paper's Fig. 1 query: 4 vertices, 5 edges
    return QueryGraph(
        4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], name="fig1-query"
    )


class TestMatchingOrder:
    def test_starts_with_root(self):
        q = square_with_diag()
        order = greedy_matching_order(q, 1, 2)
        assert order[:2] == (1, 2)
        assert sorted(order) == [0, 1, 2, 3]

    def test_every_vertex_connected_to_prefix(self):
        for q in QUERIES.values():
            for u, v in q.edges:
                order = greedy_matching_order(q, u, v)
                for p in range(2, len(order)):
                    assert q.neighbors(order[p]) & set(order[:p])

    def test_rejects_non_edge_root(self):
        q = square_with_diag()
        with pytest.raises(ValueError):
            greedy_matching_order(q, 0, 3)


class TestStaticPlan:
    def test_structure(self):
        q = square_with_diag()
        plan = compile_static_plan(q)
        assert plan.delta_index is None
        assert plan.depth == 4
        assert len(plan.levels) == 2
        # all constraints read the single snapshot
        for lvl in plan.levels:
            for c in lvl.constraints:
                assert c.version is EdgeVersion.CURRENT

    def test_every_query_edge_covered_exactly_once(self):
        for q in list(QUERIES.values()) + [square_with_diag()]:
            plan = compile_static_plan(q)
            covered = [c.edge_index for lvl in plan.levels for c in lvl.constraints]
            covered.append(q.edge_index(*plan.order[:2]))
            assert sorted(covered) == list(range(q.num_edges))

    def test_explicit_root(self):
        q = square_with_diag()
        plan = compile_static_plan(q, root_edge=(1, 3))
        assert plan.order[:2] == (1, 3)


class TestDeltaPlans:
    def test_one_plan_per_edge(self):
        q = square_with_diag()
        plans = compile_delta_plans(q)
        assert len(plans) == q.num_edges
        for i, plan in enumerate(plans):
            assert plan.delta_index == i
            assert plan.order[:2] == q.edges[i]

    def test_old_new_versioning_matches_ivm_decomposition(self):
        """Constraint on edge j must read OLD iff j < i (paper Eq. 1)."""
        for q in list(QUERIES.values()) + [square_with_diag()]:
            for i, plan in enumerate(compile_delta_plans(q)):
                for lvl in plan.levels:
                    for c in lvl.constraints:
                        assert c.edge_index != i
                        expected = EdgeVersion.OLD if c.edge_index < i else EdgeVersion.NEW
                        assert c.version is expected, (q.name, i, c)

    def test_every_edge_covered_in_every_delta_plan(self):
        q = QUERIES["Q4"]
        for plan in compile_delta_plans(q):
            covered = [c.edge_index for lvl in plan.levels for c in lvl.constraints]
            covered.append(q.edge_index(*plan.order[:2]))
            assert sorted(covered) == list(range(q.num_edges))

    def test_first_plan_all_new_last_plan_all_old(self):
        """ΔM_1 joins only updated relations; ΔM_m only original ones."""
        q = square_with_diag()
        plans = compile_delta_plans(q)
        first_versions = {c.version for lvl in plans[0].levels for c in lvl.constraints}
        last_versions = {c.version for lvl in plans[-1].levels for c in lvl.constraints}
        assert first_versions == {EdgeVersion.NEW}
        assert last_versions == {EdgeVersion.OLD}

    def test_levels_have_labels_from_query(self):
        q = QUERIES["Q1"]
        for plan in compile_delta_plans(q):
            for lvl in plan.levels:
                assert lvl.label == q.label(lvl.query_vertex)

    def test_single_edge_query(self):
        q = QueryGraph(2, [(0, 1)], [3, 4])
        plans = compile_delta_plans(q)
        assert len(plans) == 1
        assert plans[0].levels == ()
        assert plans[0].root_labels() == (3, 4)


class TestExecutionSignatures:
    """Prefix-alignable structural identities driving the execution trie."""

    def test_signature_ignores_provenance(self):
        from repro.query.plan import level_signature

        q = QUERIES["Q1"]
        for plan in compile_delta_plans(q):
            for lvl in plan.levels:
                sig = level_signature(lvl)
                assert sig[0] == lvl.label
                # positions/versions present, edge_index/query_vertex absent
                assert sig[1] == tuple(
                    (c.position, c.version.value) for c in lvl.constraints
                )

    def test_isomorphic_copies_share_full_signatures(self):
        from repro.query.plan import level_signature, root_signature

        def signature(plan):
            return root_signature(plan), tuple(map(level_signature, plan.levels))

        q = square_with_diag()
        clone = QueryGraph(
            q.num_vertices, list(q.edges), list(q.labels), name="clone"
        )
        a = [signature(p) for p in compile_delta_plans(q)]
        b = [signature(p) for p in compile_delta_plans(clone)]
        assert a == b

    def test_root_signature_is_the_label_pair(self):
        from repro.query.plan import root_signature

        for plan in compile_delta_plans(QUERIES["Q3"]):
            assert root_signature(plan) == plan.root_labels()
