"""The pre-filter's array program against its per-plan oracle.

:meth:`repro.core.prefilter.InvariantIndex.decide` decides a batch for every
query at once — one dominance table over the stacked requirement rows and
the batch's endpoints, two lookups per plan.  The oracle,
:func:`repro.testing.prefilter_decision_reference`, is the loop it replaced:
feasibility query by query, dominance plan by plan and label by label, the
one-word label signature tested first.  On random labelled graphs and dirty
``coalesce`` streams (deletes exercising the overlay, new vertices with
labels the graph has not seen, wildcard query labels, query labels ≥ 64
that the signature aliased, infeasible queries and batches that net to
nothing) production must equal the oracle in every field a caller reads:
the per-plan masks, ``skip_batch``, the reason, the root counts, the
estimate batch's edges and the charged compute.  A rulebook's runners must
each equal the oracle and each root group's mask must equal the ref-by-ref
OR (:func:`repro.testing.group_masks_reference`); the index must equal a
rebuild after every batch.

The ``check_*`` functions are the gates ``tests/test_mutants.py`` turns red.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiquery import Rulebook
from repro.core.prefilter import InvariantIndex
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import UpdateBatch
from repro.query import QueryGraph
from repro.query.plan import compile_delta_plans
from repro.testing import group_masks_reference, prefilter_decision_reference


def random_graph(rng, n: int, num_labels: int) -> StaticGraph:
    pairs = rng.integers(0, n, size=(3 * n, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.unique(np.sort(pairs, axis=1), axis=0)
    return StaticGraph.from_edges(n, keys, rng.integers(0, num_labels, size=n))


def random_query(rng, name: str, num_labels: int) -> QueryGraph:
    """A connected pattern on 2–4 vertices; labels drawn from the graph's,
    the wildcard, one the graph lacks and two past 63."""
    k = int(rng.integers(2, 5))
    edges = {(int(rng.integers(0, u)), u) for u in range(1, k)}  # a spanning tree
    for _ in range(int(rng.integers(0, 3))):
        u, w = sorted(rng.choice(k, size=2, replace=False).tolist())
        edges.add((u, w))
    pool = [*range(num_labels), -1, -1, num_labels, 64, 64 + num_labels]
    labels = [int(pool[i]) for i in rng.integers(0, len(pool), size=k)]
    return QueryGraph(k, sorted(edges), labels, name=name)


def alias_of(query: QueryGraph, name: str, rng) -> QueryGraph:
    """An isomorphic copy under a random vertex permutation."""
    perm = rng.permutation(query.num_vertices).tolist()
    labels = [0] * query.num_vertices
    for u in range(query.num_vertices):
        labels[perm[u]] = query.label(u)
    edges = sorted(tuple(sorted((perm[u], perm[w]))) for u, w in query.edges)
    return QueryGraph(query.num_vertices, edges, labels, name=name)


def random_batches(rng, g0: StaticGraph, num_labels: int, count: int) -> list[UpdateBatch]:
    """Dirty batches: inserts (some duplicates), deletes of existing edges
    (some phantom), new vertices with unseen labels, and now and then a
    batch that nets to nothing."""
    edges = {tuple(e) for e in g0.edge_array().tolist()}
    n = g0.num_vertices
    out = []
    for _ in range(count):
        if rng.random() < 0.15 and edges:  # a duplicate insert only: nets to nothing
            out.append(UpdateBatch([sorted(edges)[0]], [1]))
            continue
        ups, signs, new_labels = [], [], {}
        for _ in range(int(rng.integers(1, 12))):
            if edges and rng.random() < 0.45:
                pick = sorted(edges)[int(rng.integers(0, len(edges)))]
                ups.append(pick)
                signs.append(-1)
            else:
                hi = n + (2 if rng.random() < 0.3 else 0)
                u, w = rng.integers(0, hi, size=2).tolist()
                if u == w:
                    continue
                ups.append((u, w))
                signs.append(1)
                for v in (u, w):
                    if v >= n:
                        new_labels[v] = int(rng.choice([num_labels, 64, 0]))
        if not ups:
            ups, signs = [(0, 1)], [1]
        batch = UpdateBatch(ups, signs, new_labels)
        out.append(batch)
        for (u, w), s in zip(ups, signs):  # the model only steers later deletes
            key = (min(u, w), max(u, w))
            if s > 0:
                edges.add(key)
            else:
                edges.discard(key)
        n = max(n, max(max(e) for e in ups) + 1)
    return out


def random_case(seed: int, num_queries: int = 1):
    rng = np.random.default_rng(seed)
    num_labels = int(rng.integers(1, 4))
    g0 = random_graph(rng, int(rng.integers(4, 20)), num_labels)
    queries = [random_query(rng, f"q{i}", num_labels) for i in range(num_queries)]
    if num_queries > 1:
        queries.append(alias_of(queries[0], "z_alias", rng))
    return g0, queries, random_batches(rng, g0, num_labels, 4)


def assert_same_decision(got, want) -> None:
    assert got.skip_batch == want.skip_batch
    assert got.reason == want.reason
    assert (got.roots_total, got.roots_passing) == (want.roots_total, want.roots_passing)
    assert len(got.masks) == len(want.masks)
    for a, b in zip(got.masks, want.masks):
        assert a.dtype == bool and np.array_equal(a, b)
    if want.estimate_batch is None:
        assert got.estimate_batch is None
    else:
        assert np.array_equal(got.estimate_batch.edges, want.estimate_batch.edges)
        assert np.array_equal(got.estimate_batch.signs, want.estimate_batch.signs)
    assert got.counters.compute_ops == want.counters.compute_ops


def replay(g0, batches, decide) -> None:
    """Apply each batch to a store and its index, ``decide(index, batch)``,
    settle, and check the index against a rebuild."""
    graph = DynamicGraph(g0)
    index = InvariantIndex(graph)
    for raw in batches:
        batch = graph.apply_batch(raw, mode="coalesce")
        index.apply_batch(batch)
        decide(index, batch)
        graph.reorganize()
        index.close_batch()
        index.assert_consistent()


def check_query(g0, query, batches) -> None:
    """One query: ``evaluate`` equals the oracle on every batch."""
    plans = compile_delta_plans(query)

    def decide(index, batch):
        assert_same_decision(index.evaluate(plans, batch),
                             prefilter_decision_reference(index, plans, batch))

    replay(g0, batches, decide)


def check_rulebook(g0, queries, batches, shared: bool) -> None:
    """A rulebook: every runner equals the oracle, every root group's mask
    the ref-by-ref OR, and only the representatives are charged."""
    rulebook = Rulebook(queries, shared=shared)

    def decide(index, batch):
        decision = rulebook.evaluate(index, batch)
        runners = rulebook.representatives if shared else rulebook.queries
        assert set(decision.by_query) == {q.name for q in runners}
        want = {q.name: prefilter_decision_reference(index, rulebook.plans[q.name], batch)
                for q in runners}
        for name, one in want.items():
            assert_same_decision(decision.by_query[name], one)
        skip = frozenset(q.name for q in rulebook.queries
                         if want[rulebook.canonical_of[q.name]].skip_batch)
        assert decision.skip_queries == skip
        assert decision.skip_batch == (len(skip) == len(rulebook.queries))
        groups = group_masks_reference(rulebook.trie, want, skip, batch, index.graph.labels)
        assert len(decision.masks) == len(groups)
        for a, b in zip(decision.masks, groups):
            assert np.array_equal(a, b)
        assert decision.counters.compute_ops == sum(
            want[q.name].counters.compute_ops for q in rulebook.representatives
        )

    replay(g0, batches, decide)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_query_equals_the_oracle(seed):
    g0, (query,), batches = random_case(seed)
    check_query(g0, query, batches)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_queries=st.integers(2, 5), shared=st.booleans())
def test_rulebook_equals_the_oracle(seed, num_queries, shared):
    g0, queries, batches = random_case(seed, num_queries)
    check_rulebook(g0, queries, batches, shared)


def test_generated_cases_reach_every_branch():
    """The generator's cases include deletes (the overlay), skipped and
    live batches, infeasible queries, reduced estimate batches, new labels
    and batches that net to nothing."""
    seen = set()
    for seed in range(40):
        g0, (query,), batches = random_case(seed)
        plans = compile_delta_plans(query)
        if any(lab >= 64 for lab in query.labels):
            seen.add("label>=64")
        if -1 in query.labels:
            seen.add("wildcard")

        def decide(index, batch, plans=plans):
            d = index.evaluate(plans, batch)
            seen.add(d.reason or "live")
            if len(batch) == 0:
                seen.add("empty")
            if index._del_vids.size:
                seen.add("overlay")
            if index.num_labels > int(g0.labels.max()) + 1:
                seen.add("new label")
            if d.estimate_batch is not None and d.estimate_batch is not batch:
                seen.add("reduced")

        replay(g0, batches, decide)
    assert seen >= {"label>=64", "wildcard", "infeasible", "no-roots", "live", "empty",
                    "overlay", "new label", "reduced"}
