"""Unit + property tests for the dynamic CPU-side store (paper Sec. V-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import BatchConflictError, DynamicGraph, StaticGraph, UpdateBatch
from repro.graphs import dynamic_graph
from repro.testing import (
    contains_edges, edge_array_reference, merge_runs_reference, neighbors_new,
    neighbors_new_parts, neighbors_old, stored_runs,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream


def lists(dg, v):
    """``(N(v), N'(v))`` as lists, from the store's bulk read, each equal to
    the per-vertex slab decode of ``repro.testing``."""
    old, new = (dg.read(np.array([v]), version)[0].tolist() for version in (True, False))
    assert old == neighbors_old(dg, v).tolist() and new == neighbors_new(dg, v).tolist()
    return old, new


def snapshot_old(dg):
    """The store's pre-batch version ``G_k`` as a :class:`StaticGraph`."""
    return StaticGraph.from_edges(dg.num_vertices, edge_array_reference(dg, old=True),
                                  dg.labels.copy())


def plus(g, edges):
    """``g`` with the undirected ``edges`` added."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return StaticGraph.from_edges(g.num_vertices, np.concatenate([g.edge_array(), edges]),
                                  g.labels.copy())


def base_graph():
    # path 0-1-2-3 plus chord 0-2
    return StaticGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)], np.array([0, 1, 0, 1]))


class TestInsertions:
    def test_insert_appends_to_delta(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 3)], [1]))
        assert stored_runs(dg, 0)[1].tolist() == [3]
        assert stored_runs(dg, 3)[1].tolist() == [0]
        base, delta = neighbors_new_parts(dg, 0)
        assert base.tolist() == [1, 2] and delta.tolist() == [3]
        assert lists(dg, 0) == ([1, 2], [1, 2, 3])

    def test_delta_run_sorted(self):
        dg = DynamicGraph(StaticGraph.from_edges(6, []))
        dg.apply_batch(UpdateBatch([(0, 5), (0, 2), (0, 4)], [1, 1, 1]))
        assert stored_runs(dg, 0)[1].tolist() == [2, 4, 5]
        assert lists(dg, 0) == ([], [2, 4, 5])

    def test_edge_count_updated(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 3), (1, 3)], [1, 1]))
        assert dg.num_edges == 6

    def test_new_vertices_grow_store(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(2, 6)], [1], new_vertex_labels={6: 7, 5: 3}))
        assert dg.num_vertices == 7
        assert dg.labels[6] == 7
        assert dg.labels[5] == 3
        assert dg.labels[4] == 0  # implicit new vertex gets default label
        assert lists(dg, 6) == ([], [2])
        assert dg.run_lengths(np.arange(7))[1].tolist() == [2, 2, 4, 1, 0, 0, 1]

    def test_amortized_doubling(self):
        dg = DynamicGraph(StaticGraph.from_edges(2, []))
        n, moves = 64, 0
        for i in range(n):
            before = dg._cap[0]
            dg.apply_batch(UpdateBatch([(0, i + 2)], [1], new_vertex_labels={}))
            dg.reorganize()
            moves += int(dg._cap[0] != before)  # a list moves only to a larger window
        # O(log n) moves of vertex 0's list, not O(n)
        assert moves <= int(np.log2(n) + 2)


class TestDeletions:
    def test_delete_marks_negative_in_base(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 2)], [-1]))
        # N still sees the deleted edge; N' does not
        assert stored_runs(dg, 0)[0].tolist() == [1, -3]  # the mark of 2
        base, delta = neighbors_new_parts(dg, 0)
        assert base.tolist() == [1] and delta.size == 0
        assert lists(dg, 0) == ([1, 2], [1])
        assert contains_edges(dg.snapshot(), np.array([0, 0]), np.array([2, 1])).tolist() == [
            False, True]

    def test_delete_vertex_zero_neighbor(self):
        # the -(v+1) encoding must represent deletion of neighbor 0
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 1)], [-1]))
        assert stored_runs(dg, 1)[0].tolist() == [-1, 2]
        assert lists(dg, 1) == ([0, 2], [2])

    def test_delete_missing_edge_rejected(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(ValueError):
            dg.apply_batch(UpdateBatch([(1, 3)], [-1]))

    def test_degrees_old_new(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 2), (0, 3)], [-1, 1]))
        everyone = np.arange(dg.num_vertices)
        old = dg.run_lengths(everyone)[0]  # the base run is the pre-batch list
        assert old[0] == 2
        assert dg.degrees_new()[0] == 2  # -1 +1
        assert old[3] == 1
        assert dg.degrees_new()[3] == 2
        assert dg.read(everyone, True)[1].tolist() == old.tolist()
        assert dg.read(everyone, False)[1].tolist() == dg.degrees_new().tolist()


class TestReorganize:
    def test_reorganize_restores_sorted_invariant(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 2), (0, 3)], [-1, 1]))
        snap = dg.snapshot()
        stats = dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == snap
        assert stats.lists_touched == 3  # vertices 0, 2, 3 (vertex 0 touched twice)
        assert stats.deletions_dropped == 2  # both directions of (0,2)
        assert stats.insertions_merged == 2

    def test_batch_lifecycle_enforced(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(ValueError):
            dg.reorganize()
        dg.apply_batch(UpdateBatch([(0, 3)], [1]))
        with pytest.raises(ValueError):
            dg.apply_batch(UpdateBatch([(1, 3)], [1]))
        dg.reorganize()
        dg.apply_batch(UpdateBatch([(1, 3)], [1]))
        dg.reorganize()
        assert dg.num_edges == 6


class TestConflictHardening:
    """Regression tests for the three real-world stream crashes/corruptions:
    same-batch insert+delete, duplicate insert, double delete."""

    def test_same_batch_insert_then_delete_nets_away(self):
        # regression: this batch used to crash _mark_deleted (the inserted
        # edge lives in the unsorted ΔN run, not the sorted base run)
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 3), (0, 3)], [1, -1]), mode="coalesce")
        assert len(eff) == 0
        assert dg.num_edges == 4
        assert dg.snapshot() == base_graph()
        dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == base_graph()

    def test_duplicate_insert_is_idempotent_under_coalesce(self):
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 1), (1, 3)], [1, 1]), mode="coalesce")
        assert eff.edges.tolist() == [[1, 3]]
        assert dg.num_edges == 5  # exact: the duplicate did not double-count
        assert lists(dg, 0)[1] == [1, 2]  # no duplicate entry
        dg.reorganize()
        dg.check_invariants()

    def test_duplicate_insert_rejected_under_strict(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(BatchConflictError):
            dg.apply_batch(UpdateBatch([(0, 1)], [1]), mode="strict")
        # store untouched and still settled: the next batch applies cleanly
        assert dg.num_edges == 4
        dg.apply_batch(UpdateBatch([(1, 3)], [1]), mode="strict")
        dg.reorganize()
        dg.check_invariants()

    def test_double_delete_deduped_under_coalesce(self):
        # regression: the second delete of (0, 2) used to crash on the
        # already-marked base entry
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 2), (2, 0)], [-1, -1]), mode="coalesce")
        assert len(eff) == 1
        assert dg.num_edges == 3
        dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == base_graph().without_edges(np.array([[0, 2]]))

    def test_double_delete_diagnosed_under_strict(self):
        dg = DynamicGraph(base_graph())
        with pytest.raises(BatchConflictError, match="updated more than once"):
            dg.apply_batch(UpdateBatch([(0, 2), (0, 2)], [-1, -1]), mode="strict")
        assert dg.num_edges == 4

    def test_ignore_mode_keeps_first_occurrence(self):
        dg = DynamicGraph(base_graph())
        eff = dg.apply_batch(UpdateBatch([(0, 2), (0, 2)], [-1, 1]), mode="ignore")
        assert eff.signs.tolist() == [-1]
        assert dg.num_edges == 3
        dg.reorganize()
        dg.check_invariants()

    def test_unkeyable_vertex_id_rejected_before_any_write(self):
        # edge keys are lo * n + hi in int64: an id past 2**31 cannot be keyed
        # (nor could the store ever grow to hold it)
        dg = DynamicGraph(base_graph())
        with pytest.raises(ValueError, match="overflow the int64 edge keys"):
            dg.apply_batch(UpdateBatch([(0, 3), (1, 2**31)], [1, -1]), mode="coalesce")
        assert not dg.batch_open and dg.snapshot() == base_graph()
        dg.apply_batch(UpdateBatch([(0, 3)], [1]))
        dg.reorganize()
        dg.check_invariants()

    def test_last_canonical_report_exposed(self):
        dg = DynamicGraph(base_graph())
        dg.apply_batch(UpdateBatch([(0, 1), (1, 3)], [1, 1]), mode="coalesce")
        rep = dg.last_canonical_report
        assert rep is not None
        assert rep.duplicate_inserts == 1 and rep.new_inserts == 1


class TestVectorizedMerge:
    def test_merge_matches_scalar_reference(self):
        from repro.testing import merge_sorted

        rng = np.random.default_rng(0)
        for _ in range(50):
            pool = rng.choice(200, size=int(rng.integers(0, 40)), replace=False)
            split = int(rng.integers(0, pool.size + 1))
            kept = np.sort(pool[:split]).astype(np.int64)
            delta = np.sort(pool[split:]).astype(np.int64)
            assert merge_sorted(kept, delta).tolist() == \
                merge_runs_reference(kept, delta).tolist()


class TestSnapshots:
    def test_snapshot_old_equals_initial(self):
        g = erdos_renyi(60, 4.0, seed=7)
        g0, batches = derive_stream(g, update_fraction=0.3, batch_size=16, seed=7)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        assert snapshot_old(dg) == g0

    def test_replay_stream_matches_incremental_application(self):
        g = erdos_renyi(60, 4.0, seed=11)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=8, seed=11)
        dg = DynamicGraph(g0)
        expected = g0
        for batch in batches:
            expected = plus(expected, batch.insert_edges()).without_edges(batch.delete_edges())
            dg.apply_batch(batch)
            assert dg.snapshot() == expected
            dg.reorganize()
            dg.check_invariants()
            assert dg.snapshot() == expected
            assert dg.num_edges == expected.num_edges


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_random_batches_roundtrip(seed):
    """For random graphs and random signed batches, snapshot(old/new) always
    matches independent edge-set arithmetic and reorganize() is a no-op on
    the logical graph."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 25))
    g = erdos_renyi(n, 3.0, seed=int(rng.integers(0, 2**31)))
    dg = DynamicGraph(g)
    current = g
    for _ in range(3):
        edges = current.edge_array()
        dels = []
        if edges.shape[0]:
            k = int(rng.integers(0, min(4, edges.shape[0]) + 1))
            if k:
                dels = edges[rng.choice(edges.shape[0], size=k, replace=False)].tolist()
        ins = []
        for _ in range(int(rng.integers(0, 4))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and v not in current.neighbors(u):
                if (min(u, v), max(u, v)) not in {tuple(sorted(e)) for e in ins}:
                    ins.append((u, v))
        updates = [(e, -1) for e in dels] + [(e, 1) for e in ins]
        if not updates:
            continue
        batch = UpdateBatch([e for e, _ in updates], [s for _, s in updates])
        dg.apply_batch(batch)
        assert snapshot_old(dg) == current
        current = plus(current.without_edges(np.array(dels).reshape(-1, 2)), ins)
        assert dg.snapshot() == current
        dg.reorganize()
        dg.check_invariants()
        assert dg.snapshot() == current


class TestBulkWriteSide:
    """The write side is whole-batch: the store asks the settled slab one
    question ("is (u, v) an edge, and at which slot") once per batch, one
    fixed-depth bisection of every probe at once, and settles ``N'`` once,
    not once per edge and per list."""

    @staticmethod
    def mixed_batch(g, size, rng):
        """``size`` updates: half deletes of present edges, half fresh inserts."""
        edges = g.edge_array()
        dels = edges[rng.choice(edges.shape[0], size=size // 2, replace=False)]
        seen, ins = {tuple(e) for e in edges.tolist()}, []
        while len(ins) < size - size // 2:
            u, v = (int(x) for x in rng.integers(0, g.num_vertices, size=2))
            if u != v and (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                ins.append((u, v))
        ins = np.array(ins)
        signs = np.concatenate([-np.ones(dels.shape[0]), np.ones(ins.shape[0])])
        order = rng.permutation(size)
        return UpdateBatch(np.concatenate([dels, ins])[order], signs[order])

    def test_binary_searches_per_batch_do_not_grow_with_the_batch(self, monkeypatch):
        """Every ``np.searchsorted`` and every step of the store's bisection
        is one search over a whole batch's worth of probes, and their count
        is the same for 32 updates as for 1 024."""
        g = erdos_renyi(600, 12.0, seed=3)
        real, bisect, calls = np.searchsorted, dynamic_graph._bisect, []

        def counting(*args, **kwargs):
            calls.append(len(args[1]) if np.ndim(args[1]) else 1)
            return real(*args, **kwargs)

        def stepping(pool, starts, lengths, values, depth):
            calls.extend([values.size] * depth)  # each step probes every value
            return bisect(pool, starts, lengths, values, depth)

        counts = {}
        for size in (32, 1024):
            store = DynamicGraph(g)
            batch = self.mixed_batch(g, size, np.random.default_rng(size))
            with monkeypatch.context() as patch:
                patch.setattr(np, "searchsorted", counting)
                patch.setattr(dynamic_graph, "_bisect", stepping)
                calls.clear()
                store.apply_batch(batch)
                store.reorganize()
                counts[size] = len(calls)
                # every search is over a whole batch's worth of probes
                assert min(calls) >= size // 2
            store.check_invariants()
            assert store.snapshot() == plus(g.without_edges(batch.delete_edges()),
                                            batch.insert_edges())
        # the bisection's depth: the bit length of the largest degree
        assert counts[32] == counts[1024] == int(g.degrees().max()).bit_length() <= 6


@st.composite
def dirty_case(draw):
    """A small graph and three dirty batches over it: duplicates, phantom
    deletes (unknown vertex ids included), same-batch churn, both
    orientations of one edge, labelled and unlabelled new vertices."""
    n = draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    vertex = st.integers(0, n + 2)
    update = st.tuples(vertex, vertex, st.sampled_from([1, -1])).filter(lambda t: t[0] != t[1])
    batches = draw(st.lists(
        st.tuples(
            st.lists(update, min_size=1, max_size=10),
            st.dictionaries(st.integers(n, n + 2), st.integers(1, 3), max_size=2),
        ),
        min_size=3, max_size=3,
    ))
    return n, base, batches


def classify(edge_set, updates, mode):
    """Python-set twin of the store's netting: the report's counters and the
    surviving updates in stream order."""
    groups = {}
    for i, (u, v, s) in enumerate(updates):
        groups.setdefault((min(u, v), max(u, v)), []).append((i, s))
    counts = dict(new_inserts=0, duplicate_inserts=0, valid_deletes=0, phantom_deletes=0)
    kept = []
    for key, ops in groups.items():
        i, s = ops[0] if mode == "ignore" else ops[-1]
        effective = (key not in edge_set) if s > 0 else (key in edge_set)
        name = ("new_inserts" if effective else "duplicate_inserts") if s > 0 else (
            "valid_deletes" if effective else "phantom_deletes")
        counts[name] += 1
        if effective:
            kept.append(i)
    counts["intra_batch_dropped"] = len(updates) - len(groups)
    return counts, [updates[i] for i in sorted(kept)]


def adjacency(edge_set, n):
    return [sorted({v for u, v in edge_set if u == w} | {u for u, v in edge_set if v == w})
            for w in range(n)]


def edge_set_of(graph):
    return {tuple(e) for e in graph.edge_array().tolist()}


def check_dirty(case, mode):
    """Replay ``case``'s batches under ``mode`` on a store and a model made of
    Python sets: the report, the effective batch, both snapshots, the
    reorganize accounting and the invariants.  A ``strict`` batch raises
    exactly when the model counts an anomaly, with the model's counters, and
    leaves the store byte for byte as it was."""
    n, base, batches = case
    dg = DynamicGraph(StaticGraph.from_edges(n, base, np.zeros(n, dtype=np.int64)))
    edges, labels = set(base), [0] * n
    for updates, new_labels in batches:
        batch = UpdateBatch([(u, v) for u, v, _ in updates], [s for _, _, s in updates], new_labels)
        counts, kept = classify(edges, updates, mode)
        anomalies = counts["duplicate_inserts"] + counts["phantom_deletes"] + counts[
            "intra_batch_dropped"]
        if mode == "strict" and anomalies:
            tables, pool = dg._tables.copy(), dg._pool[: dg._tail].copy()
            report, snapshot = dg.last_canonical_report, dg.snapshot()
            with pytest.raises(BatchConflictError) as rejected:
                dg.apply_batch(batch, mode=mode)
            assert {name: getattr(rejected.value.report, name) for name in counts} == counts
            assert np.array_equal(dg._tables, tables)
            assert np.array_equal(dg._pool[: dg._tail], pool)
            assert dg.last_canonical_report is report and dg.snapshot() == snapshot
            assert not dg.batch_open
            dg.check_invariants()
            continue
        effective = dg.apply_batch(batch, mode=mode)

        report = dg.last_canonical_report
        assert {name: getattr(report, name) for name in counts} == counts
        assert (report.input_size, report.output_size) == (len(updates), len(kept))
        assert list(zip(*effective.edges.T.tolist(), effective.signs.tolist())) == kept
        assert (effective is batch) == (len(kept) == len(updates))

        inserts = {(min(u, v), max(u, v)) for u, v, s in kept if s > 0}
        deletes = {(min(u, v), max(u, v)) for u, v, s in kept if s < 0}
        after = (edges - deletes) | inserts
        grown = max([len(labels)] + [max(u, v) + 1 for u, v, _ in kept])
        labels += [new_labels.get(v, 0) for v in range(len(labels), grown)]
        assert dg.num_vertices == grown and dg.labels.tolist() == labels
        assert edge_set_of(snapshot_old(dg)) == edges
        assert edge_set_of(dg.snapshot()) == after and dg.num_edges == len(after)
        endpoints = {w for u, v, _ in kept for w in (u, v)}
        assert dg.touched_vertices == endpoints
        dg.check_invariants()

        stats = dg.reorganize()
        degree = adjacency(after, grown)
        assert (stats.lists_touched, stats.merged_elements,
                stats.deletions_dropped, stats.insertions_merged) == (
            len(endpoints), sum(len(degree[w]) for w in endpoints),
            2 * len(deletes), 2 * len(inserts))
        assert edge_set_of(dg.snapshot()) == after and not dg.touched_vertices
        dg.check_invariants()
        edges = after


def dirty_example(seed: int):
    """A fixed ``dirty_case``: the same shapes drawn from a seeded generator,
    every edge of the batches updated two or three times over."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(0, 8))]]
    batches = []
    for _ in range(3):
        ends = rng.integers(0, n + 3, size=(int(rng.integers(1, 5)), 2))
        ends = ends[ends[:, 0] != ends[:, 1]].tolist() or [[0, 1]]
        updates = [(u, v, int(rng.choice([1, -1]))) for u, v in ends
                   for _ in range(int(rng.integers(1, 4)))]
        updates = [updates[i] for i in rng.permutation(len(updates))]
        batches.append((updates, {n: 2} if rng.random() < 0.5 else {}))
    return n, base, batches


#: the fixed cases ``tests/test_mutants.py`` replays
DIRTY_SEEDS = range(40)


@settings(max_examples=60, deadline=None)
@given(case=dirty_case(), mode=st.sampled_from(["coalesce", "ignore", "strict"]))
def test_property_dirty_batches_match_set_arithmetic(case, mode):
    """Report, both snapshots, the reorganize accounting and the invariants
    against a model made of Python sets; a rejected batch changes nothing."""
    check_dirty(case, mode)


def test_the_fixed_dirty_cases_reject_and_net():
    """The fixed cases the mutants replay reach every class of the model in
    every mode, and strict both rejects and applies."""
    met = set()
    for seed in DIRTY_SEEDS:
        case = dirty_example(seed)
        for mode in ("coalesce", "ignore", "strict"):
            check_dirty(case, mode)
        edges = set(case[1])
        for updates, _ in case[2]:
            counts, _ = classify(edges, updates, "coalesce")
            met |= {name for name, count in counts.items() if count}
            met.add("rejected" if counts["duplicate_inserts"] + counts["phantom_deletes"]
                    + counts["intra_batch_dropped"] else "clean")
    assert met == {"new_inserts", "duplicate_inserts", "valid_deletes", "phantom_deletes",
                   "intra_batch_dropped", "rejected", "clean"}


# ----------------------------------------------------------------------
# the batch path's order and settle against their oracles
# ----------------------------------------------------------------------
def settle_case(seed: int):
    """``(g0, batches)``: a small graph and five ``(updates, new_labels,
    mode)`` batches, one of each shape the batch path branches on, in a
    seeded order — deletes only (lists with marks and no ``ΔN``), inserts
    only with a star that may outgrow its window, a mixed batch growing new
    vertices (``span > n``), a ``coalesce`` batch of duplicates and phantoms
    that nets to nothing, and a ``strict`` batch updating one edge twice."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    pairs = rng.integers(0, n, size=(2 * n, 2))
    g0 = StaticGraph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]], np.zeros(n, dtype=np.int64))
    edges = {tuple(e) for e in g0.edge_array().tolist()}

    def some(pool, k):
        return [pool[i] for i in rng.permutation(len(pool))[:k]]

    batches = []
    for shape in rng.permutation(["deletes", "inserts", "grow", "nets", "reject"]):
        present = sorted(edges)
        absent = sorted({(u, w) for u in range(n) for w in range(u + 1, n)} - edges)
        labels, mode = {}, "coalesce"
        if shape == "deletes":
            updates = [(e, -1) for e in some(present, int(rng.integers(1, 4)))]
        elif shape == "inserts":
            hub = int(rng.integers(0, n))
            star = [e for e in absent if hub in e]
            updates = [(e, 1) for e in star + some(absent, 2)]
        elif shape == "grow":
            new = [(int(rng.integers(0, n)), n + i) for i in range(int(rng.integers(1, 3)))]
            updates = [(e, -1) for e in some(present, 2)] + [(e, 1) for e in some(absent, 2) + new]
            labels = {w: int(rng.integers(1, 4)) for _, w in new}
            n += len(new)
        elif shape == "nets":
            updates = [(e, 1) for e in some(present, 2)] + [(e, -1) for e in some(absent, 2)]
        else:
            updates, mode = [((0, 1), 1), ((0, 1), -1)], "strict"
        batches.append((updates, labels, mode))
        if shape in ("deletes", "inserts", "grow"):  # the model steers later batches
            edges -= {e for e, s in updates if s < 0}
            edges |= {e for e, s in updates if s > 0}
    return g0, batches


def check_settle(g0, batches) -> set[str]:
    """Replay ``batches`` on a store and a set model: after each apply the
    two versions of every list (and an unsorted edge probe of its snapshot)
    equal the model; after reorganize each list's one stored run equals
    ``merge_runs_reference`` of its runs before, ``ReorganizeStats`` equals
    the model's counts and the invariants hold.  A rejected batch leaves the
    store's tables and pool as they were.  Returns the shapes it met."""
    dg = DynamicGraph(g0)
    edges, met = {tuple(e) for e in g0.edge_array().tolist()}, set()
    for updates, new_labels, mode in batches:
        batch = UpdateBatch([e for e, _ in updates], [s for _, s in updates], new_labels)
        tables, pool = dg._tables.copy(), dg._pool[: dg._tail].copy()
        try:
            effective = dg.apply_batch(batch, mode=mode)
        except BatchConflictError:
            assert mode == "strict" and not dg.batch_open
            assert np.array_equal(dg._tables, tables)
            assert np.array_equal(dg._pool[: dg._tail], pool)
            met.add("rejected")
            continue
        inserts = {tuple(sorted(e)) for e in effective.insert_edges().tolist()}
        deletes = {tuple(sorted(e)) for e in effective.delete_edges().tolist()}
        after = (edges - deletes) | inserts
        n = dg.num_vertices
        old, new = adjacency(edges, n), adjacency(after, n)
        for v in range(n):
            assert neighbors_old(dg, v).tolist() == old[v]
            assert neighbors_new(dg, v).tolist() == new[v]
        us, vs = np.random.default_rng(len(after)).integers(0, n, size=(2, 4 * n))
        assert contains_edges(dg.snapshot(), us, vs).tolist() == [
            (min(u, w), max(u, w)) in after for u, w in zip(us.tolist(), vs.tolist())
        ]
        touched = sorted(dg.touched_vertices)
        runs = [stored_runs(dg, v) for v in touched]
        shapes = {
            "marks only": any((base < 0).any() and not delta.size for base, delta in runs),
            "inserts only": any((base >= 0).all() and delta.size for base, delta in runs),
            "moved": (dg._cap[: tables.shape[1]] > tables[1]).any(),
            "grown": n > tables.shape[1],
            "nets to nothing": len(batch) and not len(effective),
        }
        met |= {shape for shape, seen in shapes.items() if seen}
        want = {v: merge_runs_reference(*neighbors_new_parts(dg, v)).tolist() for v in touched}
        stats = dg.reorganize()
        for v in range(n):
            base, delta = stored_runs(dg, v)
            assert delta.size == 0 and base.tolist() == want.get(v, new[v])
        assert (stats.lists_touched, stats.merged_elements, stats.deletions_dropped,
                stats.insertions_merged) == (
            len(touched), sum(len(new[v]) for v in touched), 2 * len(deletes), 2 * len(inserts))
        dg.check_invariants()
        edges = after
    return met


#: the fixed cases ``tests/test_mutants.py`` replays
SETTLE_SEEDS = range(40)


class TestSettleAndOrder:
    """``apply_batch`` orders a batch with one stable sort of composite keys
    and searches the settled slab once; ``reorganize`` settles the touched
    lists with one gather, one sort and one scatter.  Both against their
    oracles: a ``lexsort`` of the effective updates and the scalar merge."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_store_equals_the_merge_oracle(self, seed):
        check_settle(*settle_case(seed))

    def test_the_fixed_cases_meet_every_shape(self):
        met = set().union(*(check_settle(*settle_case(seed)) for seed in SETTLE_SEEDS))
        assert met == {"rejected", "marks only", "inserts only", "moved", "grown",
                       "nets to nothing"}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda span: st.tuples(st.just(span), st.lists(
        st.tuples(st.integers(0, span - 1), st.integers(0, span - 1), st.sampled_from([1, -1])),
        max_size=30,
    ))))
    def test_composite_key_order_equals_the_lexsort(self, case):
        """The one sorted column writes each list as the lexsort of the
        effective updates by (source, neighbour) orders it: its ``ΔN`` run is
        its inserts by neighbour and each delete marks its own neighbour."""
        span, updates = case
        updates = [(u, w, s) for u, w, s in updates if u != w]
        base = sorted({(min(u, w), max(u, w)) for u, w, _ in updates[::2]})
        dg = DynamicGraph(StaticGraph.from_edges(span, base))
        edges = np.array([(u, w) for u, w, _ in updates], dtype=np.int64).reshape(-1, 2)
        dg.apply_batch(UpdateBatch(edges, [s for *_, s in updates]), mode="coalesce")
        _, kept = classify(set(base), updates, "coalesce")
        directed = np.array([(u, w, s) for u, w, s in kept] + [(w, u, s) for u, w, s in kept],
                            dtype=np.int64).reshape(-1, 3)
        directed = directed[np.lexsort((directed[:, 1], directed[:, 0]))]
        for v in range(span):
            mine = directed[directed[:, 0] == v]
            base_run, delta = stored_runs(dg, v)
            assert delta.tolist() == mine[mine[:, 2] > 0, 1].tolist()
            assert (-base_run[base_run < 0] - 1).tolist() == mine[mine[:, 2] < 0, 1].tolist()
        dg.check_invariants()
        after = (set(base) - {(min(u, w), max(u, w)) for u, w, s in kept if s < 0}) | {
            (min(u, w), max(u, w)) for u, w, s in kept if s > 0}
        assert contains_edges(dg.snapshot(), edges[:, 0], edges[:, 1]).tolist() == [
            (min(u, w), max(u, w)) in after for u, w in edges.tolist()]

    def test_composite_keys_refuse_to_overflow(self):
        dg = DynamicGraph(StaticGraph.from_edges(2, []))
        with pytest.raises(ValueError, match="overflow the int64 edge keys"):
            dg.apply_batch(UpdateBatch([(0, 2**31 - 1)], [1]), mode="coalesce")
        assert not dg.batch_open and dg.num_vertices == 2
        assert dg.last_canonical_report is None
