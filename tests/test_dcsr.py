"""Tests for the DCSR packed cache format (paper Sec. V-B, Fig. 6)."""

import numpy as np
import pytest

from repro.core.dcsr import DcsrCache, packed_size_bytes
from repro.graphs import DynamicGraph, StaticGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.testing import build_reference, neighbors_new_parts, neighbors_old


def packed_row(cache: DcsrCache, row: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(base with marks, delta)`` runs of a packed row, from ``rowptr``."""
    (start, delta), end = cache.rowptr[row], cache.rowptr[row + 1, 0]
    if delta == -1:
        return cache.colidx[start:end], cache.colidx[end:end]
    return cache.colidx[start:delta], cache.colidx[delta:end]


def store_with_batch():
    # Fig. 5-like scenario: vertex 3 gains neighbor, vertex 1 loses one
    g = StaticGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    dg = DynamicGraph(g)
    dg.apply_batch(UpdateBatch([(0, 3), (1, 4)], [1, -1]))
    return dg


class TestBuild:
    def test_paper_fig6_structure(self):
        dg = store_with_batch()
        cache = DcsrCache.build(dg, np.array([3, 1]))  # unsorted input
        assert cache.rowidx.tolist() == [1, 3]  # sorted
        # vertex 1: base [0, 2, -(4+1)] (deletion mark), no delta
        base1, delta1 = packed_row(cache, 0)
        assert base1.tolist() == [0, 2, -5]
        assert delta1.size == 0
        assert cache.rowptr[0].tolist() == [0, -1]
        # vertex 3: base [2, 4], delta [0]
        base3, delta3 = packed_row(cache, 1)
        assert base3.tolist() == [2, 4]
        assert delta3.tolist() == [0]
        assert cache.rowptr[1, 0] == 3
        assert cache.rowptr[1, 1] == 5
        # sentinel carries len(colidx)
        assert cache.rowptr[2, 0] == cache.colidx.shape[0] == 6

    def test_empty_selection(self):
        dg = store_with_batch()
        cache = DcsrCache.build(dg, np.empty(0, dtype=np.int64))
        assert cache.num_cached == 0
        assert cache.lookup_block(np.array([1])).tolist() == [False]
        assert cache.total_bytes == 2 * 4  # sentinel rowptr only

    def test_duplicate_vertices_deduped(self):
        dg = store_with_batch()
        cache = DcsrCache.build(dg, np.array([3, 3, 1]))
        assert cache.num_cached == 2

    def test_out_of_range_rejected(self):
        dg = store_with_batch()
        with pytest.raises(ValueError):
            DcsrCache.build(dg, np.array([99]))


class TestLookupAndRuns:
    def test_lookup_hit_and_miss(self):
        dg = store_with_batch()
        cache = DcsrCache.build(dg, np.array([1, 3]))
        hit = cache.lookup_block(np.array([1, 3, 0, 4, 3]))
        assert hit.tolist() == [True, True, False, False, True]

    def test_version_semantics_match_store(self):
        """Each packed row decodes to the store's OLD / NEW lists: marks
        decoded for N, skipped for N' (whose delta run follows)."""
        g = erdos_renyi(60, 5.0, seed=3)
        g0, batches = derive_stream(g, update_fraction=0.4, batch_size=20, seed=3)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        verts = np.arange(dg.num_vertices, dtype=np.int64)
        cache = DcsrCache.build(dg, verts)
        assert cache.lookup_block(verts).all()
        for v in range(dg.num_vertices):
            base, delta = packed_row(cache, v)
            assert np.where(base < 0, -base - 1, base).tolist() == neighbors_old(dg, v).tolist()
            sb, sd = neighbors_new_parts(dg, v)
            assert base[base >= 0].tolist() == sb.tolist()
            assert delta.tolist() == sd.tolist()

    def test_probe_cost_logarithmic(self):
        dg = store_with_batch()
        small = DcsrCache.build(dg, np.array([1]))
        big = DcsrCache.build(dg, np.arange(5))
        assert small.probe_cost_ops() <= big.probe_cost_ops()


class TestSizes:
    def test_total_bytes_accounting(self):
        dg = store_with_batch()
        cache = DcsrCache.build(dg, np.array([1, 3]))
        expected = (2 + 3 * 2 + cache.colidx.shape[0]) * 4
        assert cache.total_bytes == expected

    def test_packed_size_helper(self):
        assert packed_size_bytes(0) == 12
        assert packed_size_bytes(10) == 52


class TestBuildParity:
    """The vectorized build must reproduce the reference loop bit-for-bit."""

    def assert_identical(self, a: DcsrCache, b: DcsrCache) -> None:
        assert a.rowidx.dtype == b.rowidx.dtype
        assert a.rowptr.dtype == b.rowptr.dtype
        assert a.colidx.dtype == b.colidx.dtype
        assert np.array_equal(a.rowidx, b.rowidx)
        assert np.array_equal(a.rowptr, b.rowptr)
        assert np.array_equal(a.colidx, b.colidx)

    def test_fig6_scenario(self):
        dg = store_with_batch()
        fast = DcsrCache.build(dg, np.array([3, 1]))
        ref = build_reference(dg, np.array([3, 1]))
        self.assert_identical(fast, ref)

    def test_empty_selection(self):
        dg = store_with_batch()
        fast = DcsrCache.build(dg, np.empty(0, dtype=np.int64))
        ref = build_reference(dg, np.empty(0, dtype=np.int64))
        self.assert_identical(fast, ref)
        assert fast.rowptr.tolist() == [[0, -1]]

    def test_randomized_streams_with_deletions(self):
        g = erdos_renyi(200, 6.0, num_labels=2, seed=13)
        g0, batches = derive_stream(
            g, update_fraction=0.4, batch_size=32, insert_probability=0.5, seed=13
        )
        dg = DynamicGraph(g0)
        rng = np.random.default_rng(99)
        for batch in batches[:6]:
            dg.apply_batch(batch)
            # mixed selections: random subsets, duplicates, isolated vertices
            verts = rng.choice(dg.num_vertices, size=50, replace=True)
            self.assert_identical(
                DcsrCache.build(dg, verts), build_reference(dg, verts)
            )
            everything = np.arange(dg.num_vertices, dtype=np.int64)
            self.assert_identical(
                DcsrCache.build(dg, everything),
                build_reference(dg, everything),
            )
            dg.reorganize()
