"""Focused tests on adjacency-version semantics across views and states.

A view only classifies: every list comes from the store's one bulk read
(``DynamicGraph.read``) and the view records where it is served from.
:func:`read_list` is that pair for one vertex, as the kernel issues it."""

import numpy as np
import pytest

from repro.core.cache import CachedDeviceView
from repro.core.dcsr import DcsrCache
from repro.graphs import DynamicGraph, StaticGraph, UpdateBatch
from repro.graphs.generators import erdos_renyi
from repro.gpu import (
    AccessCounters,
    HostCPUView,
    UnifiedMemoryView,
    ZeroCopyView,
    default_device,
)
from repro.testing import neighbors_new, neighbors_old

ALL_VIEW_CLASSES = [HostCPUView, ZeroCopyView, UnifiedMemoryView]


def read_list(view, v: int, old: bool) -> np.ndarray:
    """``v``'s list in one version (``N`` when ``old``), read from the store
    in bulk and recorded as one access of ``view``."""
    vertices = np.array([v])
    block, lengths = view.graph.read(vertices, old)
    view.fetch_block(vertices, lengths)
    return block


def settled_store():
    g = StaticGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    return DynamicGraph(g)


@pytest.mark.parametrize("cls", ALL_VIEW_CLASSES, ids=lambda c: c.__name__)
class TestSettledSemantics:
    def test_current_equals_old_when_settled(self, cls):
        """With no open batch, OLD and NEW coincide, and the view charges
        the same bytes for either."""
        dg = settled_store()
        view = cls(dg, default_device(), AccessCounters())
        for v in range(dg.num_vertices):
            assert read_list(view, v, True).tolist() == read_list(view, v, False).tolist()
        charged = view.counters.vertex_access_bytes(dg.num_vertices)
        assert charged.tolist() == (2 * 4 * dg.degrees_new()).tolist()

    def test_fetch_returns_sorted_runs(self, cls):
        """Each version of each list is read sorted, equal to the per-vertex
        slab decode, and recorded as one access."""
        dg = settled_store()
        dg.apply_batch(UpdateBatch([(0, 3), (1, 4)], [1, 1]))
        view = cls(dg, default_device(), AccessCounters())
        for v in range(dg.num_vertices):
            for old, decode in ((True, neighbors_old), (False, neighbors_new)):
                arr = read_list(view, v, old)
                assert bool(np.all(arr[1:] > arr[:-1]))
                assert arr.tolist() == decode(dg, v).tolist()
        assert view.counters.total_access_count == 2 * dg.num_vertices

    def test_degree_bounds_match_run_lengths(self, cls):
        """The degree tables (free to read) are the lengths the read returns."""
        dg = settled_store()
        dg.apply_batch(UpdateBatch([(0, 2), (0, 1)], [1, -1]))
        view = cls(dg, default_device(), AccessCounters())
        everyone = np.arange(dg.num_vertices)
        base_len = dg.run_lengths(everyone)[0]  # the pre-batch list is the base run
        for old, degrees in ((True, base_len), (False, dg.degrees_new())):
            _, lengths = dg.read(everyone, old)
            assert lengths.tolist() == degrees.tolist()
            for v in everyone.tolist():
                assert read_list(view, v, old).size == degrees[v]


class TestCachedViewSemantics:
    def test_cached_view_matches_plain_views(self):
        """For every vertex and version, the cached view (hit or miss) charges
        the same bytes per vertex as an uncached view: only channels differ."""
        g = erdos_renyi(40, 5.0, seed=17)
        from repro.graphs.stream import derive_stream

        g0, batches = derive_stream(g, update_fraction=0.5, batch_size=15, seed=17)
        dg = DynamicGraph(g0)
        dg.apply_batch(batches[0])
        half = np.arange(0, dg.num_vertices, 2)
        cache = DcsrCache.build(dg, half)
        device = default_device()
        cached = CachedDeviceView(dg, device, AccessCounters(), cache)
        plain = HostCPUView(dg, device, AccessCounters())
        for v in range(dg.num_vertices):
            for old in (True, False):
                assert read_list(cached, v, old).tolist() == read_list(plain, v, old).tolist()
        n = dg.num_vertices
        assert (cached.counters.vertex_access_bytes(n).tolist()
                == plain.counters.vertex_access_bytes(n).tolist())
        assert cached.hits > 0 and cached.misses > 0
