"""Accounting as arrays: views classify, one accumulator counts, the rulebook
attributes by incidence.

* every view's ``classify`` + ``record`` adds up to what pricing the same
  accesses one at a time in plain Python gives (the per-access ``_record``
  code this replaced, kept here as the reference), one block of a read per
  vertex adds up to one block of them all, and the unified-memory fault / hit *sequence* is the pager's;
* the node → member-plan incidence counts a query's two identically shaped
  plans twice and a skip set removes exactly its members;
* attributed per-query counters equal the ``shared=False`` leg on a fleet,
  and under unified memory in everything but who met a page first;
* they are computed when read: the values equal eager attribution's, digest
  for digest, an unread batch never calls ``ExecutionTrie.attribute`` and an
  unread result holds no per-query histogram;
* one ``process_batch`` of the 24-pattern rulebook makes less than half the
  Python calls it made before, and the attribution's call count does not
  move with the number of trie nodes, ``(node, member)`` pairs or accesses;
* the rulebook's bookkeeping follows the batch, not the rule count: one
  24-pattern batch makes at most 55 % of the calls it made with one root draw
  per chain and one stats update per node member, and four times the rules
  cost at most 1.7× the calls;
* ``AccessCounters.copy`` lends its histogram copy-on-write: whichever side
  writes next copies first, so neither ever sees the other's writes;
* the same clock on the row program: one single-query batch (CA × Q3, the
  SF3K analog × Q1) makes at most 80 % of the calls it made before one store
  read per launch, one estimator settle per walk and the identity-keyed
  ``solo_trie``, and no batch hashes a ``MatchPlan``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import types
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import CachedDeviceView
from repro.core.dcsr import DcsrCache, probe_cost
from repro.core.engine import GCSMEngine
from repro.core.multiquery import MultiQueryEngine, Rulebook
from repro.core.querytrie import ExecutionTrie, solo_trie
from repro.graphs import datasets
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import churn_stream, derive_stream
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, default_device
from repro.gpu.memory import UnifiedMemoryPager
from repro.gpu.views import (
    FullDeviceView,
    HostCPUView,
    UnifiedMemoryView,
    ZeroCopyView,
)
from repro.query import query_by_name
from repro.query.generator import rulebook_suite
from repro.query.plan import MatchPlan
from repro.testing import count_calls, neighbors_new, neighbors_old, sharded_view
from repro.testing.validation import verify_rulebook
from tests.test_views_semantics import read_list

DEVICE = default_device()
#: a pager of four pages: every block evicts
TIGHT = replace(
    DEVICE,
    um_cache_fraction=4.5 * DEVICE.um_page_bytes / DEVICE.global_memory_bytes
)
N = 600


def open_store(seed=3):
    """A store holding an open batch, so NEW lists have appended runs."""
    g = powerlaw_graph(N, 6.0, max_degree=40, num_labels=2, seed=seed)
    g0, batches = derive_stream(g, num_updates=64, batch_size=64, seed=seed + 1)
    graph = DynamicGraph(g0)
    graph.apply_batch(batches[0])
    return graph


def reader_of(vertices):
    """Which shard reads each access of the tests' fleet view: a rule of the
    vertex, so the scalar model can follow it."""
    return (vertices // 3) % 2


class ReadByRule(CachedDeviceView):
    """The fleet's view, each access read by :func:`reader_of` its vertex."""

    def fetch_block(self, vertices, lengths, reader=None):
        return super().fetch_block(vertices, lengths, reader_of(np.asarray(vertices)))


def make_sharded(graph, counters):
    owner = np.arange(N) % 2
    # caches of different sizes: the two shards' probes cost different ops
    caches = [
        DcsrCache.build(graph, np.arange(0, N, 6)),
        DcsrCache.build(graph, np.arange(1, N // 8, 2)),
    ]
    assert probe_cost(caches[0].num_cached) != probe_cost(caches[1].num_cached)
    view = sharded_view(graph, DEVICE, counters, caches, owner, ReadByRule)
    view.shard_caches = caches  # what the scalar model probes
    return view


RESIDENT = frozenset(range(0, N, 2))
VIEWS = {
    "host": lambda g, c: HostCPUView(g, DEVICE, c),
    "zero_copy": lambda g, c: ZeroCopyView(g, DEVICE, c),
    "unified": lambda g, c: UnifiedMemoryView(g, TIGHT, c),
    "full_device": lambda g, c: FullDeviceView(g, DEVICE, c, set(RESIDENT)),
    "cached": lambda g, c: CachedDeviceView(
        g, DEVICE, c, DcsrCache.build(g, np.arange(0, N, 3))
    ),
    "sharded": make_sharded,
}


def scalar_model(view, vertices, lengths):
    """The block priced one access at a time, in Python ints — each view's
    per-access ``_record`` / ``fetch`` as it stood before ``classify``."""
    dev = view.device
    out = {
        "bytes": Counter(), "tx": Counter(), "ops": 0, "faults": [], "hits": [],
        "count": Counter(), "vertex_bytes": Counter(), "tally": Counter(),
    }
    pager = UnifiedMemoryPager(dev)

    def serve(channel, nbytes, transactions):
        out["bytes"][channel] += nbytes
        out["tx"][channel] += transactions

    def hit_or_zero_copy(hit, nbytes):
        out["tally"]["hits" if hit else "misses"] += 1
        if hit:
            serve(Channel.GPU_GLOBAL, nbytes, 1)
        else:
            serve(Channel.ZERO_COPY, nbytes, math.ceil(nbytes / dev.zero_copy_line_bytes))

    for v, length in zip(vertices.tolist(), lengths.tolist()):
        nbytes = length * BYTES_PER_NEIGHBOR
        out["count"][v] += 1
        out["vertex_bytes"][v] += nbytes
        if isinstance(view, ReadByRule):
            shard = int(view.owner[v])
            out["ops"] += int(probe_cost(view.shard_caches[shard].num_cached))
            hit = bool(np.any(view.shard_caches[shard].rowidx == v))
            if hit and shard != reader_of(v):
                out["tally"]["hits"] += 1
                serve(Channel.PEER, nbytes, math.ceil(nbytes / dev.peer_line_bytes))
            else:
                hit_or_zero_copy(hit, nbytes)
        elif isinstance(view, CachedDeviceView):
            out["ops"] += int(probe_cost(view.cache.num_cached))
            hit_or_zero_copy(bool(np.any(view.cache.rowidx == v)), nbytes)
        elif isinstance(view, FullDeviceView):
            hit_or_zero_copy(v in RESIDENT, nbytes)
        elif isinstance(view, UnifiedMemoryView):
            start, page = int(view.layout.offsets[v]), dev.um_page_bytes
            pages = range(start // page, (start + nbytes - 1) // page + 1 if nbytes else 0)
            hits, faults = pager.access(pages)
            out["hits"].append(hits)
            out["faults"].append(faults)
            serve(Channel.UM, nbytes, len(pages))
            # resident-page reads still cost global-memory bandwidth
            out["bytes"][Channel.GPU_GLOBAL] += nbytes
        elif isinstance(view, ZeroCopyView):
            serve(Channel.ZERO_COPY, nbytes, math.ceil(nbytes / dev.zero_copy_line_bytes))
        else:
            assert isinstance(view, HostCPUView)
            serve(Channel.CPU_DRAM, nbytes, 1)
    return out


def observed(view):
    """The same quantities, read back through the public accessors."""
    c = view.counters
    tallies = {"hits": getattr(view, "hits", 0), "misses": getattr(view, "misses", 0)}
    if isinstance(view, FullDeviceView):
        tallies["misses"] = view.fallthrough_accesses
    return {
        "bytes": dict(c.bytes_by_channel.items()),
        "tx": dict(c.transactions_by_channel.items()),
        "ops": c.compute_ops, "um_faults": c.um_faults, "um_hits": c.um_hits,
        "count": c.vertex_access_counts(N).tolist(),
        "vertex_bytes": c.vertex_access_bytes(N).tolist(),
        "accesses": c.total_access_count,
        "tally": tallies,
    }


def assert_matches_model(view, model, kind):
    got = observed(view)
    assert got["bytes"] == {ch: model["bytes"][ch] for ch in Channel}
    assert got["tx"] == {ch: model["tx"][ch] for ch in Channel}
    assert got["ops"] == model["ops"]
    assert got["um_faults"] == sum(model["faults"])
    assert got["um_hits"] == sum(model["hits"])
    assert got["count"] == [model["count"][v] for v in range(N)]
    assert got["vertex_bytes"] == [model["vertex_bytes"][v] for v in range(N)]
    assert got["accesses"] == sum(model["count"].values())
    if kind in ("cached", "sharded", "full_device"):
        if kind == "full_device":  # it tallies only its fallthrough reads
            model["tally"].pop("hits", None)
        assert {k: v for k, v in got["tally"].items() if v} == dict(model["tally"])


def random_blocks(rng, graph):
    """Blocks with repeated vertices, zero lengths and an empty block."""
    for size in (40, 0, 1, 257, 0, 90):
        vertices = rng.integers(0, N, size=size)
        if size > 10:
            vertices[size // 2:] = vertices[: size - size // 2]  # repeats
        lengths = rng.integers(0, 3000, size=size)
        lengths[rng.random(size) < 0.2] = 0
        yield vertices, lengths


@pytest.mark.parametrize("kind", list(VIEWS))
class TestClassifyEqualsTheScalarLoop:
    def test_blocks_add_up_to_the_per_access_model(self, kind):
        graph = open_store()
        view = VIEWS[kind](graph, AccessCounters())
        blocks = list(random_blocks(np.random.default_rng(7), graph))
        returned = [view.fetch_block(v, length) for v, length in blocks]
        vertices, lengths = (np.concatenate(column) for column in zip(*blocks))
        model = scalar_model(view, vertices, lengths)
        assert_matches_model(view, model, kind)
        assert sum(acc.channel.size for acc in returned) == vertices.size
        if kind == "unified":  # the sequence, not just the totals
            assert view.pager.capacity_pages == 4 and view.pager.total_evictions > 0
            assert np.concatenate([a.faults for a in returned]).tolist() == model["faults"]
            assert np.concatenate([a.hits for a in returned]).tolist() == model["hits"]
        else:
            assert all(acc.faults is None and acc.hits is None for acc in returned)

    def test_scalar_fetch_is_a_block_of_one(self, kind):
        graph = open_store()
        rng = np.random.default_rng(11)
        vertices = rng.integers(0, N, size=120)
        vertices[60:] = vertices[:60]
        one_by_one = VIEWS[kind](graph, AccessCounters())
        lengths = []
        for v in vertices.tolist():
            old = not v % 2
            arr = read_list(one_by_one, v, old)
            assert np.array_equal(arr, (neighbors_old if old else neighbors_new)(graph, v))
            lengths.append(arr.size)
        block = VIEWS[kind](graph, AccessCounters())
        block.fetch_block(vertices, np.array(lengths))
        assert observed(one_by_one) == observed(block)
        assert_matches_model(block, scalar_model(block, vertices, np.array(lengths)), kind)


def test_full_device_view_owns_its_resident_snapshot():
    """The set it was handed may change afterwards (``baselines.py`` hands it
    the placement's own); both spellings keep pricing from the snapshot."""
    graph = open_store()
    resident = set(RESIDENT)
    view = FullDeviceView(graph, DEVICE, AccessCounters(), resident)
    vertices = np.arange(0, 40)
    lengths = np.full(40, 5)
    view.fetch_block(vertices[:20], lengths[:20])
    resident.clear()  # at the parent: seen by the scalar path, not by the block path
    resident.update(range(1, N, 2))
    view.fetch_block(vertices[20:], lengths[20:])
    real = np.array([read_list(view, v, True).size for v in vertices.tolist()])
    model = scalar_model(
        view, np.concatenate([vertices, vertices]), np.concatenate([lengths, real])
    )
    assert_matches_model(view, model, "full_device")
    assert view.fallthrough_accesses == 40  # the odd vertices, both times


class TestAccessorsArePythonNumbers:
    def test_summary_and_channel_maps_round_trip_through_json(self):
        graph = open_store()
        view = make_sharded(graph, AccessCounters())
        view.fetch_block(np.arange(50), np.arange(50))
        c = view.counters
        c.record_dma(4096)
        c.record_output(3)
        for payload in (
            c.summary(),
            # json keys a mapping by str: the channel's value, as the results do
            {ch.value: v for ch, v in c.bytes_by_channel.items()},
            {ch.value: v for ch, v in c.transactions_by_channel.items()},
        ):
            assert json.loads(json.dumps(payload)) == payload
        for mapping in (c.bytes_by_channel, c.transactions_by_channel):
            assert all(type(v) is int for v in dict(mapping.items()).values())
            assert mapping[Channel.PEER] == dict(mapping)[Channel.PEER]
        scalars = (
            c.compute_ops, c.um_faults, c.um_hits, c.dma_bytes, c.dma_requests,
            c.output_embeddings, c.total_access_count,
        )
        assert all(type(v) is int for v in scalars)
        assert c.bytes_by_channel[Channel.PEER] > 0 and c.compute_ops > 0

    def test_histograms_are_allocated_on_first_use(self):
        c = AccessCounters()
        assert c.vertex_access_counts().size == 0 and c.total_access_count == 0
        assert c.vertex_access_counts(5).tolist() == [0] * 5
        c.merge(AccessCounters())
        assert c.vertex_access_bytes().size == 0
        c.record_access(Channel.CPU_DRAM, 5000, 8)
        twin = c.copy()
        twin.record_access(Channel.CPU_DRAM, 5000, 8)
        assert c.vertex_access_bytes(5001)[5000] == 8  # a copy, not an alias
        assert twin.vertex_access_bytes(5001)[5000] == 16


def classified(vertices, length=3):
    """``(vertices, Accesses)`` of a zero-copy block, for ``record``."""
    vertices = np.asarray(vertices)
    view = ZeroCopyView(None, DEVICE, AccessCounters())
    return vertices, view.classify(vertices, np.full(vertices.size, length))


def seeded():
    c = AccessCounters()
    c.record(*classified([1, 2, 2, 900]))
    c.record_compute(5)
    return c


_HIST = np.array([[2, 1], [64, 32]])
#: every way a histogram is written
MUTATORS = {
    "record": lambda c: c.record(*classified([2, 7])),
    "record_access": lambda c: c.record_access(Channel.PEER, 3, 16),
    "accumulate": lambda c: c.accumulate(np.arange(4), _HIST),
    "accumulate_at": lambda c: c.accumulate(np.arange(4), _HIST, np.array([5, 900])),
    "merge": lambda c: c.merge(seeded()),
    "growth": lambda c: c.record_access(Channel.CPU_DRAM, 5000, 8),  # past 2**10
}


class TestCopyIsCopyOnWrite:
    """``copy()`` copies the totals and lends the histogram; every write to
    it goes through ``_room``, which copies a lent histogram first."""

    seeded = staticmethod(seeded)

    @staticmethod
    def state(c):
        return c.summary(), c.vertex_access_counts().tolist(), c.vertex_access_bytes().tolist()

    @pytest.mark.parametrize("how", list(MUTATORS))
    def test_a_write_to_either_side_stays_on_that_side(self, how):
        write = MUTATORS[how]
        for writer in ("source", "copy"):
            source = self.seeded()
            twin = source.copy()
            before = self.state(source)
            assert self.state(twin) == before
            first, second = (source, twin) if writer == "source" else (twin, source)
            write(first)
            assert self.state(first) != before
            assert self.state(second) == before, (how, writer)
            write(second)  # and the late writer does not reach back
            assert self.state(second) == self.state(first)
            write(first)
            assert self.state(second) != self.state(first)

    def test_a_copy_of_a_copy_is_independent_of_both(self):
        source = self.seeded()
        twin = source.copy()
        third = twin.copy()
        before = self.state(source)
        third.record_access(Channel.PEER, 1, 8)
        assert self.state(source) == self.state(twin) == before
        source.record_access(Channel.PEER, 2, 8)
        twin.merge(source)
        assert self.state(third)[1][1] == before[1][1] + 1
        assert self.state(third)[1][2] == before[1][2]
        assert len({str(self.state(c)) for c in (source, twin, third)}) == 3

    def test_merging_a_copy_back_into_its_source_doubles_it(self):
        source = self.seeded()
        counts = source.vertex_access_counts()
        source.merge(source.copy())  # reads the lent histogram while writing its own
        assert source.vertex_access_counts().tolist() == (2 * counts).tolist()
        assert source.compute_ops == 10

    def test_nothing_to_lend_without_a_histogram(self):
        empty = AccessCounters()
        empty.record_compute(3)
        twin = empty.copy()
        assert twin.compute_ops == 3 and twin.vertex_access_counts().size == 0
        twin.record_access(Channel.CPU_DRAM, 4, 8)
        assert empty.total_access_count == 0 and twin.total_access_count == 1

    def test_an_unwritten_copy_moves_no_histogram(self):
        """What ``Rulebook.settle`` does per alias per batch: the histogram's
        bytes are never duplicated unless somebody writes (read off the
        private array: no public accessor shows who holds the memory).
        Unread, the copies share the recorded blocks and nobody holds a
        histogram; once the source's is built, the copies borrow it."""
        source = self.seeded()
        twins = [source.copy() for _ in range(5)]
        assert source._hist is None and all(t._blocks is source._blocks for t in twins)
        source.vertex_access_counts()  # built by the first read
        twins = [source.copy() for _ in range(5)]
        assert all(np.shares_memory(t._hist, source._hist) for t in twins)
        twins[0].record_access(Channel.PEER, 1, 8)
        twins[0].vertex_access_counts()
        assert not np.shares_memory(twins[0]._hist, source._hist)
        assert all(np.shares_memory(t._hist, source._hist) for t in twins[1:])


def histograms(root):
    """The ``(2, size)`` int64 arrays ``root`` reaches."""
    return [
        obj for obj in reachable(root)
        if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[0] == 2
        and obj.dtype == np.int64
    ]


class TestHistogramsBuiltWhenRead:
    """``record`` adds a block's totals and keeps the block; the per-vertex
    histogram is allocated by its first read and reads exactly as if every
    block had been added as it came — through copies, merges and blocks
    recorded after a read."""

    @pytest.mark.parametrize("rulebook", [False, True], ids=["single-query", "rulebook"])
    def test_an_unread_batch_holds_no_histogram(self, rulebook):
        g0, batches = az_stream(3, 24, seed=1)
        query = rulebook_suite(24, num_labels=3, seed=0) if rulebook else query_by_name("Q1")
        engine = (MultiQueryEngine if rulebook else GCSMEngine)(g0, query, seed=0)
        for batch in batches:
            result = engine.process_batch(batch)
        for counters in (result.match_counters, result.estimation.counters):
            assert counters.total_access_count > 0
            assert not histograms(counters)
            counts = counters.vertex_access_counts()
            assert counts.sum() == counters.total_access_count
            assert [h.shape for h in histograms(counters)] == [(2, counts.size)]

    def test_pending_blocks_fold_once_they_outweigh_the_histogram(self):
        c = AccessCounters()
        c.record(*classified([3, 9]))
        assert c._hist is None and c._pending == 2
        c.record(*classified(np.full(1100, 7)))  # 1 102 accesses > 1 024 columns
        assert c._blocks == [] and c._hist.shape == (2, 1024)
        assert c.total_access_count == 1102 and c.vertex_access_counts()[7] == 1100

    OPS = st.lists(
        st.tuples(
            st.sampled_from(["record", "scalar", "bulk", "read", "copy", "merge"]),
            st.integers(0, 7),
            st.lists(st.integers(0, 3000), min_size=1, max_size=5),
        ),
        max_size=16,
    )

    @settings(max_examples=150, deadline=None)
    @given(ops=OPS)
    def test_reads_equal_an_eager_histogram(self, ops):
        """A model adding every access as it comes: counts, bytes and the
        width — ``max(1024, 2^⌈log₂(top + 1)⌉)`` of the largest vertex ever
        written — equal the lazy counters' at every read."""
        objects = [(AccessCounters(), {})]  # counters, {vertex: [count, bytes]}

        def add(model, vertices, nbytes):
            for v, b in zip(np.asarray(vertices).tolist(), np.asarray(nbytes).tolist()):
                cell = model.setdefault(v, [0, 0])
                cell[0] += 1
                cell[1] += b

        def check(counters, model):
            width = max(1024, 1 << max(model).bit_length()) if model else 0
            want = np.zeros((2, width), dtype=np.int64)
            for v, cell in model.items():
                want[:, v] = cell
            assert counters.total_access_count == int(want[0].sum())
            assert counters.vertex_access_counts().tolist() == want[0].tolist()
            assert counters.vertex_access_bytes().tolist() == want[1].tolist()

        for op, at, vertices in ops:
            counters, model = objects[at % len(objects)]
            if op in ("record", "bulk"):
                block = classified(np.repeat(vertices, 300) if op == "bulk" else vertices)
                counters.record(*block)
                add(model, block[0], block[1].nbytes)
            elif op == "scalar":
                counters.record_access(Channel.PEER, vertices[0], 16)
                add(model, vertices[:1], [16])
            elif op == "read":
                check(counters, model)
            elif op == "copy":
                objects.append((counters.copy(), {v: list(c) for v, c in model.items()}))
            else:  # merge the next object in (itself, when it is the only one)
                other, theirs = objects[(at + 1) % len(objects)]
                for v, (count, nbytes) in [(v, tuple(c)) for v, c in theirs.items()]:
                    cell = model.setdefault(v, [0, 0])
                    cell[0] += count
                    cell[1] += nbytes
                counters.merge(other)
        for counters, model in objects:
            check(counters, model)


# ----------------------------------------------------------------------
# the rulebook: incidence with multiplicity
# ----------------------------------------------------------------------
def az_stream(num_batches, batch_size, seed=0):
    graph = datasets.DATASETS["AZ"].build(0)
    return derive_stream(
        graph, num_updates=num_batches * batch_size, batch_size=batch_size, seed=seed
    )


class TestIncidenceMultiplicity:
    #: Q3 and Q4 each send two identically shaped ΔM plans through one node
    QUERIES = [query_by_name("Q3"), query_by_name("Q4")]

    def test_two_same_signature_plans_count_twice(self):
        trie = Rulebook(self.QUERIES).trie
        queries, member, _ = trie.incidence()
        assert queries == ("Q3", "Q4")
        for node in trie.nodes:
            for row, name in enumerate(queries):
                plans = [ref for ref in node.members if ref.query_name == name]
                assert member[row, node.order] == len(plans)
        inner = np.array([node.level is not None for node in trie.nodes])
        assert member[:, inner].max(axis=1).tolist() == [2, 2]  # not a boolean
        assert member.sum() == sum(len(node.members) for node in trie.nodes)

    def test_a_skip_set_removes_exactly_its_members(self):
        trie = Rulebook(self.QUERIES).trie
        queries, member, _ = trie.incidence()
        kept, reduced, _ = trie.incidence(frozenset({"Q3"}))
        assert kept == ("Q4",)
        assert np.array_equal(reduced, member[1:])
        assert trie.incidence(frozenset({"Q3"}))[1] is reduced  # built once
        assert trie.incidence(frozenset({"Q3", "Q4"}))[1].shape == (0, len(trie.nodes))

    def test_level_records_are_the_node_lists_read_once(self):
        """Per depth: live lines, member / terminal counts per line (a query's
        two same-shaped plans counted twice), who wants a line's rows, and the
        sink pairs — exactly what a loop over the nodes' lists reads."""
        queries = self.QUERIES + [query_by_name("Q1")]
        trie = Rulebook(queries).trie
        sinks = frozenset({"Q3", "Q4"})
        for skip in (frozenset(), frozenset({"Q3"}), frozenset({"Q1", "Q4"})):
            names, _, records = trie.incidence(skip, sinks)
            assert len(records) == len(trie.levels)
            for level, record in zip(trie.levels, records):
                for line, node in enumerate(level.nodes):
                    for counts, refs in ((record.member, node.members),
                                         (record.terminal, node.terminal)):
                        assert counts[:, line].tolist() == [
                            sum(ref.query_name == name for ref in refs) for name in names
                        ]
                    alive = any(ref.query_name in names for ref in node.members)
                    assert (line in record.live) == alive
                    sunk = [
                        (ref, line) for ref in node.terminal
                        if ref.query_name in names and ref.query_name in sinks
                    ]
                    assert [pair for pair in record.sinks if pair[1] == line] == sunk
                    below = any(
                        ref.query_name in names
                        for child in node.children.values() for ref in child.members
                    )
                    assert bool(record.wanted[line]) == (below or bool(sunk))
                assert np.array_equal(
                    record.parent, level.parent[record.live] if level.table else []
                )
            assert max(r.member.max() for r in records[1:]) >= 2  # counted per plan

    def test_the_cache_of_incidences_is_capped(self):
        """65 distinct skip sets (a prefilter's, batch after batch), with and
        without sinks: the per-``(skip, sinks)`` tables start over at the cap."""
        from repro.core.querytrie import _INCIDENCE_CACHE

        trie = Rulebook(rulebook_suite(24, num_labels=3, seed=0)).trie
        names = trie.queries
        assert 2 ** len(names) > _INCIDENCE_CACHE
        seen = set()
        for bits in range(_INCIDENCE_CACHE + 1):
            skip = frozenset(n for i, n in enumerate(names) if bits >> i & 1)
            sinks = frozenset(names[:1]) if bits % 2 else frozenset()
            seen.add((skip, sinks))
            record = trie.incidence(skip, sinks)
            assert trie.incidence(skip, sinks) is record  # built once
            assert len(trie._incidence) <= _INCIDENCE_CACHE
        assert len(seen) == _INCIDENCE_CACHE + 1
        assert len(trie._incidence) == 1  # started over at the 65th

    def test_sinks_and_attribution_share_one_record_per_skip_set(self):
        """The driver hands ``attribute`` the ``(queries, member)`` of the
        incidence it already holds: with sinks *and* per-query counters on, a
        batch builds one record, not a second one under ``(skip, no sinks)``
        — the walk reads the expansion's."""
        g0, batches = az_stream(2, 48)
        engine = MultiQueryEngine(g0, self.QUERIES, seed=0)
        for batch in batches:
            result = engine.process_batch(batch, sinks={"Q3": lambda embedding, sign: None})
            assert result.match_counters_by_query["Q4"].total_access_count > 0
        assert list(engine.query_set.trie._incidence) == [(frozenset(), frozenset({"Q3"}))]

    def test_attribution_charges_each_plan(self):
        """A boolean incidence would under-charge Q3 and Q4 against their
        independent execution: counters and both histograms must agree."""
        g0, batches = az_stream(4, 48)
        report = verify_rulebook(g0, self.QUERIES, batches, seed=0)
        assert report.num_batches == 4
        engine = MultiQueryEngine(g0, self.QUERIES, seed=0)
        result = engine.process_batch(batches[0])
        by_query = result.match_counters_by_query
        # both plans' reads of the shared node are attributed, so the
        # attributed accesses exceed what the shared counters paid once
        attributed = sum(c.total_access_count for c in by_query.values())
        assert attributed > result.match_counters.total_access_count


class TestAttributedCountersAcrossPlacements:
    def test_fleet_attribution_equals_the_independent_leg(self):
        g0, batches = az_stream(3, 48)
        queries = rulebook_suite(8, num_labels=3, seed=0) + [query_by_name("Q3")]
        verify_rulebook(g0, queries, batches, seed=0, engine_kwargs={"devices": 2})

    def test_unified_attribution_equals_the_independent_leg_but_for_the_pager(self):
        """Under unified memory the two legs differ only in which query met a
        page first (``um_faults`` / ``um_hits``; ``verify_rulebook`` does not
        hold there, at the parent either): every channel total, the compute
        and output charges and both histograms are the independent leg's."""
        g0, batches = az_stream(3, 48)
        queries = rulebook_suite(8, num_labels=3, seed=0) + [query_by_name("Q3")]
        settings = dict(seed=0, placement="unified", device=TIGHT)
        shared = MultiQueryEngine(g0, queries, **settings)
        independent = MultiQueryEngine(g0, queries, shared=False, **settings)
        n = g0.num_vertices
        faults = 0
        for batch in batches:
            a, b = shared.process_batch(batch), independent.process_batch(batch)
            assert a.delta_counts == b.delta_counts
            for name in a.match_counters_by_query:
                got, want = a.match_counters_by_query[name], b.match_counters_by_query[name]
                assert dict(got.bytes_by_channel) == dict(want.bytes_by_channel), name
                assert dict(got.transactions_by_channel) == dict(want.transactions_by_channel)
                assert got.compute_ops == want.compute_ops
                assert got.output_embeddings == want.output_embeddings
                assert np.array_equal(got.vertex_access_counts(n), want.vertex_access_counts(n))
                assert np.array_equal(got.vertex_access_bytes(n), want.vertex_access_bytes(n))
                # every page touched either faulted or hit, whoever came first
                assert got.um_faults + got.um_hits == want.um_faults + want.um_hits
                faults += got.um_faults
        assert faults > 0


# ----------------------------------------------------------------------
# per-query counters on demand
# ----------------------------------------------------------------------
#: a rulebook engine per configuration of the digests below
CONFIGS = {
    "cached": {},
    "devices2": {"devices": 2},
    "unified-tight": {"placement": "unified", "device": TIGHT},
}


def smoke_rulebook(prefilter, config):
    """``az_rulebook24`` at smoke size: its stream, rulebook and engine."""
    g0, batches = az_stream(10, 24, seed=1)
    queries = rulebook_suite(24, num_labels=3, seed=0)
    return batches, MultiQueryEngine(g0, queries, seed=0, prefilter=prefilter, **CONFIGS[config])


def counters_digest(results) -> str:
    """sha256 over every result's per-query counters in rulebook order: each
    slot of the totals vector, ``um_faults`` / ``um_hits`` included, and both
    histograms at their own size."""
    h = hashlib.sha256()
    for result in results:
        for name, c in result.match_counters_by_query.items():
            h.update(json.dumps([
                name, list(c.bytes_by_channel.values()),
                list(c.transactions_by_channel.values()), c.compute_ops, c.um_faults,
                c.um_hits, c.dma_bytes, c.dma_requests, c.output_embeddings,
            ]).encode())
            h.update(c.vertex_access_counts().tobytes())
            h.update(c.vertex_access_bytes().tobytes())
    return h.hexdigest()


def reachable(root):
    """Every object ``root`` reaches through references (modules, types and
    functions not followed)."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


class TestPerQueryCountersOnDemand:
    """A rulebook batch keeps the block it settled and charges it per query
    only when ``match_counters_by_query`` is first read."""

    #: :func:`counters_digest` of the ten smoke batches per ``(prefilter,
    #: configuration)``, recorded at 2f3fe8d, where every batch attributed
    #: eagerly; sinks on a representative or an alias do not move them
    DIGESTS = {
        ("off", "cached"):
            "b0dad0415e080be00ef532de12170458bcf071b87bde6010dac29c61e082ad68",
        ("off", "devices2"):
            "186f5e1a4acacbec9f8ca16e6630bc2b2c9a61472e742f1e91e8a8e2189279e9",
        ("off", "unified-tight"):
            "3c3c0c6cc490f333d55bf40f03432b437f71af6ef061a3ff52ddb0bd1e22fe6a",
        ("on", "cached"):
            "01863530b754db2ee879bd4d6e10accce831a928a0fbdbe7a9484788af2b166c",
        ("on", "devices2"):
            "85c5efd91819bdb119c4d993e9de3d9866aa53e604c891647b14215c532b3621",
        ("on", "unified-tight"):
            "233800dc39d6d17720ea4f77b7d96adf7ee3ba8fc1a885fb0813753799b5b568",
    }

    @pytest.mark.parametrize("sink", [None, "R000", "R001"], ids=["no-sinks", "rep", "alias"])
    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("prefilter", ["off", "on"])
    def test_read_counters_equal_the_eager_digests(self, prefilter, config, sink):
        batches, engine = smoke_rulebook(prefilter, config)
        assert engine.query_set.aliases["R001"] == "R000"
        sinks = None if sink is None else {sink: lambda embedding, sign: None}
        results = [engine.process_batch(batch, sinks=sinks) for batch in batches]
        assert counters_digest(results) == self.DIGESTS[prefilter, config]

    @pytest.mark.parametrize("config", ["cached", "devices2"])
    def test_attribute_runs_once_per_record_on_the_first_read(self, config, monkeypatch):
        calls = []
        attribute = ExecutionTrie.attribute
        monkeypatch.setattr(
            ExecutionTrie, "attribute", lambda *args: calls.append(1) or attribute(*args)
        )
        batches, engine = smoke_rulebook("off", config)
        for batch in batches[:3]:
            result = engine.process_batch(batch)
            assert calls == []  # nobody asked
            first = result.match_counters_by_query
            records = result.rulebook_stats.attributions
            assert len(records) == 1  # a fleet settles once too
            assert len(calls) == len(records)
            assert result.match_counters_by_query is first and len(calls) == len(records)
            calls.clear()

    def test_an_unread_result_holds_no_per_query_histogram(self):
        """The only histograms an unread result reaches are the batch's shared
        match counters' and the estimator's, not one per query."""
        batches, engine = smoke_rulebook("off", "cached")
        result = engine.process_batch(batches[0])
        held = [obj for obj in reachable(result) if isinstance(obj, AccessCounters)]
        with_histogram = {id(c) for c in held if c.total_access_count}
        assert with_histogram == {id(result.match_counters), id(result.estimation.counters)}
        assert len(result.match_counters_by_query) == 24


# ----------------------------------------------------------------------
# the clock that repeats
# ----------------------------------------------------------------------
class TestCallCounts:
    #: Python ``call`` events of the fourth ``process_batch`` below at the
    #: parent (5212da3 + re-anchor; CPython 3.11), where the settle built a
    #: counter per trie node and merged it once per member plan
    PARENT_CALLS = 11_677

    def test_one_rulebook_batch_makes_under_half_the_parents_calls(self):
        g0, batches = az_stream(4, 24, seed=1)
        engine = MultiQueryEngine(g0, rulebook_suite(24, num_labels=3, seed=0), seed=0)
        for batch in batches[:3]:
            engine.process_batch(batch)
        calls = count_calls(lambda: engine.process_batch(batches[3]))
        assert calls <= 0.45 * self.PARENT_CALLS, calls

    #: the same batch at the parent of the root table (28eee7d; CPython 3.11):
    #: one ``rng.binomial`` + ``flatnonzero`` + predicate filter per chain, an
    #: ``alive(...)`` list per node per level, a histogram copy per alias —
    #: 3 381 calls at 24 rules, 9 181 at 96 (2.72×)
    ROOT_TABLE_PARENT_CALLS = 3_381

    @staticmethod
    def fourth_batch_calls(rules):
        g0, batches = az_stream(4, 24, seed=1)
        engine = MultiQueryEngine(g0, rulebook_suite(rules, num_labels=3, seed=0), seed=0)
        for batch in batches[:3]:
            engine.process_batch(batch)
        return count_calls(lambda: engine.process_batch(batches[3]))

    def test_bookkeeping_follows_the_batch_not_the_rulebook(self):
        """Scaling gate: per-batch calls at 24 rules against the parent, and
        four times the rules (130 → 500+ chains) against 24."""
        small, large = self.fourth_batch_calls(24), self.fourth_batch_calls(96)
        assert small <= 0.55 * self.ROOT_TABLE_PARENT_CALLS, small
        assert large <= 1.7 * small, (small, large)

    #: the same clock on the row program: the fourth ``process_batch`` of
    #: ``GCSMEngine(seed=0)`` at the parent (e0622e5; CPython 3.11), which
    #: gathered once per constraint slot, settled the estimator's log once per
    #: depth and hashed the plan tuple on every ``solo_trie`` lookup
    @pytest.mark.parametrize("dataset, query, derive, parent, gate", [
        ("CA", "Q3", derive_stream, 2_259, 0.80),
        ("SF3K", "Q1", churn_stream, 1_785, 0.80),
    ], ids=["CA-Q3", "SF3K-Q1"])
    def test_one_single_query_batch_against_the_parent(
        self, dataset, query, derive, parent, gate
    ):
        g0, batches = derive(
            datasets.DATASETS[dataset].build(0), num_updates=256, batch_size=64, seed=1
        )
        engine = GCSMEngine(g0, query_by_name(query), seed=0)
        for batch in batches[:3]:
            engine.process_batch(batch)
        calls = count_calls(lambda: engine.process_batch(batches[3]))
        assert calls <= gate * parent, calls

    def test_no_plan_is_hashed_on_the_batch_path(self):
        """The query set's trie is built at ``compile`` and found again by
        the plans' identity: after the first batch nothing calls the frozen
        dataclass's generated ``MatchPlan.__hash__``."""
        g0, batches = az_stream(3, 24, seed=1)
        engine = GCSMEngine(g0, query_by_name("Q3"), seed=0)
        assert solo_trie(engine.plans) is engine.query_set.trie
        engine.process_batch(batches[0])
        plan_hash = MatchPlan.__hash__.__code__
        assert count_calls(lambda: [engine.process_batch(b) for b in batches[1:]], plan_hash) == 0
        # the count does see one when it happens
        assert count_calls(lambda: hash(engine.plans[0]), plan_hash) == 1

    @staticmethod
    def attribution_calls(trie, node, accesses_per_node):
        queries, member, _ = trie.incidence()
        view = ZeroCopyView(None, DEVICE, AccessCounters())
        node = np.repeat(np.sort(node), accesses_per_node)
        vertex = np.arange(node.size) % 50
        acc = view.classify(vertex, vertex + 1)
        work = np.ones(len(trie.nodes), dtype=np.int64)
        counters = {name: AccessCounters() for name in queries}
        calls = count_calls(
            lambda: trie.attribute(queries, member, node, vertex, acc, work, counters)
        )
        assert sum(c.total_access_count for c in counters.values()) >= node.size
        return calls

    def test_attribution_is_a_constant_per_query(self):
        small = Rulebook(rulebook_suite(8, num_labels=3, seed=0)).trie
        large = Rulebook(rulebook_suite(24, num_labels=3, seed=0)).trie
        assert len(large.nodes) > len(small.nodes)
        every = np.arange(len(large.nodes))
        base = self.attribution_calls(large, every[:1], 1)
        # neither the nodes touched, the (node, member) pairs nor the log's length
        assert self.attribution_calls(large, every, 1) == base
        assert self.attribution_calls(large, every, 40) == base
        # only the number of queries, by a constant each
        fewer = self.attribution_calls(small, np.arange(len(small.nodes)), 1)
        queries = len(large.incidence()[0]) - len(small.incidence()[0])
        assert queries > 0 and 0 < base - fewer <= 4 * queries
