"""Tests for synthetic graph generators and the Table I dataset registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import datasets
from repro.graphs.generators import (
    _powerlaw_weights,
    _weighted_draws,
    assign_labels,
    erdos_renyi,
    powerlaw_graph,
    road_network,
)
from repro.testing import road_network_reference


class TestPowerlaw:
    def test_shape_and_determinism(self):
        g1 = powerlaw_graph(500, 8.0, seed=1)
        g2 = powerlaw_graph(500, 8.0, seed=1)
        assert g1 == g2
        assert g1.num_vertices == 500
        # within 25% of the requested edge budget
        assert abs(g1.num_edges - 2000) < 500

    def test_different_seeds_differ(self):
        assert powerlaw_graph(300, 6.0, seed=1) != powerlaw_graph(300, 6.0, seed=2)

    def test_max_degree_cap_respected(self):
        g = powerlaw_graph(2000, 10.0, max_degree=60, seed=3)
        # Chung-Lu realizes weights with binomial noise; allow slack
        assert g.max_degree() <= 90

    def test_skewed_degrees(self):
        g = powerlaw_graph(5000, 20.0, exponent=2.1, max_degree=500, seed=4)
        d = np.sort(g.degrees())[::-1]
        top5 = d[: len(d) // 20].sum() / d.sum()
        assert top5 > 0.3  # heavy hub concentration

    def test_labels_in_range(self):
        g = powerlaw_graph(400, 5.0, num_labels=3, seed=5)
        assert set(np.unique(g.labels)) <= {0, 1, 2}

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            powerlaw_graph(1, 2.0)
        with pytest.raises(ValueError):
            powerlaw_graph(10, 2.0, exponent=1.5)


class TestWeightedDraws:
    """``powerlaw_graph`` draws each endpoint column by inverting the cdf
    through a bucket table.  That this moves no graph rests on it equalling
    ``Generator.choice(p=)`` — which is ``cdf.searchsorted(rng.random(size),
    side="right")`` — value for value and generator state for state; the
    pinned digests of :class:`TestIdentityPins` are the same claim end to end."""

    @staticmethod
    def both(p, sizes, seed=11):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _weighted_draws(ours, p, sum(sizes))
        want = [numpys.choice(p.size, size=k, p=p) for k in sizes]
        assert got.dtype == want[0].dtype == np.int64
        assert got.tolist() == np.concatenate(want).tolist()
        assert ours.bit_generator.state == numpys.bit_generator.state
        return got

    def test_two_columns_of_the_fr_analog(self):
        n = 48_000
        w = _powerlaw_weights(n, 2.5, max(8, int(n ** 0.6)), 14.0)
        got = self.both(w / w.sum(), (453_616, 453_616))
        assert np.unique(got).size > n // 2

    def test_sizes_zero_and_one(self):
        p = np.array([0.2, 0.5, 0.3])
        for sizes in ((0,), (1,), (0, 0), (1, 1), (7, 0, 2)):
            self.both(p, sizes)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert _weighted_draws(rng, p, 0).shape == (0,)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("seed", range(6))
    def test_any_weights(self, seed):
        """Zero weights (at either end and inside), one vertex, a bucket
        holding hundreds of cdf entries, sizes that are not powers of two."""
        shape = np.random.default_rng(seed)
        n = int(shape.integers(1, 700))
        w = shape.random(n) ** 8  # most of the mass on a few entries
        w[shape.random(n) < 0.2] = 0.0
        w[shape.integers(0, n)] = 1.0
        self.both(w / w.sum(), (2_000, 1), seed=seed)
        self.both(np.ones(1), (5,), seed=seed)
        edge = np.array([0.0, 0.0, 1.0, 0.0])
        assert self.both(edge, (50,), seed=seed).tolist() == [2] * 50


class TestRoadNetwork:
    def test_bounded_degree(self):
        g = road_network(40, 50, seed=1)
        assert g.max_degree() <= 14
        assert g.num_vertices == 2000

    def test_connected_lattice_core(self):
        g = road_network(10, 10, diagonal_fraction=0.0, extra_edge_fraction=0.0, seed=2)
        # pure grid: interior degree 4, corners 2
        assert g.max_degree() == 4
        assert g.num_edges == 9 * 10 * 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            road_network(1, 5)


FRACTIONS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class Rejecting(np.random.Generator):
    """A generator whose raw 32-bit blocks are all zeros: a zero word scaled to
    any span that is not a power of two leaves a remainder below the Lemire
    threshold, so every block would be rejected."""

    blocks = 0

    def integers(self, low, high=None, size=None, **kwargs):
        out = super().integers(low, high, size=size, **kwargs)
        if size is not None and high == 2**32:
            type(self).blocks += 1
            out[...] = 0
        return out


class TestRoadNetworkOracle:
    """The whole-array lattice is the per-cell loop it replaced: the same
    graph and the same generator state after the call."""

    @staticmethod
    def both(rows, cols, seed, *, pending=False, generator=np.random.default_rng, **kwargs):
        ours, theirs = generator(seed), generator(seed)
        if pending:  # one 32-bit draw leaves half of a 64-bit word buffered
            for rng in (ours, theirs):
                rng.integers(0, 2**32, dtype=np.uint32)
                assert rng.bit_generator.state["has_uint32"] == 1
        got = road_network(rows, cols, seed=ours, **kwargs)
        want = road_network_reference(rows, cols, seed=theirs, **kwargs)
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state
        return got

    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.integers(2, 40),
        cols=st.integers(2, 40),
        diagonal_fraction=FRACTIONS,
        extra_edge_fraction=st.one_of(FRACTIONS, st.floats(-1.0, 0.0), st.floats(1.0, 1.5)),
        num_labels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        pending=st.booleans(),
    )
    def test_equals_the_per_cell_loop(
        self, rows, cols, diagonal_fraction, extra_edge_fraction, num_labels, seed, pending
    ):
        self.both(rows, cols, seed, pending=pending, diagonal_fraction=diagonal_fraction,
                  extra_edge_fraction=extra_edge_fraction, num_labels=num_labels)

    def test_negative_extra_fraction_draws_no_links(self):
        g = self.both(6, 7, 3, extra_edge_fraction=-0.4)
        assert g == self.both(6, 7, 3, extra_edge_fraction=0.0)

    @pytest.mark.parametrize("name", ["PA", "CA"])
    def test_the_road_analogs(self, name):
        spec = datasets.DATASETS[name]
        ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
        got = spec.build(ours)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(datasets, "road_network", road_network_reference)
            assert spec.build(theirs) == got
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("pending", [False, True])
    def test_a_rejected_block_falls_back_to_one_call_per_draw(self, pending):
        """The oracle draws one value a call, which the stub leaves alone."""
        Rejecting.blocks = 0
        self.both(9, 7, 8, pending=pending, extra_edge_fraction=0.5,
                  generator=lambda seed: Rejecting(np.random.PCG64(seed)))
        assert Rejecting.blocks == 1


class TestErdosRenyi:
    def test_edge_budget(self):
        g = erdos_renyi(300, 6.0, seed=1)
        assert abs(g.num_edges - 900) < 120

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            erdos_renyi(4, 100.0)


class TestAssignLabels:
    def test_single_label(self):
        labels = assign_labels(10, 1)
        assert labels.tolist() == [0] * 10

    def test_uniform_when_no_skew(self):
        labels = assign_labels(20_000, 4, skew=0.0, rng=1)
        counts = np.bincount(labels, minlength=4)
        assert counts.min() > 4000

    def test_skew_orders_frequencies(self):
        labels = assign_labels(20_000, 4, skew=1.5, rng=2)
        counts = np.bincount(labels, minlength=4)
        assert counts[0] > counts[1] > counts[2] > counts[3]


class TestDatasets:
    def test_registry_complete(self):
        assert set(datasets.TABLE1_ORDER) == set(datasets.DATASETS)
        assert len(datasets.TABLE1_ORDER) == 7

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            datasets.build("nope")

    def test_road_analogs_small_degree(self):
        for name in ("PA", "CA"):
            g = datasets.build(name)
            assert g.max_degree() <= 14, name

    def test_social_analogs_skewed(self):
        g = datasets.build("LJ")
        assert g.max_degree() > 8 * g.degrees().mean()

    def test_memory_fit_pattern_matches_paper(self):
        # AZ/PA/CA/LJ fit the scaled cache buffer; FR/SF3K/SF10K overflow it
        for name in ("AZ", "PA", "CA", "LJ"):
            spec = datasets.DATASETS[name]
            assert spec.fits_on_device(spec.build(0)), name
        for name in ("FR", "SF3K", "SF10K"):
            spec = datasets.DATASETS[name]
            assert not spec.fits_on_device(spec.build(0)), name

    def test_overflow_ratios_ordered_like_paper(self):
        sizes = {n: datasets.DATASETS[n].build(0).size_bytes() for n in ("FR", "SF3K", "SF10K")}
        assert sizes["FR"] < sizes["SF3K"] < sizes["SF10K"]
        assert sizes["SF10K"] > 4 * datasets.DEVICE_BUFFER_BYTES

    def test_table1_rows_structure(self):
        rows = datasets.table1_rows()
        assert [r["graph"] for r in rows] == datasets.TABLE1_ORDER
        for r in rows:
            assert r["vertices"] > 0 and r["edges"] > 0
            assert r["paper_size_gb"] > 0


class TestIdentityPins:
    """Every dataset, ``G_0`` and stream is a function of its seed alone.

    The digests were recorded at the commit *before* edge sets became sorted
    int64 key arrays (``repro.utils.edge_keys``): the codec orders exactly
    like the ``(lo, hi)`` rows it replaced, so it may not reorder an edge, move
    a label or shift an RNG draw — the repo benchmark's inputs, the golden ΔM
    vectors and every committed table depend on it.
    """

    @staticmethod
    def digest(*arrays):
        import hashlib

        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=np.int64)
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize(
        "build, pinned",
        [
            (lambda: datasets.DATASETS["AZ"].build(0), "f175c4351d99ca90"),
            (lambda: datasets.DATASETS["CA"].build(0), "00ebf9d25ebd1a94"),
            (lambda: powerlaw_graph(300, 6.0, seed=3), "53a375d7fad74c2a"),
            (lambda: road_network(12, 9, seed=4), "1688ff17adc31c57"),
            (lambda: erdos_renyi(200, 5.0, seed=5), "36b499925598e700"),
            (lambda: datasets.DATASETS["PA"].build(0), "27b7ffcf785e008a"),
            (lambda: datasets.DATASETS["FR"].build(0), "ea9e83befcfe70db"),
            (lambda: datasets.DATASETS["SF3K"].build(0), "6eb1c0117f1b36ad"),
        ],
        ids=["AZ", "CA", "powerlaw", "road", "erdos_renyi", "PA", "FR", "SF3K"],
    )
    def test_graphs(self, build, pinned):
        g = build()
        assert self.digest(g.indptr, g.indices, g.labels) == pinned

    def test_streams_on_az(self):
        from repro.graphs.stream import (
            churn_stream,
            derive_localized_stream,
            derive_stream,
        )

        az = datasets.DATASETS["AZ"].build(0)
        seen = {}
        for derive in (derive_stream, churn_stream, derive_localized_stream):
            g0, batches = derive(az, num_updates=256, batch_size=64, seed=0)
            seen[derive.__name__] = [self.digest(g0.indptr, g0.indices, g0.labels)] + [
                self.digest(b.edges, b.signs) for b in batches[:2]
            ]
        assert seen["derive_stream"][:2] == ["c503db3f90221fa0", "b7895641b1da92ae"]
        assert seen["churn_stream"] == [
            "afd255c71294e9f6", "795c4d5e18768ba0", "e0a64fc942bd3afb"
        ]
        assert seen["derive_localized_stream"][:2] == ["c8f628ed9052a880", "f8d6de8d85cbd55a"]

    @pytest.mark.parametrize("name, pinned", [
        ("AZ", "8b942ed2bddb6bb3"),
        ("PA", "bc9743b53c0edeec"),
        ("CA", "cc1680223cd83819"),
        ("LJ", "558b36027ce5b142"),
        ("FR", "439ce434a513b916"),
        ("SF3K", "8843112ef59a240d"),
        ("SF10K", "b87f59c8753d7df2"),
    ])
    def test_every_dataset_and_its_draws(self, name, pinned):
        """Each Table I analog bit for bit, and the generator state it leaves
        behind (a builder may neither skip nor add a draw).  Recorded when the
        builders still materialised graph-sized temporaries."""
        rng = np.random.default_rng(0)
        g = datasets.DATASETS[name].build(rng)
        after = rng.integers(0, 2**62, size=4)
        assert self.digest(g.indptr, g.indices, g.labels, after) == pinned

    def test_every_stream_on_fr(self):
        """``G_0``, every batch and the generator state after, for each
        deriver on the FR analog at the repo benchmark's ``fr_q1_mixed`` size
        (recorded at the same commit as the datasets above)."""
        from repro.graphs.stream import (
            churn_stream,
            derive_localized_stream,
            derive_stream,
        )

        fr = datasets.DATASETS["FR"].build(0)
        seen = {}
        for derive in (derive_stream, churn_stream, derive_localized_stream):
            rng = np.random.default_rng(1)
            g0, batches = derive(fr, num_updates=9600, batch_size=96, seed=rng)
            arrays = [g0.indptr, g0.indices, g0.labels]
            for b in batches:
                arrays += [b.edges, b.signs]
            after = rng.integers(0, 2**62, size=4)
            seen[derive.__name__] = (len(batches), self.digest(*arrays, after))
        assert seen == {
            "derive_stream": (100, "a0600d4b2b223cf7"),
            "churn_stream": (101, "dcf0e13d9522f123"),
            "derive_localized_stream": (100, "8651f963c3fcd4d1"),
        }

    @pytest.mark.parametrize("name, derive, updates, batch_size, seed, pinned", [
        ("CA", "derive_stream", 9600, 64, 0, (150, "02cb901fe3aef8aa")),
        ("CA", "derive_stream", 9600, 64, 1, (150, "0041454266a5cbd1")),
        ("FR", "derive_stream", 9600, 96, 0, (100, "c61276fb40d05e1c")),
        ("FR", "derive_stream", 9600, 96, 1, (100, "a0600d4b2b223cf7")),
        ("SF3K", "churn_stream", 6400, 64, 0, (101, "e4c4f6cd1a1dbe2e")),
        ("SF3K", "churn_stream", 6400, 64, 1, (101, "58225d34841a3df4")),
    ])
    def test_benchmark_streams(self, name, derive, updates, batch_size, seed, pinned):
        """``G_0``, every batch and the generator state after, for the repo
        benchmark's three dataset workloads at their sizes (recorded before
        ``without_edges`` became a mask of the CSR)."""
        from repro.graphs import stream

        rng = np.random.default_rng(seed)
        g0, batches = getattr(stream, derive)(
            datasets.DATASETS[name].build(0), num_updates=updates, batch_size=batch_size,
            seed=rng,
        )
        arrays = [g0.indptr, g0.indices, g0.labels]
        for b in batches:
            arrays += [b.edges, b.signs]
        after = rng.integers(0, 2**62, size=4)
        assert (len(batches), self.digest(*arrays, after)) == pinned
