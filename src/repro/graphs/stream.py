"""Dynamic-stream derivation (paper Sec. VI-A).

The paper generates dynamic graphs from static ones: a set of edges is
sampled from the data graph, each is marked insertion or deletion with equal
probability, edges marked for insertion are removed from the initial graph
``G_0``, and the marked edges are then replayed in batches against ``G_0``.
(A vertex whose incident edges are all removed simply starts isolated.)

:func:`derive_stream` reproduces that methodology and returns the initial
snapshot plus a list of :class:`UpdateBatch` objects.  Batches are the unit
the whole pipeline operates on (``ΔE_k`` in paper Fig. 3).

:func:`generate_adversarial_stream` is the dirty counterpart: batches mixing
clean updates with every anomaly class real streams carry (duplicate
inserts, phantom deletes, same-batch churn, flapping), the input of the
``adversarial`` update mix, the service's tenants and the differential
fuzzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.graphs.static_graph import StaticGraph
from repro.utils import as_generator, as_vertex_ids, require

__all__ = [
    "UpdateBatch",
    "CanonicalReport",
    "BatchConflictError",
    "CONFLICT_MODES",
    "DEFAULT_CONFLICT_MODE",
    "derive_stream",
    "derive_localized_stream",
    "churn_stream",
    "generate_adversarial_stream",
]

#: sign conventions for update operations
INSERT = 1
DELETE = -1

#: recognized intra-batch conflict-handling modes (see ``docs/streams.md``):
#: ``strict`` rejects any anomalous batch with a diagnostic before the store
#: is touched; ``coalesce`` nets same-edge updates (last occurrence wins) and
#: drops store-level no-ops; ``ignore`` keeps only the first update of each
#: edge and drops store-level no-ops.
CONFLICT_MODES = ("strict", "coalesce", "ignore")

#: default conflict mode for the engines/baselines (the store itself defaults
#: to ``strict`` — see :meth:`repro.graphs.DynamicGraph.apply_batch`).
DEFAULT_CONFLICT_MODE = "coalesce"


class BatchConflictError(ValueError):
    """A batch violates the ``strict`` update-conflict contract.

    Raised *before* any store mutation, with a batch-level diagnostic naming
    each conflict class and example edges — the real-traffic replacement for
    the mid-mutation crashes and silent corruption the raw protocol exhibits
    on duplicate inserts, phantom deletes, and same-batch churn pairs.
    """

    def __init__(self, message: str, report: "CanonicalReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass
class CanonicalReport:
    """Classification of one batch against the current store.

    ``input_size``/``output_size`` are the raw and effective update counts;
    the per-class counters partition the raw updates (after within-batch
    netting) into the four classes of the update-conflict semantics table:
    new insert / duplicate insert / valid delete / phantom delete.
    ``intra_batch_dropped`` counts updates removed because another update of
    the same edge won the within-batch netting.
    """

    mode: str
    input_size: int = 0
    output_size: int = 0
    new_inserts: int = 0
    duplicate_inserts: int = 0
    valid_deletes: int = 0
    phantom_deletes: int = 0
    intra_batch_dropped: int = 0

    @property
    def anomalies(self) -> int:
        """Updates a conflict-free stream would never contain."""
        return self.duplicate_inserts + self.phantom_deletes + self.intra_batch_dropped

    def merge(self, other: "CanonicalReport") -> None:
        self.input_size += other.input_size
        self.output_size += other.output_size
        self.new_inserts += other.new_inserts
        self.duplicate_inserts += other.duplicate_inserts
        self.valid_deletes += other.valid_deletes
        self.phantom_deletes += other.phantom_deletes
        self.intra_batch_dropped += other.intra_batch_dropped


class UpdateBatch:
    """A batch ``ΔE`` of signed edge updates.

    Parameters
    ----------
    edges:
        ``(b, 2)`` array of undirected endpoints.
    signs:
        ``int64[b]`` of ``+1`` (insert) / ``-1`` (delete).
    new_vertex_labels:
        labels for vertices first introduced by this batch (insertions may
        carry new vertices, per the paper's problem definition).
    """

    __slots__ = ("edges", "signs", "new_vertex_labels", "_directed")

    def __init__(
        self,
        edges: np.ndarray | Sequence[tuple[int, int]],
        signs: np.ndarray | Sequence[int],
        new_vertex_labels: dict[int, int] | None = None,
    ) -> None:
        self.edges = as_vertex_ids(edges).reshape(-1, 2)
        self.signs = np.asarray(signs, dtype=np.int64).reshape(-1)
        require(self.edges.shape[0] == self.signs.shape[0], "edges/signs length mismatch")
        require(bool(np.all(np.abs(self.signs) == 1)) if self.signs.size else True,
                "signs must be +-1")
        require(bool(np.all(self.edges[:, 0] != self.edges[:, 1])) if self.edges.size else True,
                "self-loop in batch")
        require(bool(self.edges.min() >= 0) if self.edges.size else True,
                "negative vertex id in batch")
        self.new_vertex_labels = dict(new_vertex_labels or {})
        for v, label in self.new_vertex_labels.items():
            require(label >= 0, f"new vertex {v} has label {label}: vertex labels must "
                                "be >= 0 (-1 is the query wildcard)")
        self._directed = None

    def __len__(self) -> int:
        return int(self.edges.shape[0])

    def insert_edges(self) -> np.ndarray:
        return self.edges[self.signs > 0]

    def delete_edges(self) -> np.ndarray:
        return self.edges[self.signs < 0]

    def directed_updates(self) -> tuple[np.ndarray, np.ndarray]:
        """Both orientations of every update: ``(edges[2b, 2], signs[2b])``.

        The incremental nested loops of paper Fig. 2 iterate ``ΔE`` in both
        directions (the figure omits reverse edges only "for simplicity of
        illustration").  Computed once per batch and shared by every caller
        — the matcher's roots (which the estimator walks) and the
        pre-filter's decision are masks of this one pair — so both arrays are
        read-only.
        """
        if self._directed is None:
            edges = np.concatenate([self.edges, self.edges[:, ::-1]], axis=0)
            signs = np.concatenate([self.signs, self.signs])
            edges.setflags(write=False)
            signs.setflags(write=False)
            self._directed = edges, signs
        return self._directed

    def __repr__(self) -> str:
        n_ins = int(np.count_nonzero(self.signs > 0))
        return f"UpdateBatch(size={len(self)}, inserts={n_ins}, deletes={len(self) - n_ins})"


def derive_stream(
    graph: StaticGraph,
    *,
    num_updates: int | None = None,
    update_fraction: float | None = None,
    batch_size: int = 4096,
    insert_probability: float = 0.5,
    seed: int | np.random.Generator | None = 0,
) -> tuple[StaticGraph, list[UpdateBatch]]:
    """Derive ``(G_0, [ΔE_0, ΔE_1, ...])`` from a static graph.

    Exactly one of ``num_updates`` (paper: ``12 x 8192`` for the large
    graphs) or ``update_fraction`` (paper: 10 % for AZ/LJ/PA/CA) selects the
    update set.  Each selected edge becomes an insertion with probability
    ``insert_probability`` (paper: 0.5), otherwise a deletion.  Insertion
    edges are removed from the returned initial snapshot so replaying the
    stream reconstructs — and then partially dismantles — the original graph.
    """
    rng = as_generator(seed)
    all_edges = graph.edge_array()
    m = all_edges.shape[0]
    require((num_updates is None) != (update_fraction is None),
            "specify exactly one of num_updates / update_fraction")
    if update_fraction is not None:
        require(0.0 < update_fraction <= 1.0, "update_fraction out of (0, 1]")
        count = max(1, int(round(m * update_fraction)))
    else:
        assert num_updates is not None
        count = int(num_updates)
    require(count <= m, f"cannot select {count} updates from {m} edges")

    chosen_edges = all_edges[rng.choice(m, size=count, replace=False)]
    del all_edges  # the edge list dies before G_0 is built
    return _signed_batches(graph, chosen_edges, insert_probability, batch_size, rng)


def _signed_batches(
    graph: StaticGraph,
    chosen_edges: np.ndarray,
    insert_probability: float,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[StaticGraph, list[UpdateBatch]]:
    """The derivers' shared tail: each chosen edge becomes an insertion with
    probability ``insert_probability``, otherwise a deletion; the insertions
    leave ``G_0``; the update order is shuffled and cut into batches.  Each
    edge is chosen once, so a deletion always refers to an edge present in
    ``G_0`` and never follows an insertion of the same edge (as in the
    paper)."""
    count = chosen_edges.shape[0]
    signs = np.where(rng.random(count) < insert_probability, INSERT, DELETE).astype(np.int64)
    initial = graph.without_edges(chosen_edges[signs > 0])
    order = rng.permutation(count)
    chosen_edges, signs = chosen_edges[order], signs[order]
    batches = [
        UpdateBatch(chosen_edges[s : s + batch_size], signs[s : s + batch_size])
        for s in range(0, count, batch_size)
    ]
    return initial, batches


def derive_localized_stream(
    graph: StaticGraph,
    *,
    num_updates: int,
    batch_size: int,
    hotspot_fraction: float = 0.05,
    hotspot_weight: float = 10.0,
    hotspot_bias: str = "uniform",
    insert_probability: float = 0.5,
    seed: int | np.random.Generator | None = 0,
) -> tuple[StaticGraph, list[UpdateBatch]]:
    """Stream with *spatial locality*: updates cluster around hot vertices.

    Extension beyond the paper's uniform selection: real update streams
    (social activity, transactions) concentrate on hot regions.  A
    ``hotspot_fraction`` of vertices is designated hot and edges incident to
    them are ``hotspot_weight``-times likelier to be selected.
    ``hotspot_bias`` controls who gets hot: ``"uniform"`` picks random
    vertices (geographic locality), ``"degree"`` picks
    popularity-proportionally (activity concentrates on already-popular
    accounts, the common case for social/transaction streams; at most the
    vertices that have an edge get hot).  Locality
    concentrates the matcher's accesses — quantified by the locality
    ablation bench.
    """
    rng = as_generator(seed)
    require(0 < hotspot_fraction <= 1.0, "hotspot_fraction out of (0, 1]")
    require(hotspot_weight >= 1.0, "hotspot_weight must be >= 1")
    require(hotspot_bias in ("uniform", "degree"), "bias must be uniform|degree")
    all_edges = graph.edge_array()
    m = all_edges.shape[0]
    require(num_updates <= m, f"cannot select {num_updates} updates from {m} edges")

    n = graph.num_vertices
    num_hot = max(1, int(n * hotspot_fraction))
    if hotspot_bias == "degree":
        degs = graph.degrees().astype(np.float64)
        p = None
        if degs.sum() > 0:  # only a vertex with an edge can be drawn by popularity
            p = degs / degs.sum()
            num_hot = min(num_hot, int(np.count_nonzero(degs)))
        hot = rng.choice(n, size=num_hot, replace=False, p=p)
    else:
        hot = rng.choice(n, size=num_hot, replace=False)
    is_hot = np.zeros(n, dtype=bool)
    is_hot[hot] = True
    weights = np.where(is_hot[all_edges[:, 0]] | is_hot[all_edges[:, 1]],
                       hotspot_weight, 1.0)
    weights /= weights.sum()
    chosen_edges = all_edges[rng.choice(m, size=num_updates, replace=False, p=weights)]
    del all_edges, weights  # both die before G_0 is built
    return _signed_batches(graph, chosen_edges, insert_probability, batch_size, rng)


def churn_stream(
    graph: StaticGraph,
    *,
    num_updates: int,
    batch_size: int,
    seed: int | np.random.Generator | None = 0,
) -> tuple[StaticGraph, list[UpdateBatch]]:
    """Flapping stream: every batch deletes the previous batch's inserts.

    Models short-lived edges (session links, retractions): batch 0 inserts a
    chunk of fresh edges; each later batch first deletes the previous
    chunk's inserts and then inserts the next chunk, so the live delta set
    stays bounded while update volume keeps flowing.  Total updates come to
    roughly ``num_updates`` (``2·chunks − 1`` chunk-sized half-batches).
    Every delete targets a present edge and no edge repeats within a batch,
    so the stream is conflict-free under every mode, ``strict`` included.
    """
    rng = as_generator(seed)
    all_edges = graph.edge_array()
    m = all_edges.shape[0]
    require(num_updates >= 1, "need at least one update")
    chunk = max(1, batch_size // 2)
    # f fresh edges produce f + (f - last_chunk) ≈ 2f - chunk total updates
    fresh = min(m, max(chunk, (int(num_updates) + chunk) // 2))
    chosen_edges = all_edges[rng.choice(m, size=fresh, replace=False)]
    del all_edges  # the edge list dies before G_0 is built
    initial = graph.without_edges(chosen_edges)

    batches: list[UpdateBatch] = []
    prev: np.ndarray | None = None
    for start in range(0, fresh, chunk):
        cur = chosen_edges[start : min(start + chunk, fresh)]
        if prev is None:
            edges = cur
            signs = np.full(cur.shape[0], INSERT, dtype=np.int64)
        else:
            edges = np.concatenate([prev, cur], axis=0)
            signs = np.concatenate([
                np.full(prev.shape[0], DELETE, dtype=np.int64),
                np.full(cur.shape[0], INSERT, dtype=np.int64),
            ])
        batches.append(UpdateBatch(edges, signs))
        prev = cur
    return initial, batches


#: Anomaly classes the generator cycles through.  ``clean_*`` keep the
#: stream making progress; the rest reproduce the real-world pathologies
#: the update protocol must be total over.
_OP_CLASSES = (
    "clean_insert",
    "clean_delete",
    "dup_insert",
    "phantom_delete",
    "churn",
    "double_delete",
    "new_vertex",
    "flap",
)


def generate_adversarial_stream(
    initial: StaticGraph,
    *,
    num_batches: int = 4,
    batch_size: int = 16,
    seed: int | np.random.Generator | None = 0,
) -> list[UpdateBatch]:
    """Batches exhibiting every update-anomaly class (fuzzer input).

    Each batch mixes clean inserts/deletes with duplicate inserts, phantom
    deletes (including deletes of never-introduced vertices), same-batch
    insert+delete churn pairs, double deletes, new-vertex bursts (with
    labels), and hot-edge flapping (the same edge toggled several times in
    one batch).  Orientation of every emitted update is randomized, so the
    store's orientation-insensitive netting is exercised too.

    Presence is tracked under **coalesce** (last-occurrence-wins) netting so
    later batches stay plausible; under other conflict modes the class mix
    drifts slightly but every batch remains a legal input.
    """
    require(num_batches >= 1, "need at least one batch")
    require(batch_size >= 4, "adversarial batches need at least 4 updates")
    rng = as_generator(seed)
    num_labels = int(initial.labels.max()) + 1 if initial.num_vertices else 1
    present: set[tuple[int, int]] = {
        (int(u), int(v)) for u, v in initial.edge_array()
    }
    materialized = initial.num_vertices
    next_fresh = initial.num_vertices
    assigned_labels: dict[int, int] = {}
    hot: list[tuple[int, int]] = []

    def orient(e: tuple[int, int]) -> tuple[int, int]:
        return e if rng.random() < 0.5 else (e[1], e[0])

    def pick_present() -> tuple[int, int] | None:
        if not present:
            return None
        pool = sorted(present)
        return pool[int(rng.integers(0, len(pool)))]

    def pick_absent() -> tuple[int, int] | None:
        for _ in range(64):
            u = int(rng.integers(0, materialized))
            v = int(rng.integers(0, materialized))
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e not in present:
                return e
        return None

    def fresh_vertex() -> int:
        nonlocal next_fresh
        v = next_fresh
        next_fresh += 1
        assigned_labels[v] = int(rng.integers(0, num_labels))
        return v

    batches: list[UpdateBatch] = []
    for _ in range(num_batches):
        ops: list[tuple[int, int, int]] = []

        def emit(e: tuple[int, int], sign: int) -> None:
            u, v = orient(e)
            ops.append((u, v, sign))

        classes = list(_OP_CLASSES)
        rng.shuffle(classes)
        ci = 0
        while len(ops) < batch_size:
            cls = classes[ci % len(classes)]
            ci += 1
            if cls == "clean_insert":
                e = pick_absent()
                if e:
                    emit(e, +1)
            elif cls == "clean_delete":
                e = pick_present()
                if e:
                    emit(e, -1)
            elif cls == "dup_insert":
                e = pick_present()
                if e:
                    emit(e, +1)
            elif cls == "phantom_delete":
                if rng.random() < 0.5:
                    e = pick_absent()
                else:
                    # delete an edge of a vertex id nobody ever introduced
                    u = int(rng.integers(0, max(1, materialized)))
                    e = (u, next_fresh + int(rng.integers(1, 4)))
                if e:
                    emit(e, -1)
            elif cls == "churn":
                # insert-then-delete of the same edge inside one batch; the
                # delete must hit the unsorted ΔN run, then net to nothing
                e = pick_absent()
                if e:
                    emit(e, +1)
                    emit(e, -1)
            elif cls == "double_delete":
                e = pick_present()
                if e:
                    emit(e, -1)
                    emit(e, -1)
            elif cls == "new_vertex":
                # burst: a fresh vertex attached to the graph, sometimes
                # chained to a second fresh vertex
                if materialized == 0:
                    continue
                anchor = int(rng.integers(0, materialized))
                v = fresh_vertex()
                emit((anchor, v), +1)
                if rng.random() < 0.3:
                    emit((v, fresh_vertex()), +1)
            elif cls == "flap":
                if not hot:
                    e = pick_present() or pick_absent()
                    if e is None:
                        continue
                    hot.append(e)
                e = hot[int(rng.integers(0, len(hot)))]
                for _ in range(int(rng.integers(2, 4))):
                    emit(e, +1 if rng.random() < 0.5 else -1)
        ops = ops[:batch_size]
        if not ops:  # pragma: no cover - batch_size >= 4 always yields ops
            continue

        # settle presence under coalesce (last occurrence wins per edge)
        final: dict[tuple[int, int], int] = {}
        for u, v, sign in ops:
            final[(min(u, v), max(u, v))] = sign
        for e, sign in final.items():
            if sign > 0 and e not in present:
                present.add(e)
                materialized = max(materialized, e[1] + 1)
            elif sign < 0:
                present.discard(e)

        edges = np.array([(u, v) for u, v, _ in ops], dtype=np.int64)
        signs = np.array([s for _, _, s in ops], dtype=np.int64)
        labels = {
            v: lbl for v, lbl in assigned_labels.items()
            if v >= initial.num_vertices
        }
        batches.append(UpdateBatch(edges, signs, labels))
    return batches
