"""Graph partitioners: which shard owns each vertex.

Ownership drives two things in the sharded pipeline:

* **root routing** — a directed root delta edge ``(x_a, x_b)`` is matched by
  the shard owning ``x_a``, so the owner map is also the work distribution;
* **cache placement** — each shard caches only the hot lists it owns, so a
  read of a remote shard's cached list crosses the peer interconnect
  (:data:`repro.gpu.counters.Channel.PEER`).

Four strategies are provided:

* :class:`HashPartitioner` — multiplicative-hash the vertex id.  Balanced
  and oblivious: neighbors land on random shards, so ``(N-1)/N`` of all
  cached-list reads are remote.
* :class:`RangePartitioner` — contiguous vertex-id ranges balanced by
  degree mass.  Captures id-locality when the graph has it (road networks);
  on shuffled social graphs it behaves like hash.
* :class:`FrequencyPartitioner` — frequency-aware: uses the Sec. IV
  random-walk estimates to find the hot vertices (exactly the ones every
  shard will cache) and re-homes each one onto the shard that already owns
  the plurality of its neighbors.  Roots are delta edges, so the shard
  processing a root owns one endpoint — co-locating a hot list with its
  neighborhood converts PEER reads into local ``GPU_GLOBAL`` reads.  Cold
  vertices keep their hash home, which keeps root routing balanced.
* :class:`MincutPartitioner` — balance-constrained min-cut over the
  batch's **reader graph**: roots read the cached lists around their own
  endpoints, so the partitioner links each root's owner-designating
  endpoint to the hot vertices within one hop, weights each link by the
  target's list bytes, and partitions *that* graph — Fennel-style
  streaming (strongest reader-graph vertices first, load-penalized shard
  scores, hard ``balance_slack`` work cap) plus bounded label-propagation
  refinement accepting only cut-reducing, balance-respecting passes.
  Without batch roots it falls back to a chunked stream + refinement over
  the full adjacency with hotness-weighted edge prices.

The placement never changes results (roots are a disjoint cover and
per-root work is placement-independent) — only where the bytes flow.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping

import numpy as np

from repro.graphs.dynamic_graph import DynamicGraph
from repro.gpu.counters import AccessCounters
from repro.utils import contains_sorted, sorted_unique

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "FrequencyPartitioner",
    "MincutPartitioner",
    "adjacency_csr",
    "weighted_cut",
    "refine_labels",
    "make_partitioner",
    "PARTITIONER_NAMES",
]

#: Knuth's multiplicative hash constant (2^32 / phi), mod 2^32.
_HASH_MULT = np.uint64(2654435761)
_HASH_MASK = np.uint64(0xFFFFFFFF)


def _hash_owners(num_vertices: int, num_devices: int) -> np.ndarray:
    ids = np.arange(num_vertices, dtype=np.uint64)
    mixed = (ids * _HASH_MULT) & _HASH_MASK
    return (mixed % np.uint64(num_devices)).astype(np.int64)


def adjacency_csr(graph: DynamicGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """Post-batch adjacency of every vertex as ``(rowptr, cols, ops)``.

    One bulk gather over :meth:`DynamicGraph.packed_runs` with the deletion
    marks dropped — no per-vertex Python merges (``csr_new`` sorts each
    list; the partitioners only ever bincount over rows, so the unsorted
    run order is irrelevant).  ``ops`` is the host work performed (entries
    touched), for :meth:`AccessCounters.record_compute` charging.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    _, total_len, flat = graph.packed_runs(np.arange(n, dtype=np.int64))
    rows = np.repeat(np.arange(n, dtype=np.int64), total_len)
    keep = flat >= 0
    flat = flat[keep]
    rows = rows[keep]
    counts = np.bincount(rows, minlength=n)
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    return rowptr, flat, int(total_len.sum()) + n


def weighted_cut(
    rowptr: np.ndarray, cols: np.ndarray, owner: np.ndarray, weight: np.ndarray
) -> tuple[float, float]:
    """``(cut_weight, total_weight)`` of the directed CSR under ``owner``.

    Each directed edge ``(u, v)`` is priced ``1 + weight[u] + weight[v]``:
    the hotter the endpoints, the likelier the list read crosses the peer
    link when the edge is cut.  Undirected edges appear twice (both
    directions), which cancels in every ratio the callers take.
    """
    rows = np.repeat(np.arange(rowptr.size - 1, dtype=np.int64), np.diff(rowptr))
    ew = 1.0 + weight[rows] + weight[cols]
    return float(ew[owner[rows] != owner[cols]].sum()), float(ew.sum())


def refine_labels(
    rowptr: np.ndarray,
    cols: np.ndarray,
    owner: np.ndarray,
    weight: np.ndarray,
    dmass: np.ndarray,
    num_devices: int,
    cap: float,
    *,
    passes: int = 4,
    move_cost: np.ndarray | None = None,
    horizon: float = 0.0,
) -> tuple[np.ndarray, int, int, float, float]:
    """Bounded label-propagation refinement of an owner map.

    Per pass every vertex votes for the shard owning the plurality of its
    hotness-weighted edges; gain-positive relabels are applied strongest
    gain first (ties to the lower vertex id) while the receiving shard's
    degree-mass stays under ``cap``, and the pass is kept only if the
    weighted cut actually went down — otherwise it is reverted and the
    search stops.  Deterministic: stable orderings, no RNG.

    ``move_cost``/``horizon`` add the online-repartitioning payback filter:
    vertex ``v`` is only a candidate when ``gain(v) * horizon >=
    move_cost[v]`` (its per-pass cut-weight gain must repay the migration
    bytes within the horizon).

    Returns ``(owner, ops, moved, cut_before, cut_after)``.
    """
    owner = owner.astype(np.int64, copy=True)
    n = owner.size
    k = num_devices
    if n == 0 or cols.size == 0 or passes <= 0 or k <= 1:
        cut0 = weighted_cut(rowptr, cols, owner, weight)[0] if cols.size else 0.0
        return owner, cols.size, 0, cut0, cut0
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr))
    ew = 1.0 + weight[rows] + weight[cols]
    ops = 2 * cols.size

    def cut_of(o: np.ndarray) -> float:
        return float(ew[o[rows] != o[cols]].sum())

    best_cut = cut_of(owner)
    cut_before = best_cut
    moved_total = 0
    idx = np.arange(n)
    for _ in range(passes):
        votes = np.zeros((n, k), dtype=np.float64)
        np.add.at(votes, (rows, owner[cols]), ew)
        ops += 3 * cols.size
        cur = votes[idx, owner]
        masked = votes
        masked[idx, owner] = -np.inf
        alt = np.argmax(masked, axis=1).astype(np.int64)
        gain = masked[idx, alt] - cur
        cand = gain > 0.0
        if move_cost is not None:
            cand &= gain * horizon >= move_cost
        movers = np.nonzero(cand)[0]
        if movers.size == 0:
            break
        morder = movers[np.lexsort((movers, -gain[movers]))]
        load = np.bincount(owner, weights=dmass, minlength=k)
        room = np.maximum(cap - load, 0.0)  # conservative: leavers not credited
        tgt = alt[morder]
        accepted = np.zeros(morder.size, dtype=bool)
        for s in range(k):
            rows_s = np.nonzero(tgt == s)[0]
            if rows_s.size == 0:
                continue
            cum = np.cumsum(dmass[morder[rows_s]])
            accepted[rows_s[cum <= room[s]]] = True
        acc = morder[accepted]
        ops += n + morder.size
        if acc.size == 0:
            break
        # Applying every gain-positive move at once oscillates for k > 2
        # (all votes were taken against the *old* map), so back off by
        # halving to the strongest-gain prefix until the cut drops.  Any
        # subset of the accepted set stays under the per-shard caps.
        trial = trial_cut = None
        while acc.size:
            trial = owner.copy()
            trial[acc] = alt[acc]
            trial_cut = cut_of(trial)
            ops += cols.size
            if trial_cut < best_cut:
                break
            acc = acc[: acc.size // 2]
        if acc.size == 0:
            break  # even the single best move does not reduce the cut
        owner = trial
        best_cut = trial_cut
        moved_total += int(acc.size)
    return owner, ops, moved_total, cut_before, best_cut


class Partitioner(ABC):
    """Strategy assigning every vertex to one of ``num_devices`` shards."""

    name: str = "abstract"
    #: whether :meth:`assign` wants the random-walk frequency estimates
    requires_frequencies: bool = False

    @abstractmethod
    def assign(
        self,
        graph: DynamicGraph,
        frequencies: np.ndarray | None,
        num_devices: int,
        counters: AccessCounters | None = None,
        *,
        roots: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``int64[num_vertices]`` owner ids in ``[0, num_devices)``.

        ``counters``, when given, receives the host-side compute cost of
        producing the assignment (priced into the pack phase).

        ``roots``, when given, is the batch's effective root delta edges
        (``int[num_roots, 2]``) — the actual read workload of the batch.
        Partitioners that model reader traffic directly (mincut) use it;
        the others ignore it.
        """

    def options(self) -> dict:
        """Resolved tuning knobs, recorded in the harness/results JSON."""
        return {}


class HashPartitioner(Partitioner):
    """Owner = multiplicative hash of the vertex id, mod N."""

    name = "hash"

    def assign(self, graph, frequencies, num_devices, counters=None, *, roots=None):
        if counters is not None:
            counters.record_compute(graph.num_vertices)
        return _hash_owners(graph.num_vertices, num_devices)


class RangePartitioner(Partitioner):
    """Contiguous id ranges, boundaries placed to balance degree mass."""

    name = "range"

    def assign(self, graph, frequencies, num_devices, counters=None, *, roots=None):
        n = graph.num_vertices
        degrees = graph.degrees_new().astype(np.float64)
        if counters is not None:
            counters.record_compute(2 * n)
        total = degrees.sum()
        if total <= 0:
            # empty graph: plain id ranges
            return np.minimum(
                (np.arange(n, dtype=np.int64) * num_devices) // max(1, n),
                num_devices - 1,
            )
        cumulative = np.cumsum(degrees)
        targets = total * (np.arange(1, num_devices, dtype=np.float64) / num_devices)
        bounds = np.searchsorted(cumulative, targets)
        return np.searchsorted(bounds, np.arange(n, dtype=np.int64), side="right").astype(
            np.int64
        )


class FrequencyPartitioner(Partitioner):
    """Frequency-aware clustering: hot vertices pull their neighborhoods.

    Hot = vertices the random walks sampled (estimate > 0) — the same set
    the frequency cache policy will select, i.e. exactly the lists whose
    placement decides how much traffic crosses the interconnect.  A read of
    hot list ``v`` is issued by the shard owning the root endpoint, and
    roots land on arbitrary vertices of ``v``'s neighborhood — so moving
    only ``v`` barely helps (the readers stay scattered).  Instead, each hot
    vertex (hottest first) pulls itself *and its still-unclaimed neighbors*
    onto one shard, chosen by current plurality among the group.  Roots
    rooted anywhere in that neighborhood then read ``v`` locally.

    A degree-mass load cap (``balance_slack`` over the perfect share) stops
    the hottest hubs from collapsing the graph onto one shard, which would
    trade PEER traffic for a straggler.  Cold vertices keep their hash home;
    with no estimates available (degree policy, cold start) the result is
    plain hash.
    """

    name = "freq"
    requires_frequencies = True

    def __init__(self, balance_slack: float = 0.25) -> None:
        self.balance_slack = float(balance_slack)

    def options(self) -> dict:
        return {"balance_slack": self.balance_slack}

    def assign(self, graph, frequencies, num_devices, counters=None, *, roots=None):
        n = graph.num_vertices
        owners = _hash_owners(n, num_devices)
        if counters is not None:
            counters.record_compute(n)
        if frequencies is None or num_devices == 1:
            return owners
        hot = np.nonzero(frequencies[:n] > 0)[0]
        if hot.size == 0:
            return owners
        order = np.argsort(-frequencies[hot], kind="stable")
        hot = hot[order]

        degrees = graph.degrees_new().astype(np.int64)
        load = np.bincount(owners, weights=degrees, minlength=num_devices)
        cap = (1.0 + self.balance_slack) * degrees.sum() / num_devices
        claimed = np.zeros(n, dtype=bool)

        # One bulk gather replaces the per-vertex ``neighbors_new`` merges:
        # the raw packed runs minus deletion marks are the same *set* of
        # neighbors, and every consumer below (integer-weighted bincount
        # votes, boolean claims) is order-independent — so the claiming
        # loop is bit-identical to repro.testing.oracles.assign_reference.
        _, total_len, flat = graph.packed_runs(hot)
        bounds = np.zeros(hot.size + 1, dtype=np.int64)
        np.cumsum(total_len, out=bounds[1:])

        ops = n
        for i, v in enumerate(hot.tolist()):
            if claimed[v]:
                continue
            run = flat[bounds[i]:bounds[i + 1]]
            nbrs = run[run >= 0]
            ops += nbrs.size + 1
            group = nbrs[~claimed[nbrs]]
            group = np.append(group, v)
            votes = np.bincount(owners[group], weights=degrees[group] + 1,
                                minlength=num_devices)
            target = int(np.argmax(votes))
            movers = group[owners[group] != target]
            moved_mass = int(degrees[movers].sum())
            if load[target] + moved_mass > cap:
                claimed[v] = True
                continue
            np.subtract.at(load, owners[movers], degrees[movers])
            load[target] += moved_mass
            owners[group] = target
            claimed[group] = True
        if counters is not None:
            counters.record_compute(ops)
        return owners


class MincutPartitioner(Partitioner):
    """Balance-constrained min-cut over the *reader graph* of the batch.

    The quantity a partitioner can actually change is PEER bytes, and those
    flow through a very specific structure: root delta edge ``(a, b)`` is
    matched by the shard owning ``a``, and while matching it reads the
    *cached* (hot) adjacency lists in the immediate vicinity of the root —
    empirically the hot vertices within one hop of either endpoint.  A read
    is remote exactly when ``owner[a] != owner[t]`` for target list ``t``.
    The true objective is therefore a **bipartite reader graph**: reader
    vertices (the roots' first endpoints) joined to hot target vertices,
    each incidence weighted by the target's list size — *not* the global
    adjacency cut, which optimizes co-location of all edges when only a few
    hundred root neighborhoods ever generate traffic.

    Given the batch's ``roots``, the partitioner:

    1. **builds the reader graph** — for every root ``(a, b)``, reader ``a``
       is linked to each hot vertex in ``{a, b} ∪ N(a) ∪ N(b)``, with edge
       weight ``deg(t)`` (the bytes of ``t``'s list) accumulated over roots
       (all one bulk gather + ``np.unique`` aggregation);
    2. **streams it Fennel-style** — reader-graph vertices are placed
       strongest-first (sum of incident weight desc), each choosing the
       shard maximizing ``affinity/max_affinity - load_weight·load/target``
       among shards whose *work load* stays under the hard cap
       ``(1 + balance_slack) · total_work / N`` (work = the read bytes a
       reader's roots will issue — the real match-time distribution);
    3. **refines by label propagation** — bounded to ``refine_passes``,
       strongest gains first, per-shard cap enforced, a pass kept only if
       the weighted cut strictly drops;
    4. **scatters** the placement over the hash base map: every vertex
       outside the reader graph keeps its hash home, so root routing of the
       cold fringe stays balanced.

    Every accepted load is below the cap except spills to the least-loaded
    shard, so ``max_load <= cap + max_vertex_work`` — the same guarantee
    the freq partitioner gives.

    With no ``roots`` (or no frequency estimates) it falls back to a
    chunked Fennel stream + :func:`refine_labels` on the full adjacency
    with hotness-weighted edge prices — the best available proxy when the
    batch workload is unknown.
    """

    name = "mincut"
    requires_frequencies = True

    def __init__(
        self,
        balance_slack: float = 0.15,
        refine_passes: int = 4,
        chunk: int = 1024,
        load_weight: float = 0.5,
        root_slack: float = 0.4,
    ) -> None:
        self.balance_slack = float(balance_slack)
        self.refine_passes = int(refine_passes)
        self.chunk = int(chunk)
        self.load_weight = float(load_weight)
        self.root_slack = float(root_slack)

    def options(self) -> dict:
        return {
            "balance_slack": self.balance_slack,
            "refine_passes": self.refine_passes,
            "chunk": self.chunk,
            "load_weight": self.load_weight,
            "root_slack": self.root_slack,
        }

    def assign(self, graph, frequencies, num_devices, counters=None, *, roots=None):
        n = graph.num_vertices
        hash_home = _hash_owners(n, num_devices)
        ops = n
        if num_devices == 1 or n == 0:
            if counters is not None:
                counters.record_compute(ops)
            return hash_home
        rowptr, cols, csr_ops = adjacency_csr(graph)
        ops += csr_ops
        degrees = np.diff(rowptr)
        dmass = degrees.astype(np.float64)
        total = float(dmass.sum())
        if total <= 0.0 or cols.size == 0:
            if counters is not None:
                counters.record_compute(ops)
            return hash_home
        k = num_devices
        if roots is not None and frequencies is not None:
            roots = np.asarray(roots)
            if roots.ndim == 2 and roots.shape[0] > 0 and roots.shape[1] >= 2:
                hot = np.asarray(frequencies[:n], dtype=np.float64) > 0
                if hot.any():
                    owner, reader_ops = self._assign_reader(
                        n, hash_home, rowptr, cols, dmass, hot, roots, k
                    )
                    ops += reader_ops
                    if owner is not None:
                        if counters is not None:
                            counters.record_compute(int(ops))
                        return owner
        target = total / k
        cap = (1.0 + self.balance_slack) * target

        weight = self._weights(frequencies, n, dmass)
        if frequencies is not None:
            freqs = np.asarray(frequencies[:n], dtype=np.float64)
            order = np.lexsort((np.arange(n), -dmass, -freqs))
        else:
            order = np.lexsort((np.arange(n), -dmass))
        ops += 3 * n

        owner = np.full(n, -1, dtype=np.int64)
        load = np.zeros(k, dtype=np.float64)
        chunk = max(1, self.chunk)
        for start in range(0, n, chunk):
            ops += self._place_chunk(
                order[start:start + chunk], rowptr, cols, owner, hash_home,
                weight, dmass, load, cap, target, k,
            )
        owner, refine_ops, _, _, _ = refine_labels(
            rowptr, cols, owner, weight, dmass, k, cap,
            passes=self.refine_passes,
        )
        ops += refine_ops
        if counters is not None:
            counters.record_compute(int(ops))
        return owner

    @staticmethod
    def _weights(frequencies, n: int, dmass: np.ndarray) -> np.ndarray:
        """Hotness weight per vertex: degree mass of cache candidates."""
        if frequencies is None:
            return dmass
        return dmass * (np.asarray(frequencies[:n], dtype=np.float64) > 0)

    def _place_chunk(
        self, chunk, rowptr, cols, owner, hash_home, weight, dmass, load,
        cap, target, k,
    ) -> int:
        """Place one stream chunk in place (mutates owner/load); returns ops."""
        m = chunk.size
        starts = rowptr[chunk]
        lens = rowptr[chunk + 1] - starts
        total_c = int(lens.sum())
        votes = np.zeros((m, k), dtype=np.float64)
        if total_c:
            offs = np.zeros(m, dtype=np.int64)
            np.cumsum(lens[:-1], out=offs[1:])
            flat = np.arange(total_c, dtype=np.int64) + np.repeat(starts - offs, lens)
            nbrs = cols[flat]
            rows = np.repeat(np.arange(m, dtype=np.int64), lens)
            nown = owner[nbrs]
            placed = nown >= 0
            if placed.any():
                ew = 1.0 + weight[nbrs[placed]] + weight[chunk[rows[placed]]]
                np.add.at(votes, (rows[placed], nown[placed]), ew)
        vmax = votes.max(axis=1, keepdims=True)
        score = votes / np.where(vmax > 0.0, vmax, 1.0)
        score -= self.load_weight * (load / max(target, 1.0))[None, :]
        feasible = (load[None, :] + dmass[chunk][:, None]) <= cap
        score = np.where(feasible, score, -np.inf)
        tgt = np.argmax(score, axis=1).astype(np.int64)
        # no placed neighbor: keep the hash home while it fits
        ridx = np.arange(m)
        novote = vmax[:, 0] <= 0.0
        home = hash_home[chunk]
        tgt = np.where(novote & feasible[ridx, home], home, tgt)
        # no feasible shard at chunk-start loads: spill handling below
        tgt[~feasible.any(axis=1)] = -1
        # enforce the cap *within* the chunk: accept additions per shard in
        # stream order until the cap is hit, spill the rest
        for s in range(k):
            rows_s = np.nonzero(tgt == s)[0]
            if rows_s.size == 0:
                continue
            cum = load[s] + np.cumsum(dmass[chunk[rows_s]])
            over = rows_s[cum > cap]
            if over.size:
                tgt[over] = -1
        spill = np.nonzero(tgt < 0)[0].tolist()
        ok = tgt >= 0
        owner[chunk[ok]] = tgt[ok]
        load += np.bincount(tgt[ok], weights=dmass[chunk[ok]], minlength=k)
        # spilled vertices go to the least-loaded shard (stream order);
        # min load <= total/N <= cap, so the overshoot is bounded by one
        # vertex's degree — the same guarantee the freq partitioner gives
        for r in spill:
            s = int(np.argmin(load))
            owner[chunk[r]] = s
            load[s] += dmass[chunk[r]]
        return total_c + 2 * m * k

    # -- reader-graph path -------------------------------------------------

    def _assign_reader(self, n, hash_home, rowptr, cols, dmass, hot, roots, k):
        """Owner map from the batch's reader graph; ``(map | None, ops)``."""
        built = self._reader_graph(n, rowptr, cols, dmass, hot, roots)
        if built is None:
            return None, rowptr[-1]
        rg_rowptr, rg_cols, rg_w, work, is_reader, verts, ops = built
        owner, load, rload, cap, rcap, stream_ops = self._stream_reader(
            rg_rowptr, rg_cols, rg_w, work, is_reader, k
        )
        owner, refine_ops = self._refine_reader(
            rg_rowptr, rg_cols, rg_w, work, is_reader, owner, load, rload,
            k, cap, rcap,
        )
        full = hash_home.copy()
        full[verts] = owner
        return full, ops + stream_ops + refine_ops + n

    @staticmethod
    def _reader_graph(n, rowptr, cols, dmass, hot, roots):
        """Bipartite reader graph as a symmetric CSR in compact id space.

        Returns ``(rg_rowptr, rg_cols, rg_w, work, is_reader, verts, ops)``
        or ``None`` when no root touches a hot list.  ``verts`` maps compact
        ids back to graph ids; ``work[i]`` is the read-byte mass vertex
        ``i``'s roots will issue (its match-time share), plus its own degree
        when it is a reader; ``is_reader`` flags the vertices that route
        roots (used by the secondary root-count balance cap).
        """
        reader = roots[:, 0].astype(np.int64)
        eid = np.arange(roots.shape[0], dtype=np.int64)
        rdr_parts, tgt_parts, eid_parts = [], [], []
        ops = 0
        for c in (0, 1):
            x = roots[:, c].astype(np.int64)
            keep = hot[x]
            rdr_parts.append(reader[keep])
            tgt_parts.append(x[keep])
            eid_parts.append(eid[keep])
            cnt = rowptr[x + 1] - rowptr[x]
            tot = int(cnt.sum())
            ops += tot + x.size
            if tot:
                offs = np.zeros(x.size, dtype=np.int64)
                np.cumsum(cnt[:-1], out=offs[1:])
                flat = cols[
                    np.arange(tot, dtype=np.int64)
                    + np.repeat(rowptr[x] - offs, cnt)
                ]
                keep = hot[flat]
                rdr_parts.append(np.repeat(reader, cnt)[keep])
                tgt_parts.append(flat[keep])
                eid_parts.append(np.repeat(eid, cnt)[keep])
        rdr = np.concatenate(rdr_parts)
        tgt = np.concatenate(tgt_parts)
        ed = np.concatenate(eid_parts)
        if rdr.size == 0:
            return None
        # one incidence per (root edge, target): a target reachable from
        # both endpoints is still read once per root
        stride = np.int64(n) + 1
        _, first = np.unique(ed * stride + tgt, return_index=True)
        rdr, tgt = rdr[first], tgt[first]
        keep = rdr != tgt
        rdr, tgt = rdr[keep], tgt[keep]
        ops += 2 * ed.size
        if rdr.size == 0:
            return None
        # aggregate to weighted (reader, target) edges
        keys, inv = np.unique(rdr * stride + tgt, return_inverse=True)
        w = np.zeros(keys.size, dtype=np.float64)
        np.add.at(w, inv, dmass[tgt])
        ur = (keys // stride).astype(np.int64)
        ut = (keys % stride).astype(np.int64)
        # compact vertex space + symmetric CSR
        verts = sorted_unique(np.concatenate([ur, ut]))
        ri = np.searchsorted(verts, ur)
        ti = np.searchsorted(verts, ut)
        m = verts.size
        u = np.concatenate([ri, ti])
        v = np.concatenate([ti, ri])
        ew = np.concatenate([w, w])
        order = np.argsort(u, kind="stable")
        u, v, ew = u[order], v[order], ew[order]
        rg_rowptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(rg_rowptr, u + 1, 1)
        rg_rowptr = np.cumsum(rg_rowptr)
        work = np.zeros(m, dtype=np.float64)
        np.add.at(work, ri, w)
        is_reader = contains_sorted(sorted_unique(reader), verts)
        work[is_reader] += dmass[verts[is_reader]]
        ops += 6 * keys.size + 2 * m
        return rg_rowptr, v, ew, work, is_reader, verts, ops

    def _stream_reader(self, rg_rowptr, rg_cols, rg_w, work, is_reader, k):
        """Sequential Fennel stream over the reader graph, strongest first.

        The reader graph is small (hot vicinity of one batch's roots) and
        hub-dominated, so each placement must see the previous ones —
        chunked snapshot placement measurably degrades the cut here.  The
        per-vertex shard scoring stays vectorized over ``k``.

        Two hard caps per shard: read-work mass (``cap``) keeps the match
        time balanced, reader count (``rcap``) keeps root routing balanced
        (one reader = one routed root group).  A vertex with no feasible
        shard spills to the least-loaded one, so the overshoot is bounded by
        a single vertex's mass.
        """
        m = work.size
        counts = np.diff(rg_rowptr)
        strength = np.zeros(m, dtype=np.float64)
        np.add.at(strength, np.repeat(np.arange(m, dtype=np.int64), counts), rg_w)
        order = np.lexsort((np.arange(m), -strength))
        total = float(work.sum())
        target = max(total / k, 1.0)
        cap = (1.0 + self.balance_slack) * total / k
        n_readers = int(is_reader.sum())
        rcap = (1.0 + self.root_slack) * n_readers / k
        owner = np.full(m, -1, dtype=np.int64)
        load = np.zeros(k, dtype=np.float64)
        rload = np.zeros(k, dtype=np.float64)
        for v in order.tolist():
            nb = rg_cols[rg_rowptr[v]:rg_rowptr[v + 1]]
            wn = rg_w[rg_rowptr[v]:rg_rowptr[v + 1]]
            votes = np.zeros(k, dtype=np.float64)
            placed = owner[nb] >= 0
            if placed.any():
                np.add.at(votes, owner[nb[placed]], wn[placed])
            score = votes / max(float(votes.max()), 1.0)
            score -= self.load_weight * load / target
            feasible = load + work[v] <= cap
            if is_reader[v]:
                feasible &= rload + 1.0 <= rcap
            score[~feasible] = -np.inf
            if feasible.any():
                s = int(np.argmax(score))
            else:
                s = int(np.argmin(rload if is_reader[v] else load))
            owner[v] = s
            load[s] += work[v]
            if is_reader[v]:
                rload[s] += 1.0
        return owner, load, rload, cap, rcap, int(rg_cols.size + 2 * m * k)

    def _refine_reader(self, rg_rowptr, rg_cols, rg_w, work, is_reader,
                       owner, load, rload, k, cap, rcap):
        """Cap-respecting LP on the reader graph; keeps only cut-reducing
        passes.  Returns ``(owner, ops)``."""
        m = work.size
        src = np.repeat(np.arange(m, dtype=np.int64), np.diff(rg_rowptr))
        idx = np.arange(m)
        rmass = is_reader.astype(np.float64)
        ops = 0

        def cut_of(o):
            return float(rg_w[o[src] != o[rg_cols]].sum())

        best_cut = cut_of(owner)
        ops += rg_cols.size
        for _ in range(max(0, self.refine_passes)):
            votes = np.zeros((m, k), dtype=np.float64)
            np.add.at(votes, (src, owner[rg_cols]), rg_w)
            cur = votes[idx, owner]
            cand = np.argmax(votes, axis=1).astype(np.int64)
            gain = votes[idx, cand] - cur
            movers = np.nonzero((gain > 0.0) & (cand != owner))[0]
            ops += 3 * rg_cols.size + m
            if movers.size == 0:
                break
            movers = movers[np.lexsort((movers, -gain[movers]))]
            room = np.maximum(cap - load, 0.0)
            rroom = np.maximum(rcap - rload, 0.0)
            trial = owner.copy()
            accepted = 0
            for s in range(k):
                ms = movers[cand[movers] == s]
                if ms.size == 0:
                    continue
                ok = ms[
                    (np.cumsum(work[ms]) <= room[s])
                    & (np.cumsum(rmass[ms]) <= rroom[s])
                ]
                trial[ok] = s
                accepted += ok.size
            if accepted == 0:
                break
            trial_cut = cut_of(trial)
            ops += rg_cols.size
            if trial_cut >= best_cut:
                break
            owner = trial
            best_cut = trial_cut
            load = np.bincount(owner, weights=work, minlength=k)
            rload = np.bincount(owner, weights=rmass, minlength=k)
        return owner, ops


PARTITIONER_NAMES = ("hash", "range", "freq", "mincut")

_PARTITIONER_CLASSES: dict[str, type[Partitioner]] = {
    "hash": HashPartitioner,
    "range": RangePartitioner,
    "freq": FrequencyPartitioner,
    "frequency": FrequencyPartitioner,
    "mincut": MincutPartitioner,
}


def make_partitioner(
    partitioner: str | Partitioner,
    opts: Mapping | None = None,
) -> Partitioner:
    """Resolve a partitioner name ('hash' | 'range' | 'freq' | 'mincut').

    ``opts`` is a mapping of tuning knobs forwarded to the constructor
    (``balance_slack`` for freq/mincut; ``refine_passes`` / ``chunk`` /
    ``load_weight`` for mincut).  Unknown names and unknown knobs raise
    ``ValueError``; the resolved knobs are readable back via
    :meth:`Partitioner.options` for the results JSON.
    """
    if isinstance(partitioner, Partitioner):
        if opts:
            raise ValueError(
                "partitioner_opts requires a partitioner *name*, not an instance"
            )
        return partitioner
    cls = _PARTITIONER_CLASSES.get(partitioner)
    if cls is None:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; choose from {PARTITIONER_NAMES}"
        )
    try:
        return cls(**dict(opts or {}))
    except TypeError as exc:
        raise ValueError(
            f"bad partitioner_opts for {partitioner!r}: {exc}"
        ) from None
