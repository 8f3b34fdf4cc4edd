"""The recursive reference kernels (parity oracles).

Two per-node depth-first implementations that the level-synchronous
production kernels are checked against:

* :class:`RecursivePlanExecutor` / :func:`match_batch_recursive` /
  :func:`match_static_recursive` — one root at a time, one Python frame
  per execution-tree node.  ``MatchStats``, per-channel counters, the
  per-vertex access histogram and sink order must equal
  :func:`repro.core.matching.match_batch` bit for bit.
* :class:`RecursiveFrequencyEstimator` — the per-node merged random walk
  of paper Sec. IV-B, down any trie of plans; the three-layer parity
  contract with the frontier sampler is in ``docs/frequency.md``.
* :class:`LaunchingFrequencyEstimator` — the level-synchronous walk that
  launches its own joins per depth, which the production walk's reads of
  the matcher's expansion must equal.
* :func:`chain_estimate` — a rulebook's estimate over every query's own
  chains, the biased foil its merged-trie walk is measured against.

Engine-level suites swap both in through :func:`use_reference_kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.core.frequency import EstimationResult, FrequencyEstimator, default_num_walks
from repro.core.frontier import expand_rows
from repro.core.matching import EmbeddingSink, MatchStats, expand
from repro.core.multiquery import split_walk_budget
from repro.core.querytrie import ExecutionTrie
from repro.graphs.attributes import edge_weights
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.gpu.views import GraphView, HostCPUView
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import EdgeVersion, MatchPlan
from repro.testing.oracles import (
    delta_roots,
    filter_root_predicate,
    merge_sorted,
    route_roots,
    static_roots,
    versioned_degree,
    versioned_runs,
)
from repro.utils import VERTEX_DTYPE, require

__all__ = [
    "merge_sorted_unique",
    "intersect_sorted",
    "intersect_sorted_merge",
    "intersect_sorted_gallop",
    "GALLOP_RATIO",
    "segmented_contains",
    "RecursivePlanExecutor",
    "match_batch_recursive",
    "match_static_recursive",
    "RecursiveFrequencyEstimator",
    "LaunchingFrequencyEstimator",
    "chain_estimate",
    "use_reference_kernels",
]

_NONE = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# sorted-set reference kernels (the recursive executor's primitives)
# ----------------------------------------------------------------------
def merge_sorted_unique(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted unique 1-D arrays into one sorted unique array.

    Mirrors the linear-time merge step the paper uses when reorganizing
    updated neighbor lists (Sec. V-A step 4).
    """
    if a.size == 0:
        return np.asarray(b, dtype=VERTEX_DTYPE).copy()
    if b.size == 0:
        return np.asarray(a, dtype=VERTEX_DTYPE).copy()
    merged = np.union1d(a, b)
    return merged.astype(VERTEX_DTYPE, copy=False)


#: size ratio above which :func:`intersect_sorted` switches from the
#: merge-based kernel to galloping probes of the smaller array into the
#: larger one (the classic skewed-intersection crossover).
GALLOP_RATIO = 8


def intersect_sorted_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge-based intersection of two sorted unique arrays.

    Equivalent to the unrolled SIMD set intersection in STMatch;
    ``np.intersect1d(assume_unique=True)`` runs the same merge-based
    algorithm vectorized in C.  Best when the inputs are of similar size.
    """
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    return np.intersect1d(a, b, assume_unique=True).astype(VERTEX_DTYPE, copy=False)


def intersect_sorted_gallop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Galloping intersection: binary-probe the smaller array into the larger.

    ``O(min·log(max))`` instead of the merge kernel's ``O(min+max)`` — the
    GPU matchers' binary-search intersection for skewed list sizes.
    """
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    small, large = (a, b) if a.size <= b.size else (b, a)
    pos = np.searchsorted(large, small)
    in_range = pos < large.size
    hit = np.zeros(small.size, dtype=bool)
    hit[in_range] = large[pos[in_range]] == small[in_range]
    return small[hit].astype(VERTEX_DTYPE, copy=False)


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique vertex arrays.

    The WCOJ executor's innermost primitive.  Dispatches on the size ratio:
    similar sizes take the linear merge kernel, skewed sizes gallop the
    smaller array through the larger one.  Both return the identical sorted
    unique intersection.
    """
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    small, large = (a, b) if a.size <= b.size else (b, a)
    if large.size >= GALLOP_RATIO * small.size:
        return intersect_sorted_gallop(small, large)
    return intersect_sorted_merge(small, large)


def segmented_contains(
    flat: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """Vectorized membership of each query in its own sorted segment — the
    oracle of the production rank-key probe (the ``keys`` of
    ``DynamicGraph.operands``).

    ``queries[i]`` is looked up in ``flat[starts[i] : starts[i]+lengths[i]]``
    (each segment sorted ascending) with a *simultaneous* binary search: all
    lanes halve their ``[lo, hi)`` range per iteration, so the whole batch
    costs ``O(len(queries) · log(max segment))`` NumPy ops — the batched
    analog of one GPU thread per (candidate, list) probe.
    """
    out = np.zeros(queries.size, dtype=bool)
    if queries.size == 0 or flat.size == 0:
        return out
    lo = starts.astype(np.int64, copy=True)
    hi = lo + lengths
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        vals = flat[np.where(active, mid, 0)]
        go_right = active & (vals < queries)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    # lo is now the lower bound; a hit iff it is in range and matches
    in_range = lo < starts + lengths
    idx = np.where(in_range, lo, 0)
    out = in_range & (flat[idx] == queries)
    return out


def _merge_runs(runs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Merge already-sorted runs into one sorted array (linear merge).

    The runs arrive sorted from the store (base run, sorted ΔN), so a
    concatenate-then-full-sort is wasted work — each pair is folded with the
    linear :func:`~repro.testing.oracles.merge_sorted` kernel.  The
    single-run fast path returns the stored array untouched (no copy).
    """
    if len(runs) == 1:
        return runs[0]
    merged = runs[0]
    for r in runs[1:]:
        merged = merge_sorted(merged, r)
    return merged


class RecursivePlanExecutor:
    """Depth-first execution of one plan over a set of roots."""

    def __init__(
        self,
        plan: MatchPlan,
        view: GraphView,
        labels: np.ndarray,
        sink: EmbeddingSink | None,
        filters: dict[int, np.ndarray] | None = None,
    ) -> None:
        self.plan = plan
        self.view = view
        self.labels = labels
        self.sink = sink
        #: optional per-query-vertex candidate sets (sorted arrays); used by
        #: the RapidFlow baseline's candidate-index pruning
        self.filters = filters or {}
        #: per-level predicated constraints, in plan constraint order
        self._preds = [
            tuple(c for c in lvl.constraints if c.predicate is not None)
            for lvl in plan.levels
        ]
        self.stats = MatchStats()
        # merged-array memo: the kernel re-reads lists (recorded by the view)
        # but we keep one merged Python object per (vertex, version family)
        self._merged: dict[tuple[int, bool], np.ndarray] = {}
        self._bound = np.empty(plan.depth, dtype=VERTEX_DTYPE)

    def _versioned_list(self, v: int, version: EdgeVersion) -> np.ndarray:
        runs = versioned_runs(self.view.graph, v, version)
        # records the access every time
        self.view.fetch_block(np.array([v]), np.array([sum(r.size for r in runs)]))
        key = (v, version is EdgeVersion.OLD)
        arr = self._merged.get(key)
        if arr is None:
            arr = _merge_runs(runs)
            self._merged[key] = arr
        return arr

    def run_root(self, x_a: int, x_b: int, sign: int) -> None:
        self.stats.roots_processed += 1
        self.stats.tree_nodes += 1
        self._bound[0] = x_a
        self._bound[1] = x_b
        if self.plan.depth == 2:
            self._emit(2, 1, sign, leaf_candidates=None)
            return
        self._expand(0, sign)

    # ------------------------------------------------------------------
    def _candidates(self, level_index: int, bound_count: int) -> np.ndarray:
        lvl = self.plan.levels[level_index]
        counters = self.view.counters
        # smallest constraint list first: maximal early pruning
        cons = sorted(
            lvl.constraints,
            key=lambda c: versioned_degree(
                self.view.graph, int(self._bound[c.position]), c.version
            ),
        )
        first = cons[0]
        cand = self._versioned_list(int(self._bound[first.position]), first.version)
        counters.record_compute(cand.size)
        for c in cons[1:]:
            if cand.size == 0:
                break
            other = self._versioned_list(int(self._bound[c.position]), c.version)
            counters.record_compute(cand.size + other.size)
            cand = intersect_sorted(cand, other)
        if cand.size == 0:
            return cand
        cand_filter = self.filters.get(lvl.query_vertex)
        if cand_filter is not None:
            # candidate-index pruning (RapidFlow): the index already encodes
            # the label constraint, so it subsumes the label check.  Real
            # implementations keep membership bitmaps, so the probe is O(1)
            # per candidate (charged 1 op each); this simulation uses a
            # sorted-array intersection for the same result.
            counters.record_compute(cand.size)
            cand = intersect_sorted(cand, cand_filter)
        elif lvl.label != WILDCARD_LABEL:
            cand = cand[self.labels[cand] == lvl.label]
        # predicate pushdown: one weight probe per surviving candidate, one
        # predicated constraint at a time (plan constraint order) — the
        # frontier executor reproduces these charges as per-level sums
        for c in self._preds[level_index]:
            if cand.size == 0:
                break
            counters.record_compute(cand.size)
            w = edge_weights(int(self._bound[c.position]), cand)
            lo, hi = c.predicate
            cand = cand[(w >= lo) & (w <= hi)]
        for i in range(bound_count):  # injectivity
            if cand.size == 0:
                break
            cand = cand[cand != self._bound[i]]
        counters.record_compute(cand.size)
        return cand

    def _expand(self, level_index: int, sign: int) -> None:
        bound_count = level_index + 2
        cand = self._candidates(level_index, bound_count)
        if cand.size == 0:
            return
        last = level_index == len(self.plan.levels) - 1
        if last:
            self._emit(bound_count, cand.size, sign, leaf_candidates=cand)
            return
        for v in cand.tolist():
            self.stats.tree_nodes += 1
            self._bound[bound_count] = v
            self._expand(level_index + 1, sign)

    def _emit(self, bound_count: int, count: int, sign: int,
              leaf_candidates: np.ndarray | None) -> None:
        self.stats.signed_count += sign * count
        self.stats.embeddings_found += count
        self.stats.tree_nodes += count if leaf_candidates is not None else 0
        self.view.counters.record_output(count)
        self.view.counters.record_compute(count * self.plan.depth)
        if self.sink is not None:
            order = self.plan.order
            inverse = np.empty(len(order), dtype=np.int64)
            for pos, u in enumerate(order):
                inverse[u] = pos
            if leaf_candidates is None:
                emb = tuple(int(self._bound[inverse[u]]) for u in range(len(order)))
                self.sink(emb, sign)
            else:
                for v in leaf_candidates.tolist():
                    self._bound[bound_count] = v
                    emb = tuple(int(self._bound[inverse[u]]) for u in range(len(order)))
                    self.sink(emb, sign)


def _run_recursive(plan, view, labels, sink, filters, roots, signs):
    ex = RecursivePlanExecutor(plan, view, labels, sink, filters)
    for (x_a, x_b), sign in zip(roots.tolist(), signs.tolist()):
        ex.run_root(int(x_a), int(x_b), int(sign))
    return ex.stats


def match_batch_recursive(
    plans: list[MatchPlan],
    batch: UpdateBatch,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
    filters: dict[int, np.ndarray] | None = None,
    root_mask=None,
    prefilter=None,
) -> MatchStats:
    """:func:`repro.core.matching.match_batch` on the recursive executor: the
    driver's root pipeline plan by plan, certified by the decision's
    ``prefilter.masks[plan_index]``, then restricted to the roots
    ``root_mask`` keeps (the certified-away ones too, for ``roots_skipped``).
    Through a fleet's view each shard descends the roots it reads (its
    restriction), shard by shard (:class:`_ShardReader`)."""
    if view.num_readers > 1:
        total = MatchStats()
        for shard in range(view.num_readers):
            reader = _ShardReader(view, shard)
            stats = match_batch_recursive(
                plans, batch, reader, sink=sink, filters=filters, prefilter=prefilter,
                root_mask=lambda roots: view.readers(roots) == shard,
            )
            charged = np.zeros((3, view.num_readers), dtype=np.int64)
            charged[:, shard] = (stats.roots_processed, reader.counters.output_embeddings,
                                 reader.counters.compute_ops)
            view.charge(*charged)
            total.merge(stats)
        return total
    labels = view.graph.labels
    total = MatchStats()
    for index, plan in enumerate(plans):
        raw = delta_roots(plan, batch, labels)
        keep = None if prefilter is None else prefilter.masks[index]
        roots, signs, dropped = route_roots(plan, *raw, keep, filters=filters)
        if root_mask is not None:
            mine = root_mask(roots)
            roots, signs, dropped = roots[mine], signs[mine], dropped[root_mask(dropped)]
        total.roots_skipped += dropped.shape[0]
        total.merge(_run_recursive(plan, view, labels, sink, filters, roots, signs))
    return total


class _ShardReader(GraphView):
    """One shard of a fleet's view as the recursive executor reads through
    it: each access goes to the fleet read by the shard; its outputs and
    compute collect in ``counters`` for the shard's charge."""

    def __init__(self, fleet: GraphView, shard: int) -> None:
        super().__init__(fleet.graph, fleet.device, AccessCounters())
        self.fleet, self.shard = fleet, shard

    def classify(self, vertices: np.ndarray, lengths: np.ndarray):
        return self.fleet.classify(vertices, lengths, np.full(vertices.shape[0], self.shard))

    def fetch_block(self, vertices, lengths, reader=None):
        return self.fleet.fetch_block(vertices, lengths, np.full(vertices.shape[0], self.shard))


def match_static_recursive(
    plan: MatchPlan,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
) -> MatchStats:
    """:func:`repro.core.matching.match_static` on the recursive executor."""
    labels = view.graph.labels
    roots, signs = static_roots(plan, view.graph.edges_new_array(), labels)
    roots, signs = filter_root_predicate(plan, roots, signs)
    return _run_recursive(plan, view, labels, sink, None, roots, signs)


class RecursiveFrequencyEstimator(FrequencyEstimator):
    """Depth-first merged-binomial sampler over the ΔM_i execution trees,
    node by node down any trie of plans."""

    def _descend(self, expansion, roots, max_degree, counters) -> tuple[int, tuple]:
        """The root table row by row (group-major): one :meth:`_walk` frame
        per node, each entering its trie node's live children under the
        branch rule and launching its own reads (of the expansion only its
        trie, incidence and roots are looked at)."""
        trie, records = expansion.trie, expansion.records
        live = np.zeros(len(trie.nodes), dtype=bool)
        for level, record in zip(trie.levels, records):
            live[level.order[record.live]] = True
        nodes, charges = 0, []
        for root, group, multiplicity, num_roots, tally_row in zip(
            *map(np.ndarray.tolist, _walked_roots(expansion, roots))
        ):
            bound = np.empty(len(trie.levels) + 1, dtype=np.int64)
            bound[0], bound[1] = root
            nodes += self._walk(
                trie.levels[0].nodes[group], bound, 0, multiplicity, num_roots,
                (live, 1.0 / max_degree, (charges, tally_row), counters),
            )
        table = np.array(charges, dtype=np.float64).reshape(-1, 3)  # (vertex, row, charge)
        return nodes, (table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2])

    # ------------------------------------------------------------------
    def _fetch(
        self,
        v: int,
        version: EdgeVersion,
        counters: AccessCounters,
        multiplicity: int,
        weight: float,
        tally: tuple[list, int],
    ) -> np.ndarray:
        """Read a versioned list on the CPU, recording the access for FE cost
        and charging the frequency estimate for vertex ``v`` (to ``tally``:
        the walk's charge list and the root's tally row)."""
        # both runs of N' arrive sorted from the store, so the linear merge
        # kernel replaces the O(n log n) concatenate-then-sort
        arr = _merge_runs(versioned_runs(self.graph, v, version))
        counters.record_access(Channel.CPU_DRAM, v, arr.size * BYTES_PER_NEIGHBOR)
        counters.record_compute(arr.size + 1)
        charges, row = tally
        charges.append((v, row, multiplicity * weight))
        return arr

    def _walk(self, node, bound: np.ndarray, depth: int, multiplicity: int, weight: float,
              context: tuple) -> int:
        """One execution-tree node: ``depth + 2`` bound vertices at trie node
        ``node``, carried by ``multiplicity`` merged walks at inverse sampling
        probability ``weight``.  It enters each live child of ``node`` under
        the branch rule (:meth:`_thinning`) and expands there; returns the
        nodes visited at and below it."""
        live = context[0]
        children = [child for child in node.children.values() if live[child.order]]
        p = float(self._thinning(len(children)))
        nodes = 1
        for child in children:
            entered = multiplicity if p >= 1.0 else int(self.rng.binomial(multiplicity, p))
            if entered:
                nodes += self._expand(child, bound, depth, entered, weight / p, context)
        return nodes

    def _expand(self, node, bound: np.ndarray, depth: int, multiplicity: int, weight: float,
                context: tuple) -> int:
        """Expand trie node ``node``'s level at the row ``bound[:depth + 2]``
        with merged multiplicity ``B``; returns the child nodes visited.

        ``weight`` is the inverse sampling probability of this expansion;
        accesses performed here are charged at that weight times the
        multiplicity (paper Eq. 3).
        """
        _, inv_d, tally, counters = context
        lvl, labels = node.level, self.graph.labels
        # mirror the executor: visit constraints smallest-list-first so the
        # sampled accesses follow the exact kernel's access pattern
        def _len_of(c):
            return versioned_degree(self.graph, int(bound[c.position]), c.version)

        cand: np.ndarray | None = None
        for c in sorted(lvl.constraints, key=_len_of):
            arr = self._fetch(
                int(bound[c.position]), c.version, counters, multiplicity, weight, tally
            )
            if cand is None:
                cand = arr
            else:
                counters.record_compute(cand.size + arr.size)
                cand = np.intersect1d(cand, arr, assume_unique=True)
            if cand.size == 0:
                return 0
        assert cand is not None
        if lvl.label != WILDCARD_LABEL:
            cand = cand[labels[cand] == lvl.label]
        # weight predicates, as the kernel pushes them down: one probe per
        # surviving candidate per predicated constraint, in plan order
        for c in lvl.constraints:
            if c.predicate is None or cand.size == 0:
                continue
            counters.record_compute(cand.size)
            w = edge_weights(int(bound[c.position]), cand)
            lo, hi = c.predicate
            cand = cand[(w >= lo) & (w <= hi)]
        for i in range(depth + 2):
            cand = cand[cand != bound[i]]
        counters.record_compute(cand.size)
        if cand.size == 0:
            return 0
        if self.survival is None:
            child_p = inv_d  # paper schedule: 1/D per child
        else:
            child_p = min(1.0, self.survival / cand.size)
        if child_p >= 1.0:
            # saturated continuation: every child survives with its parent's
            # full multiplicity.  Skipping the (degenerate) binomial draw
            # keeps the RNG stream aligned with the frontier sampler, which
            # is what makes the deterministic-regime parity *exact* across
            # multiple plans (only root draws consume randomness there).
            b_children = np.full(cand.size, multiplicity, dtype=np.int64)
        else:
            b_children = self.rng.binomial(multiplicity, child_p, size=cand.size)
        child_weight = weight / child_p  # inverse sampling probability so far
        nodes = 0
        for j in np.nonzero(b_children > 0)[0]:
            bound[depth + 2] = cand[j]
            nodes += self._walk(node, bound, depth + 1, int(b_children[j]), child_weight, context)
        return nodes


def _walked_roots(expansion, roots):
    """The root columns (:meth:`FrequencyEstimator._roots`) at the roots some
    walk starts from, group-major: ``(root, group, mult, weight, tally_row)``."""
    mult, weight, tally_row = roots
    live = np.flatnonzero(mult)
    group = expansion.tiers[0][0]  # each root's line at depth 0: its group
    return expansion.roots[live], group[live], mult[live], weight[live], tally_row[live]


class LaunchingFrequencyEstimator(FrequencyEstimator):
    """The level-synchronous walk that builds its own frontier: the
    production sampler's draws in the same order, each depth one launch of
    :func:`~repro.core.frontier.expand_rows` over the walk's own rows (bound
    vertices) where production reads the matcher's launch through a mask.
    Reading equals launching bit for bit — frequencies, FE counters,
    ``nodes_visited`` and generator state — and this is what that is
    checked against.  The branch rule's ``k`` is counted here from the
    incidence's ``parent`` lines, not read from its ``branching`` table."""

    def _descend(self, expansion, roots, max_degree, counters) -> tuple[int, tuple]:
        """Advance every root group together from the walked roots: per trie
        depth the fan-out and its branch draw, one launch over the stacked
        rows and one survival draw over their candidates; one settle of the
        walk's whole access log at the end."""
        trie, records = expansion.trie, expansion.records
        rows, line, mult, weight, base = _walked_roots(expansion, roots)  # base: tally row
        nodes = line.size
        view = HostCPUView(self.graph, self.device, counters)
        logs, ops = [], 0
        for depth, (level, record) in enumerate(zip(trie.levels[1:], records[1:])):
            if record.fans:
                # each row into every live child of its node, then thinned
                held = np.bincount(line, minlength=len(trie.levels[depth].nodes))
                k = np.bincount(record.parent, minlength=held.size)[line]  # live children
                pick, line = record.fan_out(held)
                p = self._thinning(k[pick])
                rows, mult, weight, base = rows[pick], mult[pick], weight[pick], base[pick]
                thin = p < 1.0
                if thin.any():  # one branch draw over the thinned pairs
                    mult[thin] = self.rng.binomial(mult[thin], p[thin])
                    keep = mult > 0
                    rows, line, mult = rows[keep], line[keep], mult[keep]
                    weight, base = (weight / p)[keep], base[keep]
            if line.size == 0:
                break
            cand_flat, parent, cand_cnt, log, compute = expand_rows(
                self.graph, level.table, rows, line
            )
            charge = mult * weight  # Eq. 3: the node's B × weight, to each vertex it reads
            logs.append((log.vertex, log.length, base[log.row], charge[log.row]))
            ops += int(compute.sum() + log.vertex.size + log.length[log.slot > 0].sum())
            if self.survival is None:
                p_child = np.full(cand_flat.size, 1.0 / max_degree)
            else:
                p_child = np.minimum(1.0, self.survival / cand_cnt[parent])
            born = mult[parent]
            stoch = p_child < 1.0
            if stoch.any():
                born[stoch] = self.rng.binomial(born[stoch], p_child[stoch])
            live = born > 0
            rows = np.concatenate([rows[parent], cand_flat[:, None]], axis=1)[live]
            parent = parent[live]
            line, base = line[parent], base[parent]
            mult, weight = born[live], weight[parent] / p_child[live]
            nodes += line.size
        if not logs:
            return nodes, (_NONE, _NONE, _NONE)
        vertex, length, row, charge = map(np.concatenate, zip(*logs))
        view.fetch_block(vertex, length)
        counters.record_compute(ops)
        return nodes, (vertex, row, charge)


def chain_estimate(rulebook, engine, batch, decision=None, expansion=None) -> EstimationResult:
    """A rulebook's pooled estimate over every query's ΔM plans as chains of
    one no-sharing trie, aliases included: the budget split exactly across
    the queries, then evenly over a query's plans, and one walk of all the
    chains (pre-filter off).  Unbiased for the summed accesses of running
    every query on its own — a shared prefix once per chain, an alias's
    accesses though it never runs — so ``≈ 3×`` the merged kernel's on
    ``az_rulebook24``: the statistic :meth:`Rulebook.estimate
    <repro.core.multiquery.Rulebook.estimate>` is measured against, with its
    signature so a test can patch it in."""
    require(decision is None, "the chain statistic is taken with the pre-filter off")
    chains = ExecutionTrie(rulebook.plans, merge=False)
    max_degree = max(1, engine.graph.max_degree())
    total = engine.config.num_walks or default_num_walks(
        len(batch), max_degree, max(q.num_vertices for q in rulebook.queries)
    )
    shares = split_walk_budget(total, len(rulebook.queries))
    plans = [len(rulebook.plans[q.name]) for q in rulebook.queries]
    budget = np.repeat([max(1, s // n) for s, n in zip(shares, plans)], plans)
    expansion = expand(chains, batch, engine.graph)
    estimate, nodes, counters = engine.estimator.walk(expansion, budget, max_degree)
    return EstimationResult(
        *estimate, engine.graph.num_vertices, sum(shares), nodes, counters
    )


def use_reference_kernels(engine, *, matcher: bool = True, estimator: bool = True):
    """Swap ``engine``'s kernels for the recursive references; returns it.

    The one seam parity suites use: ``engine.match`` and ``engine.estimator``
    are plain attributes, so the engine under test runs the same staged
    pipeline with only the kernel bodies replaced.  The estimator keeps the
    production sampler's RNG (same seed derivation) and survival schedule.
    """
    if matcher:
        engine.match = match_batch_recursive
    if estimator:
        current = engine.estimator
        engine.estimator = RecursiveFrequencyEstimator(
            current.graph, current.device, seed=current.rng, survival=current.survival,
        )
    return engine
