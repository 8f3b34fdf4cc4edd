"""Level-synchronous merged-frontier frequency estimator (the GPU analog).

The recursive sampler in :mod:`repro.testing.kernels` expands one execution
tree node per Python frame — one ``np.intersect1d``, one scalar binomial
draw, one ``_fetch`` pair of counter updates per node.  That is faithful to
the paper's description but interpreter-bound, exactly like the recursive
matching executor was before PR 3.  GPU samplers (GSI's BFS-style joins,
batch-dynamic matchers) run level-synchronous instead: every surviving walk
node of one tree level is a row of a flat frontier, and one "kernel launch"
expands the whole level.  This module is that execution shape in NumPy:

* The frontier is ``(rows, multiplicity, weight)``: an ``(r, level+2)``
  matrix of bound data vertices, the per-node merged walk multiplicity
  ``B`` (Sec. IV-B), and the per-node inverse sampling probability (the
  Eq. 3 weight — a *column*, because the survival schedule makes the weight
  node-dependent).
* Candidate sets are computed with the PR 3 sorted-set kernels: per-row
  constraint lists are gathered once per distinct vertex
  (:func:`~repro.utils.merge_sorted` replaces concatenate-and-sort) and
  intersected with :func:`~repro.core.frontier.segmented_contains`, a
  simultaneous binary search over all (candidate, list) lanes.
* All surviving children of a level draw their continuation multiplicities
  in **one** vectorized ``rng.binomial`` call; saturated children
  (``p == 1``) skip the RNG entirely, mirroring the recursive reference.
* Frequency charges accumulate via ``np.add.at`` and FE counters are
  charged in bulk via
  :meth:`~repro.gpu.counters.AccessCounters.record_access_block`.

**Parity contract** (enforced by ``tests/test_estimator_parity.py``):

(a) in the deterministic full-expansion regime — ``survival`` large enough
    that every child-continuation probability saturates to 1 — the
    frequencies, FE counters, and ``nodes_visited`` equal the recursive
    reference *exactly* (all charges are order-independent sums of
    integer-valued floats, and only the identical root draws consume RNG);
(b) in the stochastic regimes the estimate has the same distribution (the
    per-node sampling probabilities are identical; only the RNG consumption
    order differs), verified statistically against the recursive reference
    and the exact access counts ``C_v``;
(c) the sampler plugs into ``estimate_adaptive`` unchanged (inherited).

See ``docs/frequency.md`` for the data layout and the derivation.
"""

from __future__ import annotations

import numpy as np

from repro.core.frequency import FrequencyEstimator, EstimationResult, default_num_walks
from repro.core.frontier import segmented_contains
from repro.core.matching import delta_roots
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import EdgeVersion, MatchPlan
from repro.utils import merge_sorted, segment_offsets

__all__ = ["FrontierFrequencyEstimator"]

_EMPTY = np.empty(0, dtype=np.int64)


class FrontierFrequencyEstimator(FrequencyEstimator):
    """The production sampler: level-synchronous merged walks.

    Same constructor, ``estimate``/``estimate_adaptive`` signatures and
    statistical contract as its recursive oracle
    (:class:`repro.testing.kernels.RecursiveFrequencyEstimator`); the
    execution shape is level-synchronous instead of recursive.
    """

    #: touched-vertex snapshot of the batch being estimated (set per call)
    _touched_now: frozenset = frozenset()

    # ------------------------------------------------------------------
    def estimate(
        self,
        plans: list[MatchPlan],
        batch: UpdateBatch,
        *,
        num_walks: int | None = None,
        max_degree: int | None = None,
    ) -> EstimationResult:
        graph = self.graph
        labels = graph.labels
        n = graph.num_vertices
        # versioned degree vectors for the smallest-list-first ordering; the
        # adjacency is frozen between apply_batch and reorganize, so one
        # snapshot serves every plan.  max_degree reuses the same snapshot
        # (graph.max_degree() is exactly degrees_new().max()).
        deg_old = graph.degrees_old()
        deg_new = graph.degrees_new()
        if max_degree is None:
            max_degree = max(1, int(deg_new.max()) if deg_new.size else 0)
        if num_walks is None:
            num_walks = default_num_walks(
                len(batch), max_degree, plans[0].query.num_vertices
            )
        counters = AccessCounters()
        freq = np.zeros(n, dtype=np.float64)
        nodes_visited = 0
        walks_per_plan = max(1, num_walks // max(1, len(plans)))
        inv_d = 1.0 / max_degree
        # merged-list pool shared across plans (it skips Python-side merges
        # only — every *access* is still charged per plan); lists untouched
        # by the open batch need no mark-decoding or delta merge at all
        self._touched_now = graph.touched_vertices
        pool: dict[tuple[int, bool], np.ndarray] = {}

        for plan in plans:
            roots, _signs = delta_roots(plan, batch, labels)
            num_roots = roots.shape[0]
            if num_roots == 0:
                continue
            # B_root ~ Binomial(M, 1/|ΔR_i|) per root — the identical call
            # the recursive reference makes, so the streams stay aligned
            b_roots = self.rng.binomial(walks_per_plan, 1.0 / num_roots, size=num_roots)
            live = np.nonzero(b_roots > 0)[0]
            rows = roots[live].astype(np.int64, copy=False)
            mult = b_roots[live].astype(np.int64)
            weight = np.full(live.size, float(num_roots))
            nodes_visited += int(live.size)
            for level_index in range(len(plan.levels)):
                if rows.shape[0] == 0:
                    break
                rows, mult, weight = self._expand_level(
                    plan, level_index, rows, mult, weight, inv_d, freq,
                    counters, labels, deg_old, deg_new, pool,
                )
                nodes_visited += int(rows.shape[0])
        if num_walks > 0:
            freq /= walks_per_plan
        return EstimationResult(freq, num_walks, nodes_visited, counters)

    # ------------------------------------------------------------------
    def _merged_list(
        self, v: int, version: EdgeVersion, pool: dict[tuple[int, bool], np.ndarray]
    ) -> np.ndarray:
        """The merged versioned list of ``v`` (memoized; no charges here)."""
        key = (v, version is EdgeVersion.OLD)
        arr = pool.get(key)
        if arr is None:
            if v not in self._touched_now:
                # untouched by the open batch: no deletion marks, no delta —
                # both versions ARE the stored run, no decode/merge needed
                arr = self.graph.base_run_raw(v)
            elif version is EdgeVersion.OLD:
                arr = self.graph.neighbors_old(v)
            else:
                base, delta = self.graph.neighbors_new_parts(v)
                arr = merge_sorted(base, delta) if delta.size else base
            pool[key] = arr
        return arr

    def _gather(
        self,
        verts: np.ndarray,
        version: EdgeVersion,
        pool: dict[tuple[int, bool], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat segment buffer of the merged lists of ``verts``.

        Returns per-access ``(starts, lengths, flat)``; each distinct vertex's
        list is merged and stored once (the Prealloc part), indexed per row.
        """
        uniq, inv = np.unique(verts, return_inverse=True)
        arrays = [self._merged_list(int(v), version, pool) for v in uniq.tolist()]
        lens_u = np.fromiter((a.size for a in arrays), count=len(arrays), dtype=np.int64)
        starts_u = segment_offsets(lens_u)[:-1]
        flat = np.concatenate(arrays) if arrays else _EMPTY
        return starts_u[inv], lens_u[inv], flat

    # ------------------------------------------------------------------
    def _expand_level(
        self,
        plan: MatchPlan,
        level_index: int,
        rows: np.ndarray,
        mult: np.ndarray,
        weight: np.ndarray,
        inv_d: float,
        freq: np.ndarray,
        counters: AccessCounters,
        labels: np.ndarray,
        deg_old: np.ndarray,
        deg_new: np.ndarray,
        pool: dict[tuple[int, bool], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand every frontier node by one tree level.

        Returns the next frontier ``(rows, mult, weight)`` — the surviving
        children with their drawn multiplicities and updated Eq. 3 weights.
        Reproduces the recursive ``_walk`` charges node by node: every list
        fetch records its access, charges ``len(list) + 1`` compute ops and
        ``B · weight`` frequency; each merge-intersection charges
        ``len(cand) + len(other)`` for rows still alive; the final
        per-candidate charge covers the injectivity-filtered sets.
        """
        lvl = plan.levels[level_index]
        cons = lvl.constraints
        n = rows.shape[0]
        k = len(cons)

        # per-row stable constraint order by versioned degree (the recursive
        # reference's sorted(key=_len_of); stable argsort == stable sorted)
        if k == 1:
            order = np.zeros((n, 1), dtype=np.int64)
        else:
            keys = np.empty((n, k), dtype=np.int64)
            for j, c in enumerate(cons):
                degs = deg_old if c.version is EdgeVersion.OLD else deg_new
                keys[:, j] = degs[rows[:, c.position]]
            order = np.argsort(keys, axis=1, kind="stable")

        cand_flat = _EMPTY
        cand_cnt = np.zeros(n, dtype=np.int64)
        for s in range(k):
            cidx = order[:, s]
            # rows whose running candidate set emptied stop fetching — the
            # recursive early return
            active = np.ones(n, dtype=bool) if s == 0 else cand_cnt > 0
            starts = np.zeros(n, dtype=np.int64)
            lens = np.zeros(n, dtype=np.int64)
            flats: list[np.ndarray] = []
            offset = 0
            for j, c in enumerate(cons):
                sel = active & (cidx == j)
                if not sel.any():
                    continue
                verts = rows[sel, c.position]
                g_starts, g_lens, g_flat = self._gather(verts, c.version, pool)
                # the batched _fetch: every access recorded at this node's
                # multiplicity × weight (paper Eq. 3)
                counters.record_access_block(
                    Channel.CPU_DRAM, verts, g_lens * BYTES_PER_NEIGHBOR
                )
                counters.record_compute(int(g_lens.sum()) + int(verts.size))
                np.add.at(freq, verts, mult[sel].astype(np.float64) * weight[sel])
                starts[sel] = g_starts + offset
                lens[sel] = g_lens
                flats.append(g_flat)
                offset += int(g_flat.size)
            flat = np.concatenate(flats) if flats else _EMPTY
            if s == 0:
                # first constraint: its list *is* the candidate set
                cand_cnt = lens.copy()
                offsets = segment_offsets(lens)
                row_off, total = offsets[:-1], int(offsets[-1])
                idx = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(row_off, lens)
                    + np.repeat(starts, lens)
                )
                cand_flat = flat[idx]
            else:
                # merge-intersection charge: len(cand) + len(other), alive rows
                counters.record_compute(int(cand_cnt.sum() + lens.sum()))
                qstart = np.repeat(starts, cand_cnt)
                qlen = np.repeat(lens, cand_cnt)
                found = segmented_contains(flat, qstart, qlen, cand_flat)
                qrow = np.repeat(np.arange(n, dtype=np.int64), cand_cnt)
                cand_flat = cand_flat[found]
                cand_cnt = np.bincount(qrow[found], minlength=n)

        # label + injectivity filters (unmetered in the reference, mirrored)
        if lvl.label != WILDCARD_LABEL:
            keep = labels[cand_flat] == lvl.label
        else:
            keep = np.ones(cand_flat.size, dtype=bool)
        qrow = np.repeat(np.arange(n, dtype=np.int64), cand_cnt)
        keep &= (cand_flat[:, None] != rows[qrow]).all(axis=1)
        cand_flat = cand_flat[keep]
        qrow = qrow[keep]
        cand_cnt = np.bincount(qrow, minlength=n)
        counters.record_compute(int(cand_cnt.sum()))
        if cand_flat.size == 0:
            return np.empty((0, rows.shape[1] + 1), dtype=np.int64), _EMPTY, _EMPTY

        # vectorized continuation draws for all children of the level
        child_mult = mult[qrow]
        child_weight_parent = weight[qrow]
        if self.survival is None:
            p_child = np.full(cand_flat.size, inv_d)
        else:
            p_child = np.minimum(1.0, self.survival / cand_cnt[qrow])
        b_children = np.empty(cand_flat.size, dtype=np.int64)
        saturated = p_child >= 1.0
        # saturated children continue deterministically without touching the
        # RNG (same fast path as the recursive reference — in the full-
        # expansion regime neither sampler consumes randomness below the root)
        b_children[saturated] = child_mult[saturated]
        stoch = ~saturated
        if stoch.any():
            b_children[stoch] = self.rng.binomial(child_mult[stoch], p_child[stoch])
        live = b_children > 0
        if not live.any():
            return np.empty((0, rows.shape[1] + 1), dtype=np.int64), _EMPTY, _EMPTY
        next_rows = np.concatenate(
            [rows[qrow[live]], cand_flat[live][:, None]], axis=1
        )
        return next_rows, b_children[live], child_weight_parent[live] / p_child[live]
