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
* Candidate sets come from the matcher's own join,
  :func:`~repro.core.frontier.join_rows`, reading the same epoch arena of
  merged lists (:meth:`~repro.graphs.dynamic_graph.DynamicGraph.gather`):
  what a walk loads, the kernel that follows finds already in place.  The
  estimator settles the join's access log once per level.  Plans are *not*
  fused into one frontier here: the order of the RNG draws is part of the
  parity contract.
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
from repro.core.frontier import join_rows, level_table
from repro.core.matching import delta_roots
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import LevelPlan, MatchPlan

__all__ = ["FrontierFrequencyEstimator"]


class FrontierFrequencyEstimator(FrequencyEstimator):
    """The production sampler: level-synchronous merged walks.

    Same constructor, ``estimate``/``estimate_adaptive`` signatures and
    statistical contract as its recursive oracle
    (:class:`repro.testing.kernels.RecursiveFrequencyEstimator`); the
    execution shape is level-synchronous instead of recursive.
    """

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
        if max_degree is None:
            max_degree = max(1, graph.max_degree())
        if num_walks is None:
            num_walks = default_num_walks(
                len(batch), max_degree, plans[0].query.num_vertices
            )
        counters = AccessCounters()
        freq = np.zeros(n, dtype=np.float64)
        nodes_visited = 0
        walks_per_plan = max(1, num_walks // max(1, len(plans)))
        inv_d = 1.0 / max_degree

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
                    plan.levels[level_index], rows, mult, weight, inv_d, freq, counters
                )
                nodes_visited += int(rows.shape[0])
        if num_walks > 0:
            freq /= walks_per_plan
        return EstimationResult(freq, num_walks, nodes_visited, counters)

    # ------------------------------------------------------------------
    def _expand_level(
        self,
        lvl: LevelPlan,
        rows: np.ndarray,
        mult: np.ndarray,
        weight: np.ndarray,
        inv_d: float,
        freq: np.ndarray,
        counters: AccessCounters,
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
        n = rows.shape[0]
        cand_flat, cand_cnt, log, compute = join_rows(
            self.graph,
            *level_table((lvl,)).operands(rows, np.zeros(n, dtype=np.int64)),
        )
        # the batched _fetch, once per level in the join's (slot, constraint,
        # row) order: every access is recorded at its node's multiplicity ×
        # weight (paper Eq. 3) and charged len(list) + 1, and a probed list
        # pays its merge len(cand) + len(list) on top.  The join's ``compute``
        # holds the first lists and the merges; the rest is one op per read
        # plus the probed lists' lengths.
        counters.record_access_block(
            Channel.CPU_DRAM, log.vertex, log.length * BYTES_PER_NEIGHBOR
        )
        counters.record_compute(
            int(compute.sum() + log.vertex.size + log.length[log.slot > 0].sum())
        )
        np.add.at(freq, log.vertex, (mult.astype(np.float64) * weight)[log.row])

        # label + injectivity filters (unmetered in the reference, mirrored)
        if lvl.label != WILDCARD_LABEL:
            keep = self.graph.labels[cand_flat] == lvl.label
        else:
            keep = np.ones(cand_flat.size, dtype=bool)
        qrow = np.repeat(np.arange(n, dtype=np.int64), cand_cnt)
        keep &= (cand_flat[:, None] != rows[qrow]).all(axis=1)
        cand_flat = cand_flat[keep]
        qrow = qrow[keep]
        cand_cnt = np.bincount(qrow, minlength=n)
        counters.record_compute(int(cand_flat.size))

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
        next_rows = np.concatenate(
            [rows[qrow[live]], cand_flat[live][:, None]], axis=1
        )
        return next_rows, b_children[live], child_weight_parent[live] / p_child[live]
