"""Level-synchronous merged-frontier frequency estimator (the GPU analog).

The recursive sampler in :mod:`repro.testing.kernels` expands one execution
tree node per Python frame: faithful to the paper's description but
interpreter-bound.  GPU samplers (GSI's BFS-style joins, batch-dynamic
matchers) run level-synchronous instead: every surviving walk node of one
tree level is a row of a flat frontier, and one "kernel launch" expands the
whole level.  This module is that descent in NumPy, and it only reads: every
walk node is a row the matcher's :func:`~repro.core.matching.expand` ran.

* What is walked is the :class:`~repro.core.querytrie.ExecutionTrie` the
  kernel runs — a query's one *chain* per ΔM plan, or a rulebook's merged
  trie — all root groups together, from the roots the kernel ran.  The
  frontier is ``(twin, line, mult, weight)``: each row's twin in the
  expansion, its line in the depth's
  :class:`~repro.core.frontier.LevelTable`, the merged walk multiplicity
  ``B`` (Sec. IV-B) and the inverse sampling probability (the Eq. 3 weight
  — a *column*: it is node-dependent).  Rows fan out into their node's live
  children as the kernel's do, a ``(row, child)`` pair entered with
  probability ``min(1, survival/k)`` at weight ``× 1/p``, in one draw.
* Each depth is *read* from the matcher's launch of the level program,
  :func:`~repro.core.frontier.expand_rows` — the join over the epoch arena
  plus the label, weight-predicate and injectivity masks
  (:meth:`~repro.core.matching.Launch.read`) — so a walk never descends
  where the kernel prunes, and launches nothing.  The access log is settled
  once per walk.  (The launching walk it replaced lives on in
  :class:`repro.testing.kernels.LaunchingFrequencyEstimator`.)
* All surviving children of a depth draw their continuation multiplicities
  in **one** vectorized ``rng.binomial`` call; saturated children
  (``p == 1``) skip the RNG entirely, mirroring the recursive reference.

**Parity contract** (``tests/test_estimator_parity.py``,
``tests/test_estimator_walk.py``; derivation in ``docs/frequency.md``):

(a) in the deterministic full-expansion regime — ``survival`` large enough
    that every child-continuation probability saturates to 1 — the
    frequencies, FE counters, and ``nodes_visited`` equal the recursive
    reference *exactly* (all charges are order-independent sums of
    integer-valued floats, and only the root draws, made by the shared base
    group-major in one call, consume RNG);
(b) in the stochastic regimes the estimate has the same distribution (the
    per-node sampling probabilities are identical; only the RNG consumption
    order differs — here all roots, then per depth the branch draw and the
    survival draw), verified statistically against the recursive reference
    and the exact ``C_v``;
(c) the sampler plugs into ``estimate_adaptive`` unchanged (inherited).
"""

from __future__ import annotations

import numpy as np

from repro.core.frequency import FrequencyEstimator
from repro.gpu.views import HostCPUView

__all__ = ["FrontierFrequencyEstimator"]

_NONE = np.empty(0, dtype=np.int64)


class FrontierFrequencyEstimator(FrequencyEstimator):
    """The production sampler: the descent of
    :class:`repro.testing.kernels.RecursiveFrequencyEstimator`, its oracle,
    in level-synchronous shape."""

    def _descend(self, expansion, roots, max_degree, counters) -> tuple[int, tuple]:
        """Advance every root group together from the root table: per trie
        depth the fan-out and its branch draw, one read of the matcher's
        launch (:meth:`~repro.core.matching.Launch.read`) and one survival
        draw over the stacked rows; one settle of the walk's whole access log
        at the end."""
        trie, records = expansion.trie, expansion.records
        # a row is its twin in the expansion: its row in the root table, then
        # its candidate in the launch one depth up
        _, line, mult, weight, base, frontier = roots  # base: each row's tally row
        nodes = line.size
        # host reads: every fetch of the walk is FE cost on the CPU's DRAM
        view = HostCPUView(self.graph, self.device, counters)
        logs, ops = [], 0
        for depth, (level, record) in enumerate(zip(trie.levels[1:], records[1:])):
            if record.fans:
                # the kernel's fan-out: each row into every live child of its
                # node (none: the row's plans ended above), then thinned
                held = np.bincount(line, minlength=len(trie.levels[depth].nodes))
                k = np.bincount(record.parent, minlength=held.size)[line]  # live children
                pick, line = record.fan_out(held)
                p = self._thinning(k[pick])
                frontier, mult, weight, base = frontier[pick], mult[pick], weight[pick], base[pick]
                thin = p < 1.0
                if thin.any():  # one branch draw over the thinned pairs
                    mult[thin] = self.rng.binomial(mult[thin], p[thin])
                    keep = mult > 0
                    frontier, line, mult = frontier[keep], line[keep], mult[keep]
                    weight, base = (weight / p)[keep], base[keep]
            if line.size == 0:
                break
            cand_flat, parent, cand_cnt, log, compute, twin = expansion.launches[depth].read(
                frontier, line
            )
            charge = mult * weight  # Eq. 3: the node's B × weight, to each vertex it reads
            logs.append((log.vertex, log.length, base[log.row], charge[log.row]))
            ops += int(compute.sum() + log.vertex.size + log.length[log.slot > 0].sum())
            # one continuation draw for all children of the depth; saturated
            # children (p == 1) keep their parent's multiplicity without
            # touching the RNG — in the full-expansion regime no sampler
            # consumes randomness below the roots
            if self.survival is None:
                p_child = np.full(cand_flat.size, 1.0 / max_degree)
            else:
                p_child = np.minimum(1.0, self.survival / cand_cnt[parent])
            born = mult[parent]
            stoch = p_child < 1.0
            if stoch.any():
                born[stoch] = self.rng.binomial(born[stoch], p_child[stoch])
            live = born > 0
            frontier, parent = twin[live], parent[live]
            line, base = line[parent], base[parent]
            mult, weight = born[live], weight[parent] / p_child[live]
            nodes += line.size
        if not logs:
            return nodes, (_NONE, _NONE, _NONE)
        # the walk's one settle, depths in order: every access is recorded
        # and charged len(list) + 1, a probed list len(list) again, on top
        # of the launches' compute (first lists, merges, predicate probes,
        # survivors).  The host view prices an access whatever came before
        # it and the charges keep their log order, so counters and tallies
        # are those of a settle per depth, bit for bit.
        vertex, length, row, charge = map(np.concatenate, zip(*logs))
        view.fetch_block(vertex, length)
        counters.record_compute(ops)
        return nodes, (vertex, row, charge)
