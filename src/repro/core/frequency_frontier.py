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
  trie — all root groups together, from the roots the kernel ran.
* The walk is **columns over the matcher's launches**, not a frontier of its
  own (the way Gunrock's subgraph matching filters a level by masking the
  frontier it holds): per candidate of a depth, the merged walk
  multiplicity ``B`` (Sec. IV-B; 0 where no walk reached it), the inverse
  sampling probability (the Eq. 3 weight — a *column*: it is
  node-dependent) and the tally row.  A launch row takes the columns of the
  candidate it extends (:attr:`~repro.core.matching.Launch.src`), a fan-out
  row enters its child with probability ``min(1, survival/k)`` at weight
  ``× 1/p`` (``k``: the incidence's per-line ``branching`` table), and the
  walked rows' share of the launch's access log is picked out by the mask
  ``walked[log.row]``.  A walk never descends where the kernel prunes, and
  launches nothing.  The access log is settled once per walk.  (The walk
  that builds its own frontier and launches its own joins lives on in
  :class:`repro.testing.kernels.LaunchingFrequencyEstimator`.)
* The branch draw and the continuation draw of a depth are each **one**
  vectorized ``rng.binomial`` call over the walked entries in launch order
  (line-major, candidates ascending: the order a frontier walk visits
  them); saturated children (``p == 1``) skip the RNG entirely, mirroring
  the recursive reference.

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
    in level-synchronous shape, as columns over the matcher's launches."""

    def _descend(self, expansion, roots, max_degree, counters) -> tuple[int, tuple]:
        """Advance every root group together down the matcher's launches: per
        depth, each row takes the columns of the candidate it extends, then
        the branch draw over the walked rows, their share of the launch's
        log and one survival draw over their candidates; one settle of the
        walk's whole access log at the end."""
        # per candidate one depth up, the roots first: the merged multiplicity
        # B (0: no walk reached it), the Eq. 3 weight and the tally row
        mult, weight, base = roots
        nodes = reached = np.count_nonzero(mult)
        logs, ops = [], 0
        for launch, record in zip(expansion.launches, expansion.records[1:]):
            if not reached:
                break
            src = launch.src
            if src is not None:  # a row takes the columns of the candidate it extends
                mult, weight, base = mult[src], weight[src], base[src]
            if record.fans:  # each row entered its child with probability p
                p = self._thinning(record.branching)[launch.line]
                thin = (p < 1.0) & (mult > 0)
                drawn = mult[thin]
                if drawn.size:  # one branch draw over the walked, thinned rows
                    mult[thin] = self.rng.binomial(drawn, p[thin])
                weight = weight / p
            walked = mult > 0
            log = launch.log
            read = walked[log.row]  # the walked rows' log entries, in log order
            at = log.row[read]
            if at.size:
                charge = mult * weight  # Eq. 3: the node's B × weight, to each vertex it reads
                length = log.length[read]
                logs.append((log.vertex[read], length, base[at], charge[at]))
                ops += int(launch.compute[walked].sum() + at.size
                           + length[log.slot[read] > 0].sum())
            # one continuation draw for the walked rows' candidates; saturated
            # candidates (p == 1) keep their row's multiplicity without
            # touching the RNG — in the full-expansion regime no sampler
            # consumes randomness below the roots
            cand_row = launch.cand_row
            if self.survival is None:
                p = np.full(cand_row.size, 1.0 / max_degree)
            else:
                p = np.minimum(1.0, self.survival / launch.cand_cnt[cand_row])
            mult = mult[cand_row]
            stoch = (p < 1.0) & (mult > 0)
            drawn = mult[stoch]
            if drawn.size:
                mult[stoch] = self.rng.binomial(drawn, p[stoch])
            weight, base = weight[cand_row] / p, base[cand_row]
            reached = np.count_nonzero(mult)
            nodes += reached
        if not logs:
            return nodes, (_NONE, _NONE, _NONE)
        # the walk's one settle, depths in order: every access is recorded
        # and charged len(list) + 1, a probed list len(list) again, on top
        # of the launches' compute (first lists, merges, predicate probes,
        # survivors).  The host view prices an access whatever came before
        # it and the charges keep their log order, so counters and tallies
        # are those of a settle per depth, bit for bit.
        vertex, length, row, charge = map(np.concatenate, zip(*logs))
        # host reads: every fetch of the walk is FE cost on the CPU's DRAM
        HostCPUView(self.graph, self.device, counters).fetch_block(vertex, length)
        counters.record_compute(ops)
        return nodes, (vertex, row, charge)
