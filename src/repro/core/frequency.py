"""Random-walk access-frequency estimation (paper Sec. IV).

GCSM must predict, *before* matching, which vertices' neighbor lists the
matching kernel will read most often.  The paper's technique samples paths
of the matching execution tree:

* a walk starts at a root delta edge (probability ``1/|ΔE|``),
* at each tree node it computes the true candidate set ``V`` (performing the
  same intersections the kernel would), picks one candidate uniformly
  (``1/|V|``) and continues with probability ``|V|/D`` where ``D`` is the
  graph's maximum degree — so every child node is reached with marginal
  probability ``1/D``,
* every neighbor-list access performed along the walk is recorded, and the
  inverse-probability weight ``|ΔE| · D^{level-1}`` makes the accumulated
  count an **unbiased estimator** of the exact access frequency ``C_v``
  (paper Eq. 3 and Theorem 1).

Sec. IV-B's *merged execution* is implemented exactly: instead of running M
independent walks, one traversal carries a multiplicity ``B`` per node —
``B_root ~ Binomial(M, 1/|ΔE|)`` and ``B_child ~ Binomial(B_parent, 1/D)``
— which visits each node at most once and shares all set intersections.

Scale note: the paper sets ``M = |ΔE| · D^{n-2} / 32^n`` on billion-edge
graphs.  At our scaled sizes that expression degenerates (it was tuned to
their D and batch regimes), so :func:`default_num_walks` uses the same
*shape* (linear in ``|ΔE|``, gently increasing with ``D``) re-anchored so
that estimation overhead lands in the paper's Table II range (< 10 % of
total time); Eq. (5)'s sample-size bound is exposed as
:func:`required_walks` and drives the adaptive re-sampling loop of
:meth:`FrequencyEstimator.estimate_adaptive`.

Every estimate is one :meth:`FrequencyEstimator.walk` over a **no-sharing**
:class:`~repro.core.querytrie.ExecutionTrie` — one chain per ΔM plan, the
per-depth tables :func:`~repro.core.matching.match_trie` launches over: a
query's plans (:meth:`FrequencyEstimator.estimate`) or all of a rulebook's
(:meth:`repro.core.multiquery.Rulebook.estimate`).  A sampler supplies only
the descent — level-synchronous in :mod:`repro.core.frequency_frontier`,
per-node depth-first in its parity oracle
(:class:`repro.testing.kernels.RecursiveFrequencyEstimator`); see
``docs/frequency.md`` for the three-layer parity contract the two satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matching import delta_roots, filter_root_predicate
from repro.core.querytrie import ExecutionTrie, solo_trie
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters
from repro.gpu.device import DeviceConfig
from repro.query.plan import MatchPlan
from repro.utils import VERTEX_DTYPE, as_generator, require, segment_offsets

__all__ = [
    "EstimationResult",
    "FrequencyEstimator",
    "required_walks",
    "default_num_walks",
]


def required_walks(
    pattern_size: int,
    batch_size: int,
    max_degree: int,
    min_frequency: float,
    *,
    alpha: float = 1.0,
    confidence: float = 0.9,
) -> float:
    """Paper Eq. (5): walks needed to rank a vertex of frequency
    ``(1+alpha) * min_frequency`` above one of frequency ``min_frequency``
    with the given confidence.

    Returned as a float (it can be astronomically large for small
    ``min_frequency`` — callers clamp).
    """
    require(pattern_size >= 2, "pattern size must be >= 2")
    require(alpha > 0, "alpha must be positive")
    require(0 < confidence < 1, "confidence must be in (0,1)")
    require(min_frequency > 0, "min_frequency must be positive")
    n = pattern_size
    numerator = (n - 1) * (2 + alpha) * batch_size * float(max_degree) ** (n - 2)
    return numerator / (alpha**2 * (1 - confidence) * min_frequency)


def default_num_walks(batch_size: int, max_degree: int, pattern_size: int) -> int:
    """Default sampling budget.

    Linear in ``|ΔE|`` with a mild boost for deeper patterns (deeper trees
    dilute per-level multiplicities), floored so tiny batches still estimate
    something.  Keeps FE cost in the paper's Table II band (< 10 % of total
    time) while holding cache coverage near Fig. 15b levels.
    """
    depth_boost = 1.0 + 0.25 * max(0, pattern_size - 5)
    return max(256, int(2 * batch_size * depth_boost))


@dataclass
class EstimationResult:
    """Output of one estimation pass.

    ``frequencies[v]`` is the unbiased estimate of vertex ``v``'s access
    count during exact matching of this batch (average of Eq. (3) over the
    walks).  ``sampled_vertices`` are the vertices with nonzero estimates —
    the candidate cache set.  ``counters`` holds the CPU-side cost of the
    estimation itself (priced as Table II's "FE" column).
    """

    frequencies: np.ndarray
    num_walks: int
    nodes_visited: int
    counters: AccessCounters

    @property
    def sampled_vertices(self) -> np.ndarray:
        return np.nonzero(self.frequencies > 0)[0]

    def top_vertices(self, k: int) -> np.ndarray:
        """The k highest-estimated vertices, ties broken by ascending vertex id.

        ``lexsort`` keys on (vertex id, -frequency): the primary order is
        descending frequency, and equal-frequency runs — including ties that
        straddle the ``k`` boundary — resolve to the smallest vertex ids, so
        the returned prefix is fully deterministic.
        """
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        freq = self.frequencies
        nonzero = np.nonzero(freq > 0)[0]
        k = min(k, int(nonzero.size))
        if k == 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((nonzero, -freq[nonzero]))
        return nonzero[order[:k]]


class FrequencyEstimator:
    """Merged-binomial random-walk estimator over the ΔM_i execution trees.

    Base of the production sampler and its recursive oracle: the budget
    arithmetic, the root draws, the normalisation and the Eq. (5) re-sampling
    loop are written once here; a subclass supplies :meth:`_descend`.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        device: DeviceConfig,
        *,
        seed: int | np.random.Generator | None = 0,
        survival: float | None = None,
        attributes=None,
    ) -> None:
        """``survival`` selects the walk-continuation schedule.

        ``None`` (paper fidelity): every child of a node is continued into
        with probability ``1/D`` — the paper's "pick one of |V| uniformly,
        continue with probability |V|/D".  At the paper's scale (D ≈ 5000,
        M ∝ D^{n-2}) enough walks survive to deep levels; at scaled-down D
        the same schedule starves levels ≥ 3 for deep patterns.

        A float ``c`` switches to survival sampling: each child continues
        with probability ``min(1, c/|V|)`` — an expected ``c`` children per
        node per walk, so walks penetrate every level.  The estimate stays
        **unbiased** (Theorem 1's argument only needs the per-node sampling
        probability to be known, and the inverse-probability weight is
        tracked exactly); only the variance/cost trade-off changes.

        ``attributes`` is the engine's edge-weight overlay (``None``: the
        hash weights): the walks prune by weight predicates as the kernel does.
        """
        if type(self) is FrequencyEstimator:
            raise NotImplementedError("the samplers' base has no _descend")
        self.graph = graph
        self.device = device
        self.rng = as_generator(seed)
        self.survival = survival
        self.attributes = attributes

    # ------------------------------------------------------------------
    def estimate(
        self,
        plans: list[MatchPlan],
        batch: UpdateBatch,
        *,
        num_walks: int | None = None,
        max_degree: int | None = None,
        expansion=None,
    ) -> EstimationResult:
        """Run the merged sampler over all delta plans of one query: the
        budget split evenly across the m plans (each ΔM_i tree is sampled
        independently; their access frequencies add), then one :meth:`walk`
        of the trie :func:`~repro.core.matching.match_batch` launches over
        (reading ``expansion``, the matcher's run of it, where it can)."""
        if max_degree is None:
            max_degree = max(1, self.graph.max_degree())
        if num_walks is None:
            num_walks = default_num_walks(
                len(batch), max_degree, plans[0].query.num_vertices
            )
        per_chain = max(1, num_walks // max(1, len(plans)))
        frequencies, nodes, counters = self.walk(
            solo_trie(plans), {None: batch}, {None: per_chain}, max_degree, expansion
        )
        return EstimationResult(frequencies, num_walks, nodes, counters)

    def walk(
        self, trie: ExecutionTrie, batches: dict, walks: dict, max_degree: int, expansion=None
    ) -> tuple[np.ndarray, int, AccessCounters]:
        """The one primitive: walk every chain of a **no-sharing** ``trie``
        whose query is a key of ``batches`` — ``walks[query]`` merged walks
        per chain over the roots of ``batches[query]`` — and return
        ``(frequencies, nodes_visited, counters)``.

        Where ``expansion`` (the matcher's run of this batch) holds all the
        drawn roots, the descent reads its launches instead of running its own.

        ``frequencies`` sums each chain's Eq. 3 tally over its own budget: a
        query's estimate, or a rulebook's pooled one.  Chains of one budget
        share an accumulator row, divided once after the walk: a row's
        charges are integer-valued floats in the full-expansion regime, so
        the samplers agree bit for bit in any charging order (``1/budget``
        folded into the root weight would make every sum order-dependent).
        """
        require(trie.stats.root_groups == len(trie.refs),
                "walk takes the no-sharing trie (merge=False)")
        budgets, rows = np.unique(list(walks.values()), return_inverse=True)
        tally = np.zeros((budgets.size, self.graph.num_vertices), dtype=np.float64)
        counters = AccessCounters()
        roots = self._roots(trie, batches, walks, dict(zip(walks, rows.tolist())), expansion)
        nodes = self._descend(trie, roots, max_degree, tally, counters)
        return (tally / budgets[:, None]).sum(axis=0), nodes, counters

    def _roots(self, trie, batches, walks, tally_row, expansion=None):
        """The root table: every walked chain's drawn roots stacked
        chain-major (``trie.refs`` order) as ``(rows, line, mult, weight,
        tally_row, reading)`` — the roots the kernel would process (label- and
        predicate-filtered) that drew ``B_root ~ Binomial(M, 1/|ΔR_i|) > 0``
        (merged execution), each with its chain, ``|ΔR_i|`` and accumulator row.

        A chain's roots depend on its batch and root signature alone: they
        are filtered once per distinct ``(batch object, signature)`` into a
        pool that chains gather from by index, and all chains draw in ONE
        ``rng.binomial`` over the repeated ``(M, 1/|ΔR_i|)`` columns — the
        generator fills an array argument element by element, exactly the
        stream the chain-by-chain calls consume.

        ``reading`` is ``(launches, twin)`` if every drawn root has a *twin*
        in ``expansion``'s root table (same ``delta_roots`` position plus its
        group's = chain's offset: this trie, this batch, the group kept whole).
        """
        labels, width = self.graph.labels, len(trie.root_plans)
        # the distinct batch objects: one, but for a prefilter's reduced ones
        distinct = list({id(batch): batch for batch in batches.values()}.values())
        at = {id(batch): i for i, batch in enumerate(distinct)}
        batch_of = np.array([at[id(batches[q])] if q in batches else -1 for q in trie.queries])
        budget = np.array([walks.get(q, 0) for q in trie.queries])
        row = np.array([tally_row.get(q, 0) for q in trie.queries])
        chain = np.flatnonzero(batch_of[trie.ref_query] >= 0)
        query = trie.ref_query[chain]
        used, entry = np.unique(batch_of[query] * width + trie.ref_root[chain], return_inverse=True)
        pool = [np.empty((0, 2), dtype=VERTEX_DTYPE)]  # (a head: nothing walked still stacks)
        for batch, signature in zip((used // width).tolist(), (used % width).tolist()):
            plan = trie.root_plans[signature]
            pool.append(filter_root_predicate(
                plan, *delta_roots(plan, distinct[batch], labels), self.attributes
            )[0])
        offsets = segment_offsets(np.array([r.shape[0] for r in pool[1:]], dtype=np.int64))
        size = np.diff(offsets)[entry]  # per chain: its |ΔR_i|
        starts = segment_offsets(size)
        # chain-major, one element per (chain, root): the chain's position and the pool row
        of = np.repeat(np.arange(chain.size), size)
        pick = np.repeat(offsets[entry] - starts[:-1], size) + np.arange(starts[-1])
        born = self.rng.binomial(budget[query[of]], 1.0 / size[of])
        live = np.flatnonzero(born)
        of = of[live]
        pick, reading = pick[live], None
        if expansion is not None and expansion.trie is trie and all(
            batch is expansion.batch for batch in batches.values()
        ):
            at = expansion.root_at[chain][of]
            if (at >= 0).all():
                reading = expansion.launches, at + pick - offsets[entry][of]
        rows = np.concatenate(pool)[pick].astype(np.int64, copy=False)
        return rows, chain[of], born[live], size[of].astype(np.float64), row[query[of]], reading

    def _descend(self, trie, roots, max_degree, tally, counters) -> int:
        """Walk down from the root table ``roots`` (:meth:`_roots`): Eq. 3
        charges go to ``tally[tally_row]``, FE cost to ``counters``; returns
        nodes visited."""
        raise NotImplementedError

    def estimate_adaptive(
        self,
        plans: list[MatchPlan],
        batch: UpdateBatch,
        *,
        initial_walks: int | None = None,
        alpha: float = 1.0,
        confidence: float = 0.9,
        max_walks: int = 1 << 20,
        max_rounds: int = 3,
        expansion=None,
    ) -> EstimationResult:
        """Paper Sec. IV-A closing paragraph: start with a small M, then use
        the smallest estimated frequency as ``C_y`` in Eq. (5) to decide
        whether more walks are needed, and re-sample until M suffices (or a
        hard cap is reached).  Every round reads the same ``expansion``."""
        query = plans[0].query
        max_degree = max(1, self.graph.max_degree())
        result = self.estimate(
            plans, batch, num_walks=initial_walks, max_degree=max_degree,
            expansion=expansion,
        )
        for _ in range(max_rounds - 1):
            nonzero = result.frequencies[result.frequencies > 0]
            if nonzero.size == 0:
                break
            needed = required_walks(
                query.num_vertices, len(batch), max_degree,
                float(nonzero.min()), alpha=alpha, confidence=confidence,
            )
            target = min(max_walks, int(min(needed, float(max_walks))))
            if result.num_walks >= target:
                break
            extra = self.estimate(
                plans, batch, num_walks=target, max_degree=max_degree, expansion=expansion
            )
            # average the two unbiased passes weighted by their walk counts
            w1, w2 = result.num_walks, extra.num_walks
            merged_freq = (result.frequencies * w1 + extra.frequencies * w2) / (w1 + w2)
            extra.counters.merge(result.counters)
            result = EstimationResult(
                merged_freq, w1 + w2, result.nodes_visited + extra.nodes_visited,
                extra.counters,
            )
        return result
