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

Every estimate is one :meth:`FrequencyEstimator.walk` of the kernel's own
run, :func:`repro.core.matching.expand` of the
:class:`~repro.core.querytrie.ExecutionTrie` it matches: a query's ΔM plans
(:meth:`FrequencyEstimator.estimate`) or a rulebook's merged trie
(:meth:`repro.core.multiquery.Rulebook.estimate`), where a row enters each
of a node's ``k`` live children with probability ``min(1, survival/k)``
(:meth:`FrequencyEstimator._thinning`).  The walk only reads: its roots are
the kernel's, its rows the kernel's rows.  A sampler supplies only the
descent — level-synchronous in :mod:`repro.core.frequency_frontier`,
per-node depth-first in its parity oracle
(:class:`repro.testing.kernels.RecursiveFrequencyEstimator`); see
``docs/frequency.md`` for the three-layer parity contract the two satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.matching import Expansion, expand
from repro.core.querytrie import solo_trie
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters
from repro.gpu.device import DeviceConfig
from repro.query.plan import MatchPlan
from repro.utils import as_generator, require, sorted_unique, unique_inverse

__all__ = [
    "EstimationResult",
    "FrequencyEstimator",
    "rank_support",
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


def _tally(vertex: np.ndarray, row: np.ndarray, charge: np.ndarray,
           budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(support, values)``: the charges summed per ``(vertex, row)`` cell
    in charging order, each cell over its row's budget, then a vertex's
    cells in ascending row order (a weighted ``np.bincount`` adds in index
    order, as ``np.add.at`` does)."""
    rows = budgets.size
    cells, at = unique_inverse(vertex * rows + row)
    sums = np.bincount(at, weights=charge, minlength=cells.size)
    owner = cells // rows  # sorted: a vertex's cells are adjacent
    lead = np.ones(cells.size, dtype=bool)
    lead[1:] = owner[1:] != owner[:-1]
    values = np.bincount(lead.cumsum() - 1, weights=sums / np.maximum(budgets, 1)[cells % rows])
    return owner[lead], values


def rank_support(support: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``support`` (ascending ids) by descending ``values``, ties by ascending
    id (the sort is stable), so any prefix is deterministic."""
    return support[(-values).argsort(kind="stable")]


@dataclass
class EstimationResult:
    """Output of one estimation pass.

    ``support`` holds the vertices with a nonzero estimate, ascending (the
    candidate cache set), ``values`` the unbiased estimate of each one's
    access count during exact matching of this batch (average of Eq. (3) over
    the walks); ``frequencies`` is the dense vector over ``num_vertices``,
    built on first read.  ``counters`` holds the CPU-side cost of the
    estimation itself (priced as Table II's "FE" column).
    """

    support: np.ndarray
    values: np.ndarray
    num_vertices: int
    num_walks: int
    nodes_visited: int
    counters: AccessCounters

    @cached_property
    def frequencies(self) -> np.ndarray:
        dense = np.zeros(self.num_vertices, dtype=np.float64)
        dense[self.support] = self.values
        return dense

    @property
    def sampled_vertices(self) -> np.ndarray:
        return self.support

    def top_vertices(self, k: int) -> np.ndarray:
        """The k highest-estimated vertices, ties broken by ascending vertex
        id (:func:`rank_support`)."""
        return rank_support(self.support, self.values)[: max(k, 0)]


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

        The walks prune by weight predicates as the kernel does, on each
        edge's hash weight.
        """
        if type(self) is FrequencyEstimator:
            raise NotImplementedError("the samplers' base has no _descend")
        self.graph = graph
        self.device = device
        self.rng = as_generator(seed)
        self.survival = survival

    # ------------------------------------------------------------------
    def estimate(
        self,
        plans: list[MatchPlan],
        batch: UpdateBatch,
        *,
        num_walks: int | None = None,
        max_degree: int | None = None,
        expansion: Expansion | None = None,
    ) -> EstimationResult:
        """Run the merged sampler over all delta plans of one query: the
        budget split evenly across the m plans (each ΔM_i tree is sampled
        independently; their access frequencies add), then one :meth:`walk`
        of ``expansion``, the matcher's run of ``solo_trie(plans)`` (handed
        none, expanded here over ``batch``, which also sizes the default
        budget); ``num_walks`` reports the walks spent."""
        if max_degree is None:
            max_degree = max(1, self.graph.max_degree())
        if num_walks is None:
            num_walks = default_num_walks(
                len(batch), max_degree, plans[0].query.num_vertices
            )
        if expansion is None:
            expansion = expand(solo_trie(plans), batch, self.graph)
        per_plan = max(1, num_walks // max(1, len(plans)))
        estimate, nodes, counters = self.walk(expansion, np.full(len(plans), per_plan), max_degree)
        return EstimationResult(
            *estimate, self.graph.num_vertices, per_plan * len(plans), nodes, counters
        )

    def walk(
        self, expansion: Expansion, budget: np.ndarray, max_degree: int
    ) -> tuple[tuple[np.ndarray, np.ndarray], int, AccessCounters]:
        """The one primitive: ``budget[g]`` merged walks from root group ``g``
        (0: none) down the live nodes of ``expansion``, the matcher's run
        (:func:`~repro.core.matching.expand`) — its trie, incidence, root
        table and launches — and ``((support, values), nodes_visited,
        counters)``.

        The estimate sums each group's Eq. 3 tally over its own budget.
        Groups of one budget share an accumulator row, divided once after the
        walk (:func:`_tally`, over the cells charged): a row's charges are
        integer-valued floats in the full-expansion regime, so the samplers
        agree bit for bit in any charging order.
        """
        budgets, row = unique_inverse(budget)
        counters = AccessCounters()
        roots = self._roots(expansion, budget, row)
        nodes, charges = self._descend(expansion, roots, max_degree, counters)
        return _tally(*charges, budgets), nodes, counters

    def _roots(self, expansion, budget, tally_row):
        """The root columns ``(mult, weight, tally_row)``, one entry per row of
        the expansion's root table (group-major): ``B_root ~ Binomial(M_g,
        1/|ΔR_g|)`` — 0 where no walk starts — all in ONE ``rng.binomial``
        over the repeated ``(M_g, 1/|ΔR_g|)`` columns, the Eq. 3 weight
        ``|ΔR_g|`` and the group's tally row."""
        group, *_, size = expansion.tiers[0]  # each root's group, roots per group
        born = self.rng.binomial(budget[group], 1.0 / size[group])
        return born, size[group].astype(np.float64), tally_row[group]

    def _thinning(self, k):
        """The branch rule: a surviving row enters each of its node's ``k``
        live children with probability ``min(1, survival / k)``, weight
        ``× 1/p`` — every child without ``survival``, and an only child
        always (a chain is never thinned)."""
        if self.survival is None:
            return np.ones(np.shape(k))
        return np.where(k > 1, np.minimum(1.0, self.survival / np.maximum(k, 1)), 1.0)

    def _descend(self, expansion, roots, max_degree, counters) -> tuple[int, tuple]:
        """Walk down the live nodes of ``expansion`` (its trie and incidence)
        from the root columns ``roots`` (:meth:`_roots`), FE cost to
        ``counters``; returns the nodes visited and the Eq. 3 charges as
        ``(vertex, tally_row, charge)`` arrays in charging order."""
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
        expansion: Expansion | None = None,
    ) -> EstimationResult:
        """Paper Sec. IV-A closing paragraph: start with a small M, then use
        the smallest estimated frequency as ``C_y`` in Eq. (5) to decide
        whether more walks are needed, and re-sample until M suffices (or a
        hard cap is reached).  Every round reads the same ``expansion`` (one
        of its own when handed none), and the passes weigh by the walks they
        spent."""
        query = plans[0].query
        max_degree = max(1, self.graph.max_degree())
        if expansion is None:
            expansion = expand(solo_trie(plans), batch, self.graph)
        result = self.estimate(
            plans, batch, num_walks=initial_walks, max_degree=max_degree,
            expansion=expansion,
        )
        for _ in range(max_rounds - 1):
            if result.values.size == 0:
                break
            needed = required_walks(
                query.num_vertices, len(batch), max_degree,
                float(result.values.min()), alpha=alpha, confidence=confidence,
            )
            target = min(max_walks, int(min(needed, float(max_walks))))
            if result.num_walks >= target:
                break
            extra = self.estimate(
                plans, batch, num_walks=target, max_degree=max_degree, expansion=expansion
            )
            # the walk-weighted average of the passes, on their supports' union
            w1, w2 = result.num_walks, extra.num_walks
            support = sorted_unique(np.concatenate([result.support, extra.support]))
            passes = np.zeros((2, support.size), dtype=np.float64)
            for at, one in enumerate((result, extra)):
                passes[at, np.searchsorted(support, one.support)] = one.values
            extra.counters.merge(result.counters)
            result = EstimationResult(
                support, (passes[0] * w1 + passes[1] * w2) / (w1 + w2),
                self.graph.num_vertices, w1 + w2,
                result.nodes_visited + extra.nodes_visited, extra.counters,
            )
        return result
