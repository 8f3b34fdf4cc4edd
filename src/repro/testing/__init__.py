"""Reference implementations used as parity oracles by the test suites.

Nothing on the production path imports this package; ``repro verify`` (the
command-line self-check) is its one caller outside the tests.  It holds the
slow, obviously-correct twins of the vectorized production kernels:

* :mod:`repro.testing.kernels` — the recursive depth-first matching
  executor and the recursive merged-walk frequency estimator (with
  :func:`chain_estimate`, the rulebook statistic its walk replaced, and
  :class:`LaunchingFrequencyEstimator`, the walk that launches its own joins
  where production reads the matcher's), their
  sorted-set primitives (``intersect_sorted*``, ``merge_sorted_unique``,
  ``segmented_contains`` — the oracle of a launch's rank-key probe), plus
  :func:`use_reference_kernels`, the one seam engine-level parity suites
  reach them through (``engine.estimator`` and ``engine.match`` are plain
  attributes; the function swaps both);
* :mod:`repro.testing.oracles` — the per-vertex slab decode the store's
  bulk read is checked against (``neighbors_old`` / ``neighbors_new_parts`` /
  ``neighbors_new``: every list the recursive kernels read), the scalar loops
  the vectorized DCSR pack, reorganize merge and cache-budget scan are
  checked against, the per-cell road lattice and the key-subtracting
  ``without_edges`` the set-up builders are checked against (with a static
  graph's edge keys and membership, ``sorted_edge_keys`` / ``contains_edges``), the one-read
  edge export and the ``np.add.at`` index build the store's block reader is
  checked against, the
  pre-filter's per-plan decision loop (signature included) and ref-by-ref
  root-group OR the array program is checked against, the per-group root
  pipeline (``delta_roots`` … ``route_roots``, ``trie_roots_reference``) the
  driver's one root pass is checked against, and the two-run
  ``merge_sorted`` / ``is_sorted`` helpers only the oracles and tests use.

:mod:`repro.testing.fleet` holds the fleet's per-device oracles: each
shard's own budget cut, pack and price (:func:`shard_packs`), a fleet view
built over per-shard caches (:func:`sharded_view`) and the access-by-access
routing against the owner's cache (:func:`classify_by_owner`).

:mod:`repro.testing.calls` holds :func:`count_calls`, the clock that repeats
(Python ``call`` events), for gates on per-vertex / per-node Python loops,
and :mod:`repro.testing.trace` the access-trace capture and what-if replay
(:class:`~repro.testing.trace.TracingView`, ``replay_*``) the view parity
tests and ``examples/oracle_analysis.py`` price a recorded run with.

:mod:`repro.testing.reference` is the brute-force embedding counter
(:func:`count_embeddings` / :func:`find_embeddings`), the ground truth every
signed ΔM is checked against, and :mod:`repro.testing.validation` the
checkers built on it: :func:`verify_stream` (every system agrees on ΔM,
batch by batch, optionally with the oracle recount), :func:`verify_rulebook`
(a shared trie against per-query engines) and :func:`fuzz_verify` (the
differential fuzzer over adversarial streams).
"""

from repro.testing.calls import count_calls
from repro.testing.fleet import classify_by_owner, shard_packs, sharded_view
from repro.testing.kernels import (
    GALLOP_RATIO,
    LaunchingFrequencyEstimator,
    RecursiveFrequencyEstimator,
    chain_estimate,
    intersect_sorted,
    intersect_sorted_gallop,
    intersect_sorted_merge,
    match_batch_recursive,
    match_static_recursive,
    merge_sorted_unique,
    segmented_contains,
    use_reference_kernels,
)
from repro.testing.oracles import (
    IndexFields,
    ReferenceDecision,
    build_reference,
    contains_edges,
    delta_roots,
    edge_array_reference,
    filter_root_predicate,
    group_masks_reference,
    invariant_index_reference,
    is_sorted,
    label_pair_mask,
    labelled_roots,
    merge_runs_reference,
    merge_sorted,
    neighbors_new,
    neighbors_new_parts,
    neighbors_old,
    prefilter_decision_reference,
    road_network_reference,
    route_roots,
    select_within_budget_reference,
    sorted_edge_keys,
    static_roots,
    stored_runs,
    trie_roots_reference,
    versioned_degree,
    versioned_runs,
    without_edges_reference,
)

__all__ = [
    "count_calls",
    "RecursiveFrequencyEstimator",
    "LaunchingFrequencyEstimator",
    "chain_estimate",
    "match_batch_recursive",
    "match_static_recursive",
    "use_reference_kernels",
    "intersect_sorted",
    "intersect_sorted_merge",
    "intersect_sorted_gallop",
    "merge_sorted_unique",
    "GALLOP_RATIO",
    "segmented_contains",
    "stored_runs",
    "neighbors_old",
    "neighbors_new_parts",
    "neighbors_new",
    "versioned_runs",
    "versioned_degree",
    "build_reference",
    "merge_runs_reference",
    "merge_sorted",
    "is_sorted",
    "select_within_budget_reference",
    "road_network_reference",
    "sorted_edge_keys",
    "contains_edges",
    "without_edges_reference",
    "edge_array_reference",
    "IndexFields",
    "invariant_index_reference",
    "ReferenceDecision",
    "prefilter_decision_reference",
    "group_masks_reference",
    "label_pair_mask",
    "labelled_roots",
    "delta_roots",
    "static_roots",
    "filter_root_predicate",
    "route_roots",
    "trie_roots_reference",
    "shard_packs",
    "sharded_view",
    "classify_by_owner",
]
