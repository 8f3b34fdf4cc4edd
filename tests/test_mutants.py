"""Mutants: each plants one plausible bug by monkeypatch and names the gate
that must go red on it.

A gate that no mutant turns red proves nothing; these pin that the
pre-filter's oracle tests (``tests/test_prefilter_oracle.py``) and the
index's rebuild check (``InvariantIndex.assert_consistent``) see the bugs
an array rewrite of the decision is most likely to carry, that the
store's settle oracle (``tests/test_dynamic_graph.py::check_settle``) sees
the bugs of its batch path and of a window's move — a delete placed like an
insert, a delete's slot taken from its ``(lo, hi)`` row for both rows — and
its Python-set model (``check_dirty``) a ``coalesce`` that keeps an edge's
first update, that the engine's fault injection
(``tests/test_engine.py::check_fault_settles``) and certified-skip test see
the bugs of the one batch body, that the store's reader contract
(``tests/test_slab.py::check_handed_out_dtypes``) sees a read left 4 bytes
wide, that ``without_edges``' rebuild oracle
(``tests/test_static_graph.py::check_without``) sees the bugs of the CSR mask,
that the index-build oracle (``tests/test_prefilter.py::check_index_builds``)
sees a build that loses a block, and that the eviction tests of
``tests/test_fused_frontier.py`` see a settle order that is not the trie's
pre-order.  The cost model's and the estimator's own unit tests stand too,
not only the parity digests: ``tests/test_gpu_device.py`` sees a zero-copy
line count that rounds down, and ``tests/test_frequency.py`` /
``tests/test_estimator_walk.py`` an Eq. 5 budget without its ``(n - 1)`` and
an adaptive loop that stops after its first round.  The fleet's one keyed
settle has three: the restriction oracle
(``tests/test_restriction_parity.py``) and the per-shard counters test
(``tests/test_multigpu.py::TestShardCounters``) each see a root routed by its
second endpoint and every access charged to shard 0, and the second-shard
fault (``check_fault_settles``) a fleet view kept across batches.  Its one
pack has two, both seen by the per-device oracle
(``tests/test_multigpu.py::TestPerShardPackOracle``): a probe priced by the
union cache's size instead of its owner's, and one budget shared by the
whole fleet instead of one per shard.  The
walk's reads of the matcher's launches have two: its equality with the
launching walk (``tests/test_estimator_walk.py::TestWalkReadsTheExpansion``)
sees FE counters charged for rows no walk reached and, on a rulebook's
fan-out, a row that takes the wrong candidate's columns.  A launch's one
operand read has one: the fused kernel's parity with the recursive oracle
(``tests/test_fused_frontier.py::TestFusedPathsMatchTheOracle``) sees a read
that dedupes its asks by vertex alone, serving a touched list's ``N'`` where
``N`` was asked for.  The one root pass has two, both seen by its equality
with the per-group pipeline (``tests/test_root_routing.py``): keep-masks
scattered edge-major instead of group-major, and each group filtered by its
neighbour's root-predicate bounds.
Every gate runs the same fixed cases under the mutant and unmutated, so a red
gate is the mutant's doing.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.engine as engine
import repro.core.frequency as frequency
import repro.core.matching as matching
import repro.core.multiquery as multiquery
import repro.core.prefilter as prefilter
import tests.test_estimator_walk as walk_tests
import tests.test_frequency as frequency_tests
import tests.test_fused_frontier as fused_tests
import tests.test_gpu_device as device_tests
import tests.test_multigpu as multigpu_tests
import tests.test_prefilter as prefilter_tests
import tests.test_restriction_parity as restriction_tests
from repro.core.engine import GCSMEngine
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.static_graph import StaticGraph
from repro.gpu.device import DeviceConfig
from repro.multigpu.engine import FleetPlacement
from repro.multigpu.shard import ShardedDeviceView
from tests.test_dynamic_graph import (
    DIRTY_SEEDS, SETTLE_SEEDS, check_dirty, check_settle, dirty_example, settle_case,
)
from tests.test_engine import FAULT_STAGES, SHARD_FAULT, check_fault_settles
from tests.test_estimator_walk import mutated
from tests.test_prefilter import check_index_builds
from tests.test_prefilter_oracle import check_query, check_rulebook, random_case
from tests.test_root_routing import routing_gate
from tests.test_slab import check_handed_out_dtypes
from tests.test_static_graph import check_without, without_case

SEEDS = range(40)


def query_gate():
    """``check_query`` over the fixed cases: decisions equal the oracle and
    the index equals a rebuild after every batch."""
    for seed in SEEDS:
        g0, (query,), batches = random_case(seed)
        check_query(g0, query, batches)


def rulebook_gate():
    """``check_rulebook`` (shared trie) over the fixed cases: runners equal
    the oracle and each root group's mask the ref-by-ref OR."""
    for seed in SEEDS:
        g0, queries, batches = random_case(seed, 4)
        check_rulebook(g0, queries, batches, shared=True)


def settle_gate():
    """``check_settle`` over the fixed cases: both versions after apply and
    the settled runs after reorganize equal the set model and the merge
    oracle."""
    for seed in SETTLE_SEEDS:
        check_settle(*settle_case(seed))


def dirty_gate():
    """``check_dirty`` over the fixed cases in every conflict mode: the
    report, the effective batch and both snapshots equal the Python-set
    model, and a rejected batch changes nothing."""
    for seed in DIRTY_SEEDS:
        for mode in ("coalesce", "ignore", "strict"):
            check_dirty(dirty_example(seed), mode)


def fault_gate():
    """``check_fault_settles`` at every stage boundary, serial schedule, the
    pre-filter on: a failed batch leaves the engine settled and usable."""
    for stage in FAULT_STAGES:
        check_fault_settles(stage, "serial", "on")


def skip_gate():
    """A certified ΔM = 0 batch reaches no placement stage
    (``tests/test_prefilter.py``, the default system)."""
    prefilter_tests.TestEngineParity().test_a_certified_skip_reaches_no_placement_stage("GCSM")


def without_gate():
    """``check_without`` over the fixed cases: ``without_edges`` equals the
    rebuild oracle and returns a valid CSR."""
    for seed in SEEDS:
        check_without(*without_case(seed))


def settle_order_gate():
    """Under a pager that evicts, fused plans fault exactly as plan by plan
    and a rulebook's unified counters equal their recorded literals
    (``tests/test_fused_frontier.py``)."""
    fused_tests.TestSettleOrderUnderEviction().test_um_counters_equal_plan_by_plan_execution()
    fused_tests.TestTrieSettleOrder().test_unified_placement_under_eviction()


def zero_copy_gate():
    """The zero-copy line count at hand-computed sizes, scalar and block
    (``tests/test_gpu_device.py``)."""
    device_tests.TestDeviceConfig().test_zero_copy_lines_round_up()


def shard_slice_gate():
    """``tests/test_restriction_parity.py::test_a_shards_slice_equals_the_oracle``
    on fixed examples: each shard's split of the fleet's one keyed settle is
    what the oracle records over the roots whose first endpoint it owns."""
    body = restriction_tests.test_a_shards_slice_equals_the_oracle.hypothesis.inner_test
    for case in ("Q1", "rulebook8"):
        body(seed=5, shards=3, case=case, prefilter=True, sinks=True)


def shard_counters_gate():
    """Each shard's counters and tallies are the launch over its own roots'
    (``tests/test_multigpu.py::TestShardCounters``)."""
    multigpu_tests.TestShardCounters().test_each_shard_counts_what_its_roots_read()


def shard_fault_gate():
    """``check_fault_settles`` with a raise on the second shard's reads
    inside the fleet's one settle: the next batch is a fresh fleet's."""
    check_fault_settles(SHARD_FAULT, "devices=2", "on")


def fleet_pack_gate():
    """The fleet's one pack and union probe against its devices packing
    alone, CA on two devices under a budget that binds
    (``tests/test_multigpu.py::TestPerShardPackOracle``)."""
    multigpu_tests.check_against_per_shard_packs("ca", 2, multigpu_tests.TIGHT_BUDGET)


def walk_budget_gate():
    """Eq. 5's closed form at one hand-computed point
    (``tests/test_frequency.py``)."""
    frequency_tests.TestRequiredWalks().test_exact_value()


def adaptive_gate():
    """An adaptive engine re-samples a batch whose walks fall short of
    Eq. 5, every round reading the one expansion
    (``tests/test_estimator_walk.py``)."""
    with pytest.MonkeyPatch.context() as patch:
        walk_tests.TestWalkReadsTheExpansion().test_adaptive_rounds_read_one_expansion(patch)


def walk_counters_gate():
    """``TestWalkReadsTheExpansion::test_reading_equals_launching`` on fixed
    examples: a query's walk (default ``survival``) has the launching walk's
    frequencies, FE counters and histograms and generator state."""
    tests = walk_tests.TestWalkReadsTheExpansion()
    for seed in (3, 17):
        type(tests).test_reading_equals_launching.hypothesis.inner_test(
            tests, seed=seed, query="Q1", survival=1.0, mode="coalesce")


def walk_parity_gate():
    """``TestWalkReadsTheExpansion::test_a_rulebook_reading_equals_launching``
    on fixed examples: a rulebook's walk, fan-out and thinning included, is
    the launching walk's."""
    tests = walk_tests.TestWalkReadsTheExpansion()
    for seed in (3, 17):
        type(tests).test_a_rulebook_reading_equals_launching.hypothesis.inner_test(
            tests, seed=seed, rules=8, survival=1.0)


def fused_oracle_gate():
    """The fused kernel on a launch whose rows read both versions equals the
    recursive oracle, which decodes every list from the slab itself
    (``tests/test_fused_frontier.py``)."""
    fused_tests.TestFusedPathsMatchTheOracle().test_ragged_constraint_counts_at_one_level()


def ignore_the_overlay(patch):
    """Union counts read the post-batch state only: a deleted edge's roots
    lose the neighbours the batch removed."""

    def union(self, verts, col, have):
        return self.deg_total[verts], self.deg_label[verts, col] * have

    patch.setattr(prefilter.InvariantIndex, "_union", union)


def drop_a_required_label(patch):
    """The stacked table loses its last required label column."""
    build = prefilter.RequirementTable.__init__

    def init(self, plans_by_query, trie=None):
        build(self, plans_by_query, trie)
        self.labels, self.need = self.labels[:-1], self.need[:, :-1]

    patch.setattr(prefilter.RequirementTable, "__init__", init)


def strict_degree_bound(patch):
    """``>=`` becomes ``>`` on the degree bound."""

    def dominance(total, counts, deg, need):
        return (total > deg[:, None]) & np.logical_and.reduce(counts >= need[:, :, None], axis=1)

    patch.setattr(prefilter, "dominance", dominance)


def first_member_only(patch):
    """A root group's mask is its first member's, not the OR of all."""
    patch.setattr(prefilter, "or_by_group", lambda keep, rows, starts: keep[rows[starts]])


def skip_the_delete_scatter(patch):
    """``apply_batch`` leaves the counts of deleted edges in place."""
    scatter = prefilter.InvariantIndex._scatter

    def skipping(self, edges, sign):
        if sign < 0:
            return self.graph.labels[edges.T]
        return scatter(self, edges, sign)

    patch.setattr(prefilter.InvariantIndex, "_scatter", skipping)


def reorganize_keeps_the_marks(patch):
    """``reorganize`` skips the drop: marked entries stay in the settled run."""
    patch.setattr(DynamicGraph, "reorganize", mutated(
        DynamicGraph.reorganize, "block = block[block >= 0]", "lengths = total"))


def reorganize_skips_the_sort(patch):
    """``reorganize`` writes the base run and ``ΔN`` back as they lie."""
    patch.setattr(DynamicGraph, "reorganize", mutated(
        DynamicGraph.reorganize,
        "self._pool[slots] = _sort_runs(block, lengths, self.num_vertices)",
        "self._pool[slots] = block",
    ))


def apply_skips_the_delete_search(patch):
    """``apply_batch`` places a delete's mark as it places an insert, after
    the base run at its rank, not at the slot the search found."""
    patch.setattr(DynamicGraph, "apply_batch", mutated(
        DynamicGraph.apply_batch,
        "slot = np.where(insert, self._base_len[src] + rank, slot)",
        "slot = self._base_len[src] + rank",
    ))


def coalesce_keeps_the_first(patch):
    """``coalesce`` keeps the first update of an edge, as ``ignore`` does,
    not the last."""
    patch.setattr(DynamicGraph, "apply_batch", mutated(
        DynamicGraph.apply_batch, 'if mode == "ignore":', 'if mode != "strict":'))


def delete_slot_from_the_lo_row(patch):
    """The probe searches each edge on its ``(lo, hi)`` row only: presence
    is right, but a delete marks the ``hi`` list at ``lo``'s slot."""
    patch.setattr(DynamicGraph, "apply_batch", mutated(
        DynamicGraph.apply_batch,
        "self._pool, self._offset[src[known]], self._base_len[src[known]], dst[known],",
        "self._pool, self._offset[np.minimum(src, dst)[known]],"
        " self._base_len[np.minimum(src, dst)[known]], np.maximum(src, dst)[known],",
    ))


def move_carries_nothing(patch):
    """A list that outgrows its window moves without its base run: the
    new window's first ``keep`` entries are left as the pool held them."""
    patch.setattr(DynamicGraph, "_move", mutated(
        DynamicGraph._move, "offset = self._offset[vertices]",
        "offset, keep = self._offset[vertices], 0 * keep"))


def read_hands_out_the_slab(patch):
    """``read`` hands out the slab's 4-byte block as gathered, unwidened."""
    patch.setattr(DynamicGraph, "read", mutated(
        DynamicGraph.read, ".astype(VERTEX_DTYPE)", ""))


def without_keeps_duplicate_removals(patch):
    """``without_edges`` probes every removal as listed: an edge named twice
    is cleared once but subtracted twice from its rows' counts."""
    patch.setattr(StaticGraph, "without_edges", mutated(
        StaticGraph.without_edges,
        "sorted_unique(edge_keys(edge_arr[:, 0], edge_arr[:, 1], n))",
        "edge_keys(edge_arr[:, 0], edge_arr[:, 1], n)",
    ))


def without_admits_vertex_n(patch):
    """The range check lets an endpoint equal to ``n`` through, whose key
    aliases an edge of the next row."""
    patch.setattr(StaticGraph, "without_edges", mutated(
        StaticGraph.without_edges, "(edge_arr.max(axis=1) < n)", "(edge_arr.max(axis=1) <= n)"))


def settle_skips_the_rebuild(patch):
    """A failed batch is settled without rebuilding the pre-filter index."""
    patch.setattr(GCSMEngine, "process_batch", mutated(
        GCSMEngine.process_batch, "self.prefilter_index.rebuild()", "None"))


def settle_rebuilds_an_open_store_only(patch):
    """The index is rebuilt only if the failure found the store open: a raise
    after the store settled leaves the delete overlay in place."""
    patch.setattr(GCSMEngine, "process_batch", mutated(
        GCSMEngine.process_batch,
        "self.graph.reorganize()\n"
        "        if self.prefilter_index is not None:\n"
        "            self.prefilter_index.rebuild()",
        "self.graph.reorganize()\n"
        "            if self.prefilter_index is not None:\n"
        "                self.prefilter_index.rebuild()",
    ))


def skipped_batch_prepares(patch):
    """A certified-skip batch still runs expand, prepare and match."""
    patch.setattr(GCSMEngine, "process_batch", mutated(
        GCSMEngine.process_batch, "if decision is None or not decision.skip_batch:", "if True:"))


def rebuild_drops_the_last_block(patch):
    """The index build stops one block short of the store's last list."""
    patch.setattr(prefilter.InvariantIndex, "rebuild", mutated(
        prefilter.InvariantIndex.rebuild, "g.read_blocks(False)",
        "list(g.read_blocks(False))[:-1]"))


def settle_key_by_depth(patch):
    """``expand`` keys each access by its node's BFS number (depth, then
    line) instead of its trie pre-order, so a depth settles before the next."""
    bfs = mutated(matching.expand, "logs.append((level.order[line[log.row]],",
                  "logs.append((sum(len(lv.nodes) for lv in trie.levels[:depth]) + line[log.row],")
    for module in (matching, engine, multiquery):  # the two importers hold their own name
        patch.setattr(module, "expand", bfs)


def zero_copy_rounds_down(patch):
    """A zero-copy read of a partial line moves none of it."""
    patch.setattr(DeviceConfig, "zero_copy_lines", mutated(
        DeviceConfig.zero_copy_lines, "-(-nbytes // self.zero_copy_line_bytes)",
        "nbytes // self.zero_copy_line_bytes"))


def walk_budget_drops_n_minus_1(patch):
    """Eq. 5 loses its ``(n - 1)`` factor: every budget shrinks by it."""
    budget = mutated(frequency.required_walks, "(n - 1) * (2 + alpha)", "(2 + alpha)")
    for module in (frequency, frequency_tests):  # the test module holds its own name
        patch.setattr(module, "required_walks", budget)


def adaptive_stops_after_one_round(patch):
    """``estimate_adaptive`` never re-samples: the first pass is returned."""
    patch.setattr(frequency.FrequencyEstimator, "estimate_adaptive", mutated(
        frequency.FrequencyEstimator.estimate_adaptive,
        "for _ in range(max_rounds - 1):", "for _ in range(0):"))


def roots_routed_by_second_endpoint(patch):
    """A fleet keys each root by the owner of its second endpoint."""
    patch.setattr(ShardedDeviceView, "readers", mutated(
        ShardedDeviceView.readers, "roots[:, 0]", "roots[:, 1]"))


def every_access_to_shard_zero(patch):
    """The fleet's view charges every access to shard 0's counters."""
    patch.setattr(ShardedDeviceView, "fetch_block", mutated(
        ShardedDeviceView.fetch_block, "tabulate(acc, reader,", "tabulate(acc, reader * 0,"))


def fleet_view_outlives_its_batch(patch):
    """The fleet builds its view once and keeps it: a batch's tallies pile
    onto the last one's, a failed batch's partial reads included."""
    view = FleetPlacement.view

    def kept(self, graph, counters, shipped):
        if not hasattr(self, "kept"):
            self.kept = view(self, graph, counters, shipped)
        return self.kept

    patch.setattr(FleetPlacement, "view", kept)


def probe_priced_by_the_union(patch):
    """A fleet's probe costs a search of the union cache, not of the
    owner's own directory."""
    patch.setattr(ShardedDeviceView, "classify", mutated(
        ShardedDeviceView.classify, "ops=self.probe_ops[owners],", ""))


def one_budget_for_the_fleet(patch):
    """The running packed size is not restarted per shard: the whole fleet
    shares one device's budget."""
    patch.setattr(FleetPlacement, "prepare", mutated(
        FleetPlacement.prepare, "spent[1:] - before <=", "spent[1:] <="))


def walk_charges_every_launch_row(patch):
    """The walk leaves the launch's access log unmasked: a row no walk
    reached charges 0 to the estimate but real FE bytes and ops."""
    patch.setattr(FrontierFrequencyEstimator, "_descend", mutated(
        FrontierFrequencyEstimator._descend, "read = walked[log.row]", "read = log.row >= 0"))


def walk_row_ignores_src(patch):
    """A launch row takes the columns of the candidate at its own index
    (wrapping past the last one), not of the candidate it extends."""
    patch.setattr(FrontierFrequencyEstimator, "_descend", mutated(
        FrontierFrequencyEstimator._descend, "src = launch.src",
        "src = None if launch.src is None else np.arange(launch.src.size) % mult.size"))


def operands_drop_the_version(patch):
    """A launch's read keys its asks by vertex alone: every list is read as
    ``N'``, a touched one asked as ``N`` included."""
    patch.setattr(DynamicGraph, "operands", mutated(
        DynamicGraph.operands, "asked = 2 * vertices + (", "asked = 2 * vertices + 0 * ("))


def keep_masks_scattered_edge_major(patch):
    """The root pass scatters the groups' keep-masks into the mask's label
    bits edge by edge (column-major), not group by group."""
    patch.setattr(matching, "trie_roots", mutated(
        matching.trie_roots, "keep[ran] = np.concatenate", "keep.T[ran.T] = np.concatenate"))


def predicate_of_the_neighbour(patch):
    """The root pass filters each live group by the root-predicate bounds of
    the group before it."""
    patch.setattr(matching, "trie_roots", mutated(
        matching.trie_roots, "lo, hi = table.bounds[live].T",
        "lo, hi = np.roll(table.bounds[live], 1, axis=0).T"))


#: mutant -> (the gate that kills it, what its failure says if it names it)
MUTANTS = {
    ignore_the_overlay: (query_gate, None),
    drop_a_required_label: (query_gate, None),
    strict_degree_bound: (query_gate, None),
    first_member_only: (rulebook_gate, None),
    skip_the_delete_scatter: (query_gate, "invariant index desync"),
    reorganize_keeps_the_marks: (settle_gate, None),
    reorganize_skips_the_sort: (settle_gate, None),
    apply_skips_the_delete_search: (settle_gate, None),
    coalesce_keeps_the_first: (dirty_gate, None),
    delete_slot_from_the_lo_row: (settle_gate, None),
    move_carries_nothing: (settle_gate, None),
    settle_skips_the_rebuild: (fault_gate, "delete overlay not cleared"),
    settle_rebuilds_an_open_store_only: (fault_gate, "delete overlay not cleared"),
    skipped_batch_prepares: (skip_gate, "reached a placement stage"),
    read_hands_out_the_slab: (check_handed_out_dtypes, "int32"),
    without_keeps_duplicate_removals: (without_gate, None),
    without_admits_vertex_n: (without_gate, None),
    rebuild_drops_the_last_block: (check_index_builds, "index build differs"),
    settle_key_by_depth: (settle_order_gate, None),
    zero_copy_rounds_down: (zero_copy_gate, None),
    walk_budget_drops_n_minus_1: (walk_budget_gate, None),
    adaptive_stops_after_one_round: (adaptive_gate, "assert 1 > 1"),
    roots_routed_by_second_endpoint: (shard_slice_gate, None),
    every_access_to_shard_zero: (shard_counters_gate, None),
    fleet_view_outlives_its_batch: (shard_fault_gate, "load_balance"),
    probe_priced_by_the_union: (fleet_pack_gate, "ops"),
    one_budget_for_the_fleet: (fleet_pack_gate, None),
    walk_charges_every_launch_row: (walk_counters_gate, "'bytes'"),
    walk_row_ignores_src: (walk_parity_gate, None),
    operands_drop_the_version: (fused_oracle_gate, None),
    keep_masks_scattered_edge_major: (routing_gate, None),
    predicate_of_the_neighbour: (routing_gate, None),
}


@pytest.mark.parametrize(
    "gate", [query_gate, rulebook_gate, settle_gate, dirty_gate, fault_gate, skip_gate,
             check_handed_out_dtypes, without_gate, check_index_builds, settle_order_gate,
             zero_copy_gate, walk_budget_gate, adaptive_gate, shard_slice_gate,
             shard_counters_gate, shard_fault_gate, fleet_pack_gate, walk_counters_gate,
             walk_parity_gate, fused_oracle_gate, routing_gate],
    ids=lambda g: g.__name__,
)
def test_the_gates_pass_unmutated(gate):
    gate()


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda m: m.__name__)
def test_the_named_gate_kills_the_mutant(mutant, monkeypatch):
    gate, says = MUTANTS[mutant]
    mutant(monkeypatch)
    with pytest.raises(AssertionError, match=says):
        gate()


@pytest.mark.parametrize("gate", [shard_slice_gate, shard_counters_gate],
                         ids=lambda g: g.__name__)
@pytest.mark.parametrize("mutant", [roots_routed_by_second_endpoint, every_access_to_shard_zero],
                         ids=lambda m: m.__name__)
def test_both_fleet_gates_kill_both_fleet_mutants(mutant, gate, monkeypatch):
    """The restriction oracle and the per-shard counters test each see a
    misrouted root and a misattributed access on their own."""
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        gate()
