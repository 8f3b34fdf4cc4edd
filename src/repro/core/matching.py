"""Incremental WCOJ matching executor (the paper's GPU kernel, Sec. V-C).

This is the reproduction's analog of the STMatch-derived CUDA kernel: it
executes the nested-loop plans of :mod:`repro.query.plan` depth-first,
binding one query vertex per level by intersecting the (versioned) neighbor
lists of its bound query neighbors.  Faithful behaviours carried over from
the paper's kernel:

* **Split intersections.**  ``N'`` is handled as ``N ∪ ΔN``: the store
  keeps the base and delta runs separately and merges a touched list's
  two runs as a launch reads it (both are sorted, so the merge is linear) —
  deleted neighbors are dropped from the base run, the analog of "skip the
  negative indices".
* **Every access counts.**  Each neighbor-list read is recorded by the
  :class:`~repro.gpu.views.GraphView` — channel traffic and the per-vertex
  access histogram.  Re-reads of the same list are recorded again (the real
  kernel streams lists from memory on every use); only the merged *bytes*
  are shared, one copy per launch (``DynamicGraph.operands``).
* **Work accounting.**  Merge-intersections charge ``len(a) + len(b)``
  compute ops (the cost model of merge-based SIMD intersection), candidate
  filtering and output emission charge per element.

The executor is shared verbatim by GCSM and every baseline — exactly the
paper's "all the GPU versions use the same GPU kernel" setup — with only the
view deciding where reads are served from.

There is one driver, :func:`match_trie`: it advances a trie of plans
(:mod:`repro.core.querytrie`) level-synchronously on the row program of
:mod:`repro.core.frontier` — one launch per trie depth for all the depth's
nodes, all accesses settled once in trie pre-order.  :func:`match_batch` is
that driver over the trie of a query's ΔM plans that shares nothing,
:func:`match_static` its one-chain case, and a rulebook hands it the
prefix-merged trie of all its patterns.  The per-root depth-first executor
it replaced lives on as a parity oracle in :mod:`repro.testing.kernels`,
routing its roots plan by plan through the per-group pipeline of
:mod:`repro.testing.oracles`; the driver routes every root group's roots in
one pass (:func:`trie_roots`), and the two are checked equal.

The driver is two halves, :func:`settle` ∘ :func:`expand`, and
:func:`expand` keeps every depth's launch as a :class:`Launch`: each row's
line and the candidate one depth up it extends (``src``), and the kernel's
candidate → row map, counts, access log and compute.  The frequency walk
reads those columns through a mask of the rows it walked
(:mod:`repro.core.frequency_frontier`); it builds no frontier and launches
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.core.frontier import AccessLog, expand_rows
from repro.core.querytrie import ExecutionTrie, solo_trie
from repro.graphs.attributes import edge_weights
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters, Accesses
from repro.gpu.views import GraphView
from repro.query.plan import MatchPlan
from repro.utils import contains_sorted

__all__ = [
    "MatchStats",
    "Expansion",
    "Attribution",
    "expand",
    "settle",
    "match_trie",
    "match_batch",
    "match_static",
]

EmbeddingSink = Callable[[tuple[int, ...], int], None]


@dataclass
class MatchStats:
    """Outcome of executing one or more plans.

    ``signed_count`` is the IVM result: insertions contribute ``+1`` per
    embedding, deletions ``-1``; summed over all ΔM_i plans it equals
    ``count(G_{k+1}) − count(G_k)``.  ``embeddings_found`` counts emitted
    embeddings regardless of sign.

    ``roots_skipped`` counts directed roots removed by a certified
    aggregate-invariant pre-filter (``repro.core.prefilter``) before the
    executor ran; always 0 with ``prefilter="off"``, and by construction
    ``roots_processed(on) + roots_skipped(on) == roots_processed(off)``.
    """

    signed_count: int = 0
    embeddings_found: int = 0
    roots_processed: int = 0
    tree_nodes: int = 0
    roots_skipped: int = 0

    def merge(self, other: "MatchStats") -> None:
        self.signed_count += other.signed_count
        self.embeddings_found += other.embeddings_found
        self.roots_processed += other.roots_processed
        self.tree_nodes += other.tree_nodes
        self.roots_skipped += other.roots_skipped


# ----------------------------------------------------------------------
# the one driver: roots, expand, then settle
# ----------------------------------------------------------------------
def trie_roots(
    trie: ExecutionTrie, batch: UpdateBatch | None, graph, live: np.ndarray, *,
    prefilter: list[np.ndarray] | None = None, filters: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``live`` root groups' roots in one pass over the batch's directed
    updates (``batch=None``: the settled snapshot's edges, both orientations,
    sign +1): ``(roots, signs, processed, dropped, skipped)``.

    One ``(groups, 2b)`` mask, row per live group (the trie's static
    :class:`~repro.core.querytrie.RootTable`), keeps a directed update that
    carries the group's root labels, passes the candidate ``filters`` of the
    group's two root query vertices (RapidFlow's), is kept by the group's
    certified-skip mask and meets its root predicate; the roots are its
    ``nonzero``, group-major.  ``prefilter[group]`` is a group's keep-mask
    over its label-matched updates (the OR of its live members' masks,
    :meth:`~repro.core.prefilter.InvariantIndex.decide`), scattered into
    the mask's label bits group-major; the roots it certified away among
    those the filters pass (before the predicate) come back as ``dropped``,
    group-major too, and per root group the counts of both.  Root generation
    is modeled as free stream-side work: nothing here is charged."""
    table = trie.root_table
    processed, skipped = np.zeros((2, table.pair.shape[0]), dtype=np.int64)
    if batch is None:
        edges = graph.edges_new_array()
        edges = np.concatenate([edges, edges[:, ::-1]])
        signs = np.ones(edges.shape[0], dtype=np.int64)
    else:
        edges, signs = batch.directed_updates()
    head, tail = edges.T
    head_label, tail_label = graph.labels[edges].T  # one gather for both endpoints
    first, second = table.pair[live].T[:, :, None]
    ran = ((head_label == first) | (first < 0)) & ((tail_label == second) | (second < 0))
    keep = None
    if prefilter is not None and live.size:
        keep = np.zeros_like(ran)
        keep[ran] = np.concatenate([prefilter[group] for group in live.tolist()])
    if filters:  # a candidate index per query vertex: each root endpoint must be in its own
        for col, ends in enumerate((head, tail)):
            for u, allowed in filters.items():
                at = table.query_vertex[live, col] == u
                ran[at] &= contains_sorted(allowed, ends)
    dropped = edges[:0]
    if keep is not None:
        gone = ran & ~keep
        skipped[live] = np.add.reduce(gone, axis=1)
        dropped = edges[gone.nonzero()[1]]
        ran &= keep
    if table.predicated:  # one weight per directed update; a group without a predicate passes all
        lo, hi = table.bounds[live].T[:, :, None]
        weight = edge_weights(head, tail)
        ran &= (weight >= lo) & (weight <= hi)
    processed[live] = np.add.reduce(ran, axis=1)
    at = ran.nonzero()[1]
    return edges[at], signs[at], processed, dropped, skipped


class Launch(NamedTuple):
    """One depth's launch as :func:`expand` keeps it: each row's node ``line``
    and ``src``, the candidate one depth up it extends (``None``: the
    identity, line for line), and what the kernel returned of it — each
    candidate's row, the candidates per row, the access log and the compute
    per row."""

    src: np.ndarray | None
    line: np.ndarray
    cand_row: np.ndarray
    cand_cnt: np.ndarray
    log: AccessLog
    compute: np.ndarray


@dataclass
class Expansion:
    """:func:`expand`'s run, nothing charged, for :func:`settle` and the walk:
    ``roots`` / ``signs`` is the root table the kernel ran, group-major;
    ``dropped`` the roots certified away, ``skipped`` their count per root
    group; ``tiers[d]`` is depth ``d`` as counted — per row its ``(line,
    cand_cnt, origin, compute)`` (``origin``: its root's row; ``compute``:
    ``None`` at the roots) and the candidates per line, ``total`` — and
    ``launches[d - 1]`` / ``logs[d - 1]`` its launch.  ``queries``,
    ``member`` and ``records`` are the trie's incidence it ran under
    (:meth:`~repro.core.querytrie.ExecutionTrie.incidence`)."""

    trie: ExecutionTrie
    queries: tuple
    member: np.ndarray
    records: tuple
    roots: np.ndarray
    signs: np.ndarray
    dropped: np.ndarray
    skipped: np.ndarray
    tiers: list[tuple]
    launches: list[Launch]
    logs: list  # (node, vertex, length) per launch
    emitted: dict  # PlanRef -> (embeddings, origins) of the sinks' plans


def expand(
    trie: ExecutionTrie,
    batch: UpdateBatch | None,
    graph,
    *,
    sinks: frozenset = frozenset(),
    skip: frozenset = frozenset(),
    prefilter: list[np.ndarray] | None = None,
    filters: dict[int, np.ndarray] | None = None,
) -> Expansion:
    """Advance a trie of plans level-synchronously over ``graph``, charging
    nothing: roots, launches, the ``sinks`` queries' rows, logs.

    The live root groups' roots are one pass (:func:`trie_roots`;
    ``prefilter``: one keep-mask per root group), then each depth is **one**
    :func:`~repro.core.frontier.expand_rows` launch over the rows of all its
    nodes.  A node's rows are handed to its live children by fan-out;
    queries in ``skip`` (certified ΔM = 0) are dropped from every member set,
    so a subtree left without members receives no rows.  Plans end at any
    depth: a node's rows are materialised only for a child or a sink.  The
    frontier stays node-major, i.e. in lexicographic ``(node, root,
    candidate…)`` order, and every row keeps its root's row in the root table
    (``origin``), so :func:`settle` can key the run by any column of the
    roots (a fleet's shard).

    Nothing here loops over nodes or their member lists: who is live and
    who hands rows to whom are the per-depth tables of
    :meth:`ExecutionTrie.incidence`.
    """
    queries, member, records = trie.incidence(skip, sinks)
    # a group whose every member is certified ΔM = 0 is not live: no roots either
    roots, signs, total, dropped, skipped = trie_roots(
        trie, batch, graph, records[0].live, prefilter=prefilter, filters=filters,
    )
    # the root edge as a launch that already ran: one candidate per row
    rows, cand_flat, cand_cnt = roots[:, :1], roots[:, 1], np.ones(roots.shape[0], np.int64)
    cand_row = origin = np.arange(roots.shape[0])
    line, compute = np.arange(total.size).repeat(total), None
    tiers, launches, logs, emitted = [], [], [], {}
    src = None  # per row: the candidate one depth up it extends
    for depth, (level, record) in enumerate(zip(trie.levels, records)):
        if depth:
            if record.fans:  # each live child takes its parent's rows
                pick, line = record.fan_out(held)
                rows, origin = rows[pick], origin[pick]
                src = pick if src is None else src[pick]
            if rows.shape[0] == 0:
                break
            cand_flat, cand_row, cand_cnt, log, compute = expand_rows(
                graph, level.table, rows, line, filters
            )
            launches.append(Launch(src, line, cand_row, cand_cnt, log, compute))
            logs.append((level.order[line[log.row]], log.vertex, log.length))
            total = np.bincount(line, weights=cand_cnt, minlength=len(level.nodes)).astype(np.int64)
        tiers.append((line, cand_cnt, origin, compute, total))
        need = record.wanted & (total > 0)
        if not need.any():
            break  # counted by settle, not materialised
        src = None
        if not need[total > 0].all():  # some node's rows are wanted by no one
            pick = need[line[cand_row]]
            src = pick.nonzero()[0]
            cand_flat, cand_row = cand_flat[pick], cand_row[pick]
        rows = np.concatenate([rows[cand_row], cand_flat[:, None]], axis=1)
        origin, line = origin[cand_row], line[cand_row]
        held = np.where(need, total, 0)  # rows per line, for the fan-out
        for ref, ln in record.sinks:
            lo, hi = line.searchsorted((ln, ln + 1))
            emitted[ref] = rows[lo:hi][:, ref.plan.inverse_order], origin[lo:hi]
    return Expansion(
        trie, queries, member, records, roots, signs, dropped, skipped, tiers, launches,
        logs, emitted,
    )


class Attribution(NamedTuple):
    """One settled block as :func:`settle` holds it, for a reader of per-query
    counters (:meth:`charge`): the incidence it ran under (``queries``,
    ``member``), each access's pre-order ``node``, its ``vertex`` and its
    classification ``acc`` (``None``: nothing was read), the nodes'
    order-free ``work``, and per query the embeddings ``found`` and their
    ``output_ops``."""

    trie: ExecutionTrie
    queries: tuple
    member: np.ndarray
    node: np.ndarray | None
    vertex: np.ndarray | None
    acc: Accesses | None
    work: np.ndarray
    found: np.ndarray
    output_ops: np.ndarray

    def charge(self, counters: dict[str | None, AccessCounters]) -> None:
        """Charge the block to ``counters[query]`` as each query's own
        execution records it: output charges to the terminal plan's query,
        every access and node's work once per member plan's query
        (:meth:`~repro.core.querytrie.ExecutionTrie.attribute`)."""
        for name, out, ops in zip(self.queries, self.found.tolist(), self.output_ops.tolist()):
            counters[name].record_output(out)
            counters[name].record_compute(ops)
        if self.acc is not None:
            self.trie.attribute(self.queries, self.member, self.node, self.vertex, self.acc,
                                self.work, counters)


def settle(
    expansion: Expansion, view: GraphView, *, sinks: dict | None = None,
) -> tuple[dict[str | None, MatchStats], Attribution]:
    """Price an :func:`expand` through ``view``: stats per member query, and
    the settled block as an :class:`Attribution` — nothing is charged per
    query until someone asks (:meth:`Attribution.charge`).

    A view with several readers says who reads each root (a fleet's view:
    the shard owning its first endpoint, ``readers(roots)``; one device
    reads them all), and the settle carries that reader as a key column:
    every count below is one ``bincount`` over ``reader · L + line``, every
    access is read by its row's root's reader, and the view is charged per
    reader (:meth:`~repro.gpu.views.GraphView.charge`).  Rows are
    independent in the join, so a reader's rows, log entries and sink rows
    are what a launch over its roots alone returns, in the same relative
    order.

    The statistics are products of each depth's per-line candidate totals
    with its incidence (integer sums, in any order).  All accesses are
    settled once, stably sorted by reader, then by node pre-order over each
    depth's ``(slot, constraint, row)`` log: ``(plan, level)`` order for a
    single query, the node-by-node walk's order for a rulebook — the
    sequence an order-sensitive view (the UM pager) must be handed.  The
    view classifies and records that one block once.  ``sinks`` are flushed
    reader by reader, in plan order — the depth-first emission order of
    running the plans one after another on each reader in turn.
    """
    e = expansion
    parts = view.num_readers
    part = view.readers(e.roots) if parts > 1 else None  # None: one reader reads all
    # per reader and query: signed ΔM, embeddings, roots, tree nodes, output ops
    tally = np.zeros((5, parts, len(e.queries)), dtype=np.int64)
    signed, found, roots, nodes, output_ops = tally
    work = np.zeros((parts, len(e.trie.nodes)), dtype=np.int64)  # order-free compute per node
    for depth, (level, record, tier) in enumerate(zip(e.trie.levels, e.records, e.tiers)):
        line, cand_cnt, origin, compute, total = tier
        cells = parts * total.size
        if part is None:
            cell, total = line, total[None]
        else:  # the totals again, per reader
            cell = part[origin] * total.size + line
            total = np.bincount(cell, weights=cand_cnt, minlength=cells).astype(np.int64)
            total = total.reshape(parts, -1)
        if compute is None:
            processed = total  # the roots: one row per root, counted per group
        else:
            work[:, level.order] = np.bincount(
                cell, weights=compute, minlength=cells).reshape(parts, -1)
        terminal = record.terminal.T
        ended = total @ terminal  # embeddings of the plans that end here
        nodes += total @ record.member.T
        found += ended
        signed += np.bincount(
            cell, weights=e.signs[origin] * cand_cnt, minlength=cells
        ).astype(np.int64).reshape(parts, -1) @ terminal
        output_ops += ended * (depth + 2)  # a plan ending at this depth binds depth + 2 vertices
    first = e.records[0].member  # root counts go to every member plan's query
    roots += processed @ first.T
    by_query, by_part = np.add.reduce(tally, axis=1), np.add.reduce(tally, axis=2)
    columns = np.concatenate([by_query[:4], (first @ e.skipped)[None]]).T
    # every charge that is a sum, once per reader: outputs go to the terminal plan's query
    view.charge(by_part[2], by_part[1], by_part[4] + np.add.reduce(work, axis=1))
    key = vertex = acc = None
    if e.logs:
        key, vertex, length = map(np.concatenate, zip(*e.logs))
        order = key
        if part is not None:  # each access read by its row's root's reader
            reader = np.concatenate([
                part[tier[2][launch.log.row]] for launch, tier in zip(e.launches, e.tiers[1:])
            ])
            order = reader * len(e.trie.nodes) + key
        by = order.argsort(kind="stable")
        key, vertex, length = key[by], vertex[by], length[by]
        if key.size:  # a batch may read nothing
            acc = view.fetch_block(vertex, length, None if part is None else reader[by])
    if e.emitted:  # reader by reader, each in plan order
        for p in range(parts):
            for ref in e.trie.refs:
                if ref in e.emitted:
                    embeddings, origin = e.emitted[ref]
                    if part is not None:
                        mine = part[origin] == p
                        embeddings, origin = embeddings[mine], origin[mine]
                    for emb, s in zip(embeddings.tolist(), e.signs[origin].tolist()):
                        sinks[ref.query_name](tuple(emb), s)
    stats = {name: MatchStats(*row) for name, row in zip(e.queries, columns.tolist())}
    return stats, Attribution(
        e.trie, e.queries, e.member, key, vertex, acc, np.add.reduce(work), by_query[1], by_query[4],
    )


def match_trie(
    trie: ExecutionTrie,
    batch: UpdateBatch | None,
    view: GraphView,
    *,
    sinks: dict | None = None,
    skip: frozenset = frozenset(),
    prefilter: list[np.ndarray] | None = None,
    filters: dict[int, np.ndarray] | None = None,
) -> dict[str | None, MatchStats]:
    """Advance a trie of plans level-synchronously over ``view``'s graph and
    price it through ``view``: :func:`settle` ∘ :func:`expand`, its stats."""
    expansion = expand(trie, batch, view.graph, sinks=frozenset(sinks or ()), skip=skip,
                       prefilter=prefilter, filters=filters)
    return settle(expansion, view, sinks=sinks)[0]


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def match_batch(
    plans: list[MatchPlan],
    batch: UpdateBatch,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
    filters: dict[int, np.ndarray] | None = None,
    prefilter=None,
) -> MatchStats:
    """Run all ΔM_i plans against a signed batch (paper Fig. 2b-f).

    The view's graph must hold the *open* batch (``apply_batch`` done,
    ``reorganize`` not yet), so OLD/NEW adjacency versions are available.
    Returns aggregated stats whose ``signed_count`` is the exact ΔM.  The
    plans (of any depths) run as the no-sharing trie of :func:`match_trie`.
    ``filters`` optionally restricts each query vertex to a sorted candidate
    array (RapidFlow's index pruning); root endpoints are filtered too.
    ``prefilter`` optionally supplies a certified-skip decision
    (:class:`~repro.core.prefilter.PrefilterDecision`): its per-plan
    ``masks`` are the keep-masks of the plans' root groups; dropped roots are
    counted in ``MatchStats.roots_skipped``.  It is applied *last* — after candidate
    filters — so the skip accounting composes with them, and exactness is
    certified (only provably-ΔM=0 roots are dropped).
    A query's weight predicates read each edge's hash weight
    (:func:`~repro.graphs.attributes.edge_weights`).
    """
    return match_trie(
        solo_trie(plans), batch, view,
        sinks=None if sink is None else {None: sink},
        prefilter=None if prefilter is None else prefilter.masks,
        filters=filters,
    )[None]


def match_static(
    plan: MatchPlan,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
) -> MatchStats:
    """Match the query on the current snapshot (paper Fig. 2a): the
    one-chain trie, rooted at every edge.

    Uses the post-batch adjacency (``CURRENT`` == ``NEW``), so on a settled
    graph it matches the settled snapshot.  The snapshot's edge relation is
    exported CSR-style from the dynamic store (vectorized v<w dedup), in the
    same source-major/ascending order as a per-vertex adjacency scan.
    """
    return match_trie(
        solo_trie((plan,)), None, view,
        sinks=None if sink is None else {None: sink},
    )[None]
