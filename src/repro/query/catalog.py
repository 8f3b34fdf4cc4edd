"""Query catalog: the six Fig. 7 evaluation queries plus motif sets.

The paper evaluates six query graphs of sizes 5–7 (Fig. 7) on the social
graphs, and *all* size-3/4/5 motifs on the road networks (Fig. 11, because
the specific Q1–Q6 patterns "rarely exist in the road nets").  Fig. 7 is an
image we cannot read, so Q1–Q6 here are representative CSM-benchmark
patterns spanning the same size range with increasing density — from sparse
(tree-plus-triangle) to chorded cycles — with vertex labels drawn from the
frequent end of the generators' label alphabet so the patterns occur in the
data-graph analogs.  The motif sets are exact: every connected unlabeled
graph of the given size, enumerated from the networkx graph atlas.
"""

from __future__ import annotations

from functools import lru_cache

from repro.query.pattern import QueryGraph
from repro.utils import require

__all__ = [
    "QUERIES",
    "QUERY_ORDER",
    "query_by_name",
    "motifs",
    "load_rulebook",
]


def _q1() -> QueryGraph:
    """Size 5, 6 edges: 'house' — a 4-cycle with a triangle roof."""
    return QueryGraph(
        5,
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)],
        labels=[0, 1, 0, 1, 2],
        name="Q1",
    )


def _q2() -> QueryGraph:
    """Size 5, 6 edges: 5-cycle with one chord."""
    return QueryGraph(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)],
        labels=[0, 0, 1, 0, 2],
        name="Q2",
    )


def _q3() -> QueryGraph:
    """Size 6, 7 edges: two triangles joined by a bridge edge."""
    return QueryGraph(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
        labels=[0, 1, 2, 0, 1, 2],
        name="Q3",
    )


def _q4() -> QueryGraph:
    """Size 6, 8 edges: 6-cycle with two long chords."""
    return QueryGraph(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4)],
        labels=[0, 1, 0, 1, 0, 1],
        name="Q4",
    )


def _q5() -> QueryGraph:
    """Size 7, 9 edges: three triangles chained through shared vertices."""
    return QueryGraph(
        7,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (4, 6), (5, 6)],
        labels=[0, 1, 1, 0, 2, 0, 1],
        name="Q5",
    )


def _q6() -> QueryGraph:
    """Size 7, 9 edges: square with an apex plus a triangle tail."""
    return QueryGraph(
        7,
        [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (4, 5), (5, 6), (4, 6)],
        labels=[0, 1, 0, 1, 2, 0, 1],
        name="Q6",
    )


QUERY_ORDER = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]

QUERIES: dict[str, QueryGraph] = {
    "Q1": _q1(),
    "Q2": _q2(),
    "Q3": _q3(),
    "Q4": _q4(),
    "Q5": _q5(),
    "Q6": _q6(),
}


def query_by_name(name: str) -> QueryGraph:
    """Look up a catalog query (``Q1``..``Q6``) by name."""
    try:
        return QUERIES[name]
    except KeyError:
        raise KeyError(f"unknown query {name!r}; choose from {QUERY_ORDER}") from None


@lru_cache(maxsize=8)
def motifs(size: int) -> tuple[QueryGraph, ...]:
    """All connected unlabeled graphs with ``size`` vertices.

    Enumerated from the networkx graph atlas (exact: 2 motifs of size 3,
    6 of size 4, 21 of size 5).  Returned patterns carry wildcard labels so
    they match any data-vertex labeling — the configuration of the paper's
    road-network motif-counting experiments.
    """
    import networkx as nx  # the atlas's one caller; the engine never loads it

    require(2 <= size <= 7, "motif size must be in 2..7")
    out: list[QueryGraph] = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != size:
            continue
        if g.number_of_edges() == 0 or not nx.is_connected(g):
            continue
        q = QueryGraph.from_networkx(g, name=f"motif{size}_{len(out)}")
        out.append(q)
    return tuple(out)


# ----------------------------------------------------------------------
# rulebooks: named query sets for multi-query (shared) execution
# ----------------------------------------------------------------------
def _resolve_entry(entry: str) -> list[QueryGraph]:
    """Resolve one rulebook entry to queries.

    ``Q1``..``Q6`` name catalog queries; ``motifs:K`` expands to every
    connected size-``K`` motif; ``motifs:A-B`` expands a size range.
    """
    entry = entry.strip()
    if entry in QUERIES:
        return [QUERIES[entry]]
    if entry.startswith("motifs:"):
        spec = entry.split(":", 1)[1]
        if "-" in spec:
            lo, hi = (int(x) for x in spec.split("-", 1))
        else:
            lo = hi = int(spec)
        return [q for size in range(lo, hi + 1) for q in motifs(size)]
    raise KeyError(
        f"unknown rulebook entry {entry!r}; expected a catalog name "
        f"({QUERY_ORDER}), 'motifs:K', or 'motifs:A-B'"
    )


def _query_from_dict(spec: dict, index: int) -> QueryGraph:
    require("edges" in spec, f"rulebook entry {index}: missing 'edges'")
    edges = [tuple(e) for e in spec["edges"]]
    num_vertices = spec.get(
        "num_vertices", max((max(e) for e in edges), default=-1) + 1
    )
    return QueryGraph(
        num_vertices,
        edges,
        spec.get("labels"),
        spec.get("name", f"rulebook{index}"),
    )


def load_rulebook(spec: str) -> list[QueryGraph]:
    """Load a named-query rulebook for multi-query execution.

    ``spec`` is either a file path or an inline comma-separated entry list.
    Files may be JSON — a list (or ``{"queries": [...]}``) whose items are
    entry strings or inline pattern objects
    (``{"name", "edges", "labels"?, "num_vertices"?}``) — or plain text
    with one entry per line (``#`` comments allowed).  Entry strings
    resolve through the catalog: ``Q1``..``Q6`` or ``motifs:K`` /
    ``motifs:A-B``.  Query names must be unique; the engine lexsorts them,
    so execution is independent of rulebook file order.
    """
    import json
    import os

    queries: list[QueryGraph] = []
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        stripped = text.lstrip()
        if spec.endswith(".json") or stripped[:1] in "[{":
            data = json.loads(text)
            if isinstance(data, dict):
                data = data.get("queries", [])
            for i, item in enumerate(data):
                if isinstance(item, str):
                    queries.extend(_resolve_entry(item))
                else:
                    queries.append(_query_from_dict(item, i))
        else:
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line:
                    queries.extend(_resolve_entry(line))
    else:
        for entry in spec.split(","):
            if entry.strip():
                queries.extend(_resolve_entry(entry))
    require(len(queries) >= 1, f"rulebook {spec!r} resolved to no queries")
    names = [q.name for q in queries]
    require(len(set(names)) == len(names),
            f"rulebook {spec!r} has duplicate query names")
    return queries
