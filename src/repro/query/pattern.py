"""Query pattern graphs.

A :class:`QueryGraph` is a small connected undirected labeled graph
``Q = (V, E, L)`` (paper Sec. II-A).  Vertex labels constrain which data
vertices a query vertex may map to; the sentinel :data:`WILDCARD_LABEL`
(``-1``) matches any data label, which is how the unlabeled *motifs* of the
Fig. 11 road-network experiments are expressed.

Query edges carry a stable global index ``0..m-1`` (their position in
:attr:`QueryGraph.edges`).  That ordering is load-bearing: the incremental
view maintenance decomposition (paper Eq. 1) assigns each query edge ``e_j``
the *old* relation in ΔM_i when ``j < i`` and the *updated* relation when
``j > i``, so every component that touches ΔM plans must agree on edge
indices.  The plan compiler (:mod:`repro.query.plan`) consumes them directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.utils import require

__all__ = ["QueryGraph", "WILDCARD_LABEL"]

#: Label value matching any data-vertex label.
WILDCARD_LABEL = -1


class QueryGraph:
    """Connected undirected labeled pattern with indexed edges.

    Parameters
    ----------
    num_vertices:
        Pattern size ``n`` (the paper evaluates ``n`` in 3..7).
    edges:
        Iterable of ``(u, v)`` pairs; stored canonically as ``u < v`` in
        first-given order, which fixes the global edge indices.
    labels:
        Per-vertex labels; ``None`` means all-wildcard (an unlabeled motif).
    name:
        Optional display name (``"Q1"``, ``"triangle"``, ...).
    edge_predicates:
        Optional mapping ``(u, v) -> (lo, hi)`` constraining the data-edge
        weight (:mod:`repro.graphs.attributes`) an edge may bind to, as a
        closed interval.  Edges without a predicate are unconstrained.
    """

    __slots__ = ("num_vertices", "edges", "labels", "name", "_adj", "_edge_index",
                 "edge_predicates", "_pred_by_index")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[int] | None = None,
        name: str = "query",
        edge_predicates: "dict[tuple[int, int], tuple[float, float]] | None" = None,
    ) -> None:
        require(num_vertices >= 2, "pattern needs at least 2 vertices")
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            require(0 <= u < num_vertices and 0 <= v < num_vertices, "edge out of range")
            require(u != v, "self loop in pattern")
            e = (u, v) if u < v else (v, u)
            require(e not in seen, f"duplicate pattern edge {e}")
            seen.add(e)
            canon.append(e)
        self.num_vertices = int(num_vertices)
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)
        if labels is None:
            labels = [WILDCARD_LABEL] * num_vertices
        require(len(labels) == num_vertices, "labels length mismatch")
        self.labels: tuple[int, ...] = tuple(int(l) for l in labels)
        self.name = name
        self._adj: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in self.edges:
            self._adj[u].add(v)
            self._adj[v].add(u)
        self._edge_index = {e: i for i, e in enumerate(self.edges)}
        require(self._is_connected(), "pattern must be connected")
        preds: dict[int, tuple[float, float]] = {}
        for (u, v), bounds in (edge_predicates or {}).items():
            lo_w, hi_w = float(bounds[0]), float(bounds[1])
            require(lo_w <= hi_w, f"empty predicate interval on edge ({u}, {v})")
            preds[self.edge_index(u, v)] = (lo_w, hi_w)
        #: sorted ``(edge_index, (lo, hi))`` pairs — hashable identity
        self.edge_predicates: tuple[tuple[int, tuple[float, float]], ...] = tuple(
            sorted(preds.items())
        )
        self._pred_by_index = preds

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int) -> set[int]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def label(self, u: int) -> int:
        return self.labels[u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edge_index(self, u: int, v: int) -> int:
        """Global index of undirected edge ``(u, v)`` (paper's relation index)."""
        e = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[e]
        except KeyError:
            raise KeyError(f"pattern has no edge {e}") from None

    def diameter(self) -> int:
        """Graph diameter ``k`` — the hop radius VSGM copies (paper Sec. I):
        the largest eccentricity, one level-synchronous BFS per vertex."""
        longest = 0
        for source in range(self.num_vertices):
            seen, frontier, depth = {source}, {source}, 0
            while frontier := {v for u in frontier for v in self._adj[u]} - seen:
                seen |= frontier
                depth += 1
            longest = max(longest, depth)
        return longest

    def is_labeled(self) -> bool:
        return any(l != WILDCARD_LABEL for l in self.labels)

    def has_predicates(self) -> bool:
        """True if any query edge carries a weight predicate."""
        return bool(self.edge_predicates)

    def predicate_for_index(self, j: int) -> tuple[float, float] | None:
        """Weight interval of the query edge with global index ``j``."""
        return self._pred_by_index.get(j)

    def with_edge_predicates(
        self,
        edge_predicates: "dict[tuple[int, int], tuple[float, float]] | None",
        name: str | None = None,
    ) -> "QueryGraph":
        """Copy with the given edge-weight predicates (replacing any)."""
        return QueryGraph(self.num_vertices, self.edges, self.labels,
                          name or self.name, edge_predicates=edge_predicates)

    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :mod:`networkx` graph with a ``label`` node attribute
        (an interop helper: networkx is imported here, not with the package)."""
        import networkx as nx

        g = nx.Graph()
        for u in range(self.num_vertices):
            g.add_node(u, label=self.labels[u])
        g.add_edges_from(self.edges)
        return g

    @classmethod
    def from_networkx(cls, g, name: str = "query") -> "QueryGraph":
        """Build from a networkx graph (nodes relabeled to 0..n-1; a ``label``
        node attribute is honored, otherwise wildcard).  ``g`` is read through
        ``nodes()``, ``edges()`` and ``nodes[v]`` only, so no import is needed."""
        nodes = sorted(g.nodes())
        remap = {v: i for i, v in enumerate(nodes)}
        edges = [(remap[u], remap[v]) for u, v in g.edges()]
        labels = [int(g.nodes[v].get("label", WILDCARD_LABEL)) for v in nodes]
        return cls(len(nodes), edges, labels, name)

    # ------------------------------------------------------------------
    def _is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.edges == other.edges
            and self.labels == other.labels
            and self.edge_predicates == other.edge_predicates
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edges, self.labels, self.edge_predicates))

    def __repr__(self) -> str:
        lab = "labeled" if self.is_labeled() else "wildcard"
        pred = ", predicated" if self.has_predicates() else ""
        return (f"QueryGraph({self.name}, n={self.num_vertices}, "
                f"m={self.num_edges}, {lab}{pred})")
