"""Edge-list I/O.

Supports the plain whitespace edge-list format of SNAP datasets (one
``u v`` pair per line, ``#`` comments) plus an optional sidecar label file,
so a user with the real Table I graphs can drop them in directly.  A compact
``.npz`` round-trip format is provided for fast reloads of generated analogs.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.graphs.static_graph import StaticGraph
from repro.utils import VERTEX_DTYPE, require, sorted_unique

__all__ = ["load_edge_list", "save_edge_list", "save_npz", "load_npz"]


def load_edge_list(
    path: str | os.PathLike[str],
    *,
    labels_path: str | os.PathLike[str] | None = None,
    comments: str = "#",
) -> StaticGraph:
    """Load a SNAP-style whitespace edge list as an undirected labeled graph.

    Vertex ids are compacted to ``0..n-1`` preserving order of first
    appearance in sorted id order.  ``labels_path`` (optional) holds one
    integer label per line indexed by *original* vertex id.
    """
    raw = np.loadtxt(path, comments=comments, dtype=np.int64, ndmin=2)
    require(raw.ndim == 2 and raw.shape[1] >= 2, "edge list must have two columns")
    edges = raw[:, :2]
    ids = sorted_unique(edges)
    remap = {int(orig): new for new, orig in enumerate(ids.tolist())}
    compact = np.empty_like(edges)
    lookup = np.searchsorted(ids, edges)
    compact = lookup.astype(VERTEX_DTYPE)
    labels = None
    if labels_path is not None:
        raw_labels = np.loadtxt(labels_path, dtype=np.int64, ndmin=1)
        labels = np.zeros(ids.size, dtype=np.int64)
        for orig, new in remap.items():
            if orig < raw_labels.size:
                labels[new] = raw_labels[orig]
    return StaticGraph.from_edges(int(ids.size), compact, labels)


def save_edge_list(graph: StaticGraph, path: str | os.PathLike[str]) -> None:
    """Write the canonical (u < v) edge list in SNAP format."""
    edges = graph.edge_array()
    header = f"Undirected graph: n={graph.num_vertices} m={graph.num_edges}"
    np.savetxt(path, edges, fmt="%d", header=header)


def save_npz(graph: StaticGraph, path: str | os.PathLike[str]) -> None:
    """Save CSR arrays + labels to a compressed ``.npz``."""
    np.savez_compressed(
        Path(path),
        indptr=graph.indptr,
        indices=graph.indices,
        labels=graph.labels,
    )


def load_npz(path: str | os.PathLike[str]) -> StaticGraph:
    """Load a graph previously saved with :func:`save_npz`."""
    with np.load(Path(path)) as data:
        return StaticGraph(data["indptr"], data["indices"], data["labels"])
