"""Graph substrate: static CSR graphs, the dynamic CPU-side store, generators,
and dynamic-stream derivation (paper Sec. V-A and Sec. VI-A)."""

from repro.graphs.static_graph import StaticGraph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.stream import (
    CONFLICT_MODES,
    DEFAULT_CONFLICT_MODE,
    BatchConflictError,
    CanonicalReport,
    UpdateBatch,
    churn_stream,
    derive_stream,
)
from repro.graphs.attributes import edge_weights
from repro.graphs.window import apply_window
from repro.graphs import generators, datasets

__all__ = [
    "StaticGraph",
    "DynamicGraph",
    "UpdateBatch",
    "CanonicalReport",
    "BatchConflictError",
    "CONFLICT_MODES",
    "DEFAULT_CONFLICT_MODE",
    "derive_stream",
    "churn_stream",
    "edge_weights",
    "apply_window",
    "generators",
    "datasets",
]
