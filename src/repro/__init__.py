"""GCSM reproduction: GPU-accelerated continuous subgraph matching.

Reproduces "GCSM: GPU-Accelerated Continuous Subgraph Matching for Large
Graphs" (Wei & Jiang, IPDPS 2024) as a pure-Python library over a simulated
CPU-GPU memory hierarchy.  See README.md for a tour, DESIGN.md for the
system inventory, EXPERIMENTS.md for paper-vs-measured results.

Top-level convenience re-exports cover the primary user workflow::

    from repro import GCSMEngine, QueryGraph, derive_stream, powerlaw_graph

    graph = powerlaw_graph(5_000, 10.0, num_labels=4, seed=7)
    q = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, 1])
    g0, batches = derive_stream(graph, update_fraction=0.1, batch_size=128, seed=7)
    engine = GCSMEngine(g0, q, seed=7)
    results = engine.process_stream(batches)
"""

from repro.core.engine import BatchResult, EngineConfig, GCSMEngine
from repro.core.multiquery import MultiQueryEngine, Rulebook
from repro.graphs.generators import erdos_renyi, powerlaw_graph, road_network
from repro.graphs.static_graph import StaticGraph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.stream import UpdateBatch, derive_stream
from repro.gpu.device import DeviceConfig, default_device
from repro.query.pattern import QueryGraph, WILDCARD_LABEL
from repro.query.catalog import QUERIES, QUERY_ORDER, motifs, query_by_name

__version__ = "0.1.0"

__all__ = [
    "GCSMEngine",
    "EngineConfig",
    "BatchResult",
    "MultiQueryEngine",
    "Rulebook",
    "StaticGraph",
    "DynamicGraph",
    "UpdateBatch",
    "derive_stream",
    "powerlaw_graph",
    "road_network",
    "erdos_renyi",
    "DeviceConfig",
    "default_device",
    "QueryGraph",
    "WILDCARD_LABEL",
    "QUERIES",
    "QUERY_ORDER",
    "motifs",
    "query_by_name",
    "__version__",
]
