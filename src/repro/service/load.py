"""Load generation for the continuous-ingest service.

A tenant is one standing (graph, query) registration plus a stream of
:class:`~repro.graphs.stream.UpdateBatch` es arriving over *simulated* time.
Batches come from the PR 5 adversarial stream families
(:func:`~repro.graphs.stream.generate_adversarial_stream`), so the service
layer is exercised on exactly the dirty real-world inputs the update
protocol was hardened against.

Arrival processes (all in simulated nanoseconds, seeded → deterministic):

* ``"poisson"`` — open loop, exponential inter-arrival at ``rate_per_sec``.
* ``"bursty"``  — open loop, bursts of ``burst`` back-to-back batches
  (1 µs apart) with exponential gaps between bursts; same long-run mean
  rate as the Poisson process.
* ``"closed"``  — closed loop: the next batch arrives ``think_ns`` after
  the previous one *completes* (arrival times are resolved by the server,
  which owns completion times).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import UpdateBatch, generate_adversarial_stream
from repro.query.pattern import QueryGraph
from repro.utils import as_generator, require

__all__ = [
    "ARRIVAL_PROCESSES",
    "TenantWorkload",
    "make_tenant_workloads",
]

ARRIVAL_PROCESSES = ("poisson", "bursty", "closed")

_NS_PER_SEC = 1_000_000_000.0
_BURST_GAP_NS = 1_000.0  # intra-burst spacing: 1 µs


@dataclass
class TenantWorkload:
    """One tenant's registration and its pre-generated arrival trace.

    ``arrival_ns[i]`` is batch *i*'s arrival time for open-loop processes;
    for ``"closed"`` it holds only the first arrival — later arrivals are
    completion-driven (``think_ns`` after the previous batch finishes).
    """

    name: str
    initial_graph: StaticGraph
    query: QueryGraph
    batches: list[UpdateBatch]
    arrival_ns: list[float]
    arrival: str = "poisson"
    priority: int = 0
    think_ns: float = 0.0

    @property
    def num_batches(self) -> int:
        return len(self.batches)


def _arrival_times(
    arrival: str,
    num_batches: int,
    rate_per_sec: float,
    burst: int,
    rng: np.random.Generator,
) -> list[float]:
    require(rate_per_sec > 0, "arrival rate must be positive")
    mean_gap = _NS_PER_SEC / rate_per_sec
    if arrival == "poisson":
        gaps = rng.exponential(mean_gap, size=num_batches)
        return np.cumsum(gaps).tolist()
    if arrival == "bursty":
        require(burst >= 1, "burst size must be >= 1")
        times: list[float] = []
        t = 0.0
        while len(times) < num_batches:
            # keep the long-run rate: one exponential gap buys a whole burst
            t += float(rng.exponential(mean_gap * burst))
            for j in range(burst):
                if len(times) >= num_batches:
                    break
                times.append(t + j * _BURST_GAP_NS)
        return times
    if arrival == "closed":
        # only the first arrival is pre-determined; the server derives the
        # rest from completions + think time
        return [float(rng.exponential(mean_gap))]
    raise ValueError(f"unknown arrival process {arrival!r}")


def make_tenant_workloads(
    num_tenants: int,
    *,
    num_batches: int = 8,
    batch_size: int = 16,
    rate_per_sec: float = 50.0,
    arrival: str = "poisson",
    burst: int = 4,
    think_ns: float = 0.0,
    priorities: list[int] | None = None,
    graph_size: int = 36,
    avg_degree: float = 7.0,
    queries: list[QueryGraph] | None = None,
    seed: int | np.random.Generator | None = 0,
) -> list[TenantWorkload]:
    """Build ``num_tenants`` independent tenants with adversarial streams.

    Each tenant gets its own random labeled graph, a query from the catalog
    rotation, an adversarial update stream, and an arrival trace — all
    derived from one master seed so a service run replays bit-for-bit.
    ``priorities`` defaults to descending (tenant 0 highest), which is what
    makes the priority-scheduler tests discriminating.
    """
    from repro.graphs import generators
    from repro.query import QUERIES

    require(num_tenants >= 1, "need at least one tenant")
    require(arrival in ARRIVAL_PROCESSES, f"unknown arrival process {arrival!r}")
    master = as_generator(seed)
    rotation = queries or [QUERIES["Q1"], QUERIES["Q2"], QUERIES["Q4"]]
    if priorities is None:
        priorities = list(range(num_tenants - 1, -1, -1))
    require(len(priorities) == num_tenants, "one priority per tenant")
    tenants: list[TenantWorkload] = []
    for i in range(num_tenants):
        tseed = int(master.integers(0, 2**31 - 1))
        rng = np.random.default_rng(tseed)
        g0 = generators.erdos_renyi(
            graph_size, avg_degree, num_labels=3,
            seed=np.random.default_rng(tseed),
        )
        batches = generate_adversarial_stream(
            g0, num_batches=num_batches, batch_size=batch_size,
            seed=np.random.default_rng(tseed + 1),
        )
        tenants.append(TenantWorkload(
            name=f"tenant{i}",
            initial_graph=g0,
            query=rotation[i % len(rotation)],
            batches=batches,
            arrival_ns=_arrival_times(arrival, len(batches), rate_per_sec, burst, rng),
            arrival=arrival,
            priority=priorities[i],
            think_ns=think_ns,
        ))
    return tenants
