"""Service metrics: per-tenant latency/throughput SLO accounting.

All times are simulated nanoseconds (the same clock the engines charge);
``wall_clock_s`` on the report is the harness's real elapsed time for the
whole run, recorded separately so the artifact captures both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LatencyStats", "TenantMetrics", "ServiceReport"]

_NS_PER_SEC = 1_000_000_000.0


@dataclass
class LatencyStats:
    """Percentile summary of one latency population (ns)."""

    count: int = 0
    p50_ns: float = 0.0
    p95_ns: float = 0.0
    p99_ns: float = 0.0
    max_ns: float = 0.0
    mean_ns: float = 0.0

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencyStats":
        if not samples:
            return cls()
        arr = np.asarray(samples, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return cls(
            count=int(arr.size),
            p50_ns=float(p50),
            p95_ns=float(p95),
            p99_ns=float(p99),
            max_ns=float(arr.max()),
            mean_ns=float(arr.mean()),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "max_ns": self.max_ns,
            "mean_ns": self.mean_ns,
        }


class TenantMetrics:
    """Mutable per-tenant collector the server feeds during a run."""

    def __init__(self, name: str, priority: int = 0) -> None:
        self.name = name
        self.priority = priority
        self.latencies_ns: list[float] = []
        self.queue_wait_ns: list[float] = []
        self.completed = 0
        self.arrived = 0
        self.rejected = 0      # dropped at admission (reject policy)
        self.shed = 0          # evicted from the queue (shed-oldest policy)
        self.errors: list[str] = []  # traceback of each batch whose engine raised
        self.stall_ns = 0.0    # producer stall time (backpressure policy)
        self.delta_total = 0
        self.edges_completed = 0
        self.service_ns = 0.0  # device-lane occupancy charged to this tenant
        self.depth_samples: list[int] = []
        self.first_arrival_ns = float("inf")
        self.last_completion_ns = 0.0

    # -- recording hooks ------------------------------------------------
    def on_arrival(self, now_ns: float) -> None:
        self.arrived += 1
        self.first_arrival_ns = min(self.first_arrival_ns, now_ns)

    def on_complete(
        self, arrival_ns: float, start_ns: float, end_ns: float,
        batch_len: int, delta: int,
    ) -> None:
        self.completed += 1
        self.latencies_ns.append(end_ns - arrival_ns)
        self.queue_wait_ns.append(start_ns - arrival_ns)
        self.service_ns += end_ns - start_ns
        self.edges_completed += batch_len
        self.delta_total += delta
        self.last_completion_ns = max(self.last_completion_ns, end_ns)

    def sample_depth(self, depth: int) -> None:
        self.depth_samples.append(depth)

    # -- derived --------------------------------------------------------
    @property
    def dropped(self) -> int:
        return self.rejected + self.shed

    @property
    def shed_rate(self) -> float:
        """Fraction of arrived batches dropped (rejected or shed)."""
        return self.dropped / self.arrived if self.arrived else 0.0

    @property
    def sustained_edges_per_sec(self) -> float:
        """Completed edge updates per simulated second of active span."""
        span = self.last_completion_ns - min(self.first_arrival_ns, self.last_completion_ns)
        if span <= 0:
            return 0.0
        return self.edges_completed / (span / _NS_PER_SEC)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "priority": self.priority,
            "arrived": self.arrived,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "failed": len(self.errors),
            "errors": list(self.errors),
            "shed_rate": self.shed_rate,
            "stall_ns": self.stall_ns,
            "delta_total": self.delta_total,
            "edges_completed": self.edges_completed,
            "service_ns": self.service_ns,
            "sustained_edges_per_sec": self.sustained_edges_per_sec,
            "latency": LatencyStats.from_samples(self.latencies_ns).to_dict(),
            "queue_wait": LatencyStats.from_samples(self.queue_wait_ns).to_dict(),
            "queue_depth_mean": float(np.mean(self.depth_samples)) if self.depth_samples else 0.0,
            "queue_depth_max": int(max(self.depth_samples)) if self.depth_samples else 0,
        }


@dataclass
class ServiceReport:
    """Machine-readable outcome of one service run (JSON round-trippable)."""

    scheduler: str
    admission: str
    pipeline: bool
    num_devices: int
    queue_capacity: int
    seed: int
    makespan_ns: float
    wall_clock_s: float
    tenants: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    schedule: dict | None = None

    # -- aggregates -----------------------------------------------------
    @property
    def completed(self) -> int:
        return sum(t["completed"] for t in self.tenants)

    @property
    def total_edges(self) -> int:
        return sum(t["edges_completed"] for t in self.tenants)

    @property
    def sustained_edges_per_sec(self) -> float:
        """Fleet-level completed edge updates per simulated second."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.total_edges / (self.makespan_ns / _NS_PER_SEC)

    @property
    def max_shed_rate(self) -> float:
        return max((t["shed_rate"] for t in self.tenants), default=0.0)

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "admission": self.admission,
            "pipeline": self.pipeline,
            "num_devices": self.num_devices,
            "queue_capacity": self.queue_capacity,
            "seed": self.seed,
            "makespan_ns": self.makespan_ns,
            "wall_clock_s": self.wall_clock_s,
            "sustained_edges_per_sec": self.sustained_edges_per_sec,
            "completed": self.completed,
            "total_edges": self.total_edges,
            "tenants": list(self.tenants),
            "counters": dict(self.counters),
            "schedule": self.schedule,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- human-readable SLO table ----------------------------------------
    def slo_rows(self) -> list[list[object]]:
        rows: list[list[object]] = []
        for t in sorted(self.tenants, key=lambda t: t["name"]):
            lat = t["latency"]
            rows.append([
                t["name"], t["priority"], t["arrived"], t["completed"],
                f"{lat['p50_ns'] / 1e6:.3f}", f"{lat['p95_ns'] / 1e6:.3f}",
                f"{lat['p99_ns'] / 1e6:.3f}",
                f"{t['sustained_edges_per_sec']:.0f}",
                t["queue_depth_max"], f"{t['shed_rate']:.3f}",
            ])
        return rows

    SLO_HEADER = [
        "tenant", "prio", "arrived", "done", "p50 ms", "p95 ms", "p99 ms",
        "edges/s", "max depth", "shed rate",
    ]
