"""Experiment result records: serialization and cross-system summaries.

The bench harness produces :class:`~repro.bench.harness.RunResult` objects;
this module turns them into portable records — flat dictionaries that round
trip through JSON — and computes the comparison summaries the paper reports
(per-query speedups, geometric means, access reductions).  Keeping this
logic in the library (rather than inside the pytest targets) lets the CLI,
examples, and downstream notebooks reuse it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping

from repro.utils import geometric_mean, require

__all__ = ["ExperimentRecord", "ComparisonSummary", "summarize", "save_records", "load_records"]


@dataclass(frozen=True)
class ExperimentRecord:
    """One (system, dataset, query) measurement, flattened for export."""

    system: str
    dataset: str
    query: str
    batch_size: float  # actual mean updates per driven batch
    num_batches: int
    total_ns: float
    match_ns: float
    estimate_ns: float
    pack_ns: float
    reorg_ns: float
    update_ns: float
    cpu_access_bytes: int
    delta_total: int
    embeddings_total: int
    cache_hit_rate: float | None = None
    coverage_top1: float | None = None
    coverage_top5: float | None = None
    #: requested sizing / workload axes (None keeps older JSON loadable);
    #: ``batch_size`` is the *actual* mean once these are present
    batch_size_requested: int | None = None
    num_batches_requested: int | None = None
    update_mix: str | None = None
    window: int | None = None
    #: update-conflict policy the system ran with (None for older JSON)
    conflict_mode: str | None = None
    # -- multi-GPU extras (defaults keep old JSON files loadable) ----------
    num_devices: int = 1
    comm_ns: float = 0.0
    peer_bytes: int = 0
    imbalance: float | None = None
    #: per-batch shard load-balance reports (``LoadBalanceReport.to_dict()``)
    load_balance: list = field(default_factory=list)
    # -- multi-query (rulebook) extras (None for single-query records) -----
    shared: bool | None = None
    rulebook_size: int | None = None
    # -- aggregate-invariant pre-filter extras (defaults keep old JSON) ----
    prefilter: str | None = None
    prefilter_ns: float = 0.0
    batches_skipped: int = 0
    roots_skipped: int = 0
    queries_skipped: int = 0

    @classmethod
    def from_run(cls, run) -> "ExperimentRecord":
        """Build from a :class:`repro.bench.harness.RunResult`: every field
        is the run's same-named attribute, the ``*_ns`` phase times come
        from its mean-per-batch breakdown."""
        bd = run.breakdown
        return cls(**{
            f.name: getattr(bd if f.name.endswith("_ns") else run, f.name)
            for f in fields(cls)
        })

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentRecord":
        # retired columns (e.g. ``estimator``) in older JSON are dropped
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ComparisonSummary:
    """Speedup statistics of one system against a baseline.

    ``speedups`` maps (dataset, query) to baseline_time / system_time — the
    paper's convention (values > 1 mean the system wins).
    """

    system: str
    baseline: str
    speedups: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def min(self) -> float:
        return min(self.speedups.values())

    @property
    def max(self) -> float:
        return max(self.speedups.values())

    @property
    def geomean(self) -> float:
        return geometric_mean(self.speedups.values())

    @property
    def wins(self) -> int:
        return sum(1 for v in self.speedups.values() if v > 1.0)

    def describe(self) -> str:
        return (
            f"{self.system} vs {self.baseline}: "
            f"{self.min:.2f}x-{self.max:.2f}x "
            f"(geomean {self.geomean:.2f}x, wins {self.wins}/{len(self.speedups)})"
        )


def summarize(
    records: Iterable[ExperimentRecord], system: str, baseline: str
) -> ComparisonSummary:
    """Pairwise speedup summary over matching (dataset, query) legs."""
    by_key: dict[tuple[str, str, str], ExperimentRecord] = {}
    for rec in records:
        by_key[(rec.system, rec.dataset, rec.query)] = rec
    summary = ComparisonSummary(system=system, baseline=baseline)
    for (sys_name, dataset, query), rec in by_key.items():
        if sys_name != system:
            continue
        base = by_key.get((baseline, dataset, query))
        if base is None:
            continue
        require(rec.total_ns > 0, "non-positive system time")
        summary.speedups[(dataset, query)] = base.total_ns / rec.total_ns
    require(bool(summary.speedups), f"no overlapping legs for {system} vs {baseline}")
    return summary


def save_records(records: Iterable[ExperimentRecord], path: str | Path) -> None:
    """Write records as a JSON list."""
    payload = [rec.to_dict() for rec in records]
    Path(path).write_text(json.dumps(payload, indent=2))


def load_records(path: str | Path) -> list[ExperimentRecord]:
    """Read records written by :func:`save_records`."""
    payload = json.loads(Path(path).read_text())
    return [ExperimentRecord.from_dict(item) for item in payload]
