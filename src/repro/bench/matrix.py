"""Declarative factorial scenario-matrix runner with regression gates.

A :class:`ScenarioSpec` declares *factors* — graph family, update mix,
batch size, conflict mode, device-fleet size, pre-filter,
edge predicate, TTL window — each with one or more levels.
:func:`expand_cells` takes the full cartesian product, prunes combinations
that are invalid by construction (e.g. ``devices`` with a system whose
placement is not ``cached``, ``window`` under ``strict`` conflict handling),
and optionally draws a deterministic fractional sample.  Each surviving
*cell* is executed through the existing harness entry points
(:func:`~repro.bench.harness.run_stream` and — for spec-level service
scenarios — :func:`~repro.bench.harness.run_service`) with memoized
workloads, producing one record per cell.

The records plus provenance (seed, git SHA, spec, factor values) form a
*trajectory* (``BENCH_matrix.json``).  :func:`compare_trajectories` diffs
a fresh trajectory against a committed baseline: simulated-time and
counter metrics are gated by a relative tolerance, while determinism
metrics (ΔM, embeddings) must match exactly.  Wall-clock is recorded for
context but never gated — it is machine noise.

CLI: ``python -m repro matrix --spec SPEC [--filter F=V ...]
[--baseline PATH --max-regress PCT]`` (exit 1 on regression).
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.bench.harness import UPDATE_MIXES, run_service, run_stream
from repro.core.baselines import SYSTEM_NAMES, SYSTEMS
from repro.core.engine import EngineConfig
from repro.core.multiquery import Rulebook
from repro.gpu.counters import Channel
from repro.gpu.device import ClusterConfig
from repro.graphs import datasets
from repro.graphs.stream import CONFLICT_MODES
from repro.query import QUERY_ORDER, query_by_name

__all__ = [
    "SCHEMA_VERSION",
    "FACTOR_DEFAULTS",
    "FACTOR_NAMES",
    "GATED_METRICS",
    "EXACT_METRICS",
    "ScenarioSpec",
    "parse_predicate",
    "expand_cells",
    "cell_id",
    "filter_cells",
    "run_cell",
    "run_matrix",
    "save_trajectory",
    "load_trajectory",
    "RegressionReport",
    "compare_trajectories",
]

SCHEMA_VERSION = 1

#: every factor with its single-level default; a spec only lists the factors
#: it varies, everything else stays pinned at these values
FACTOR_DEFAULTS: dict[str, object] = {
    "system": "GCSM",
    "dataset": "AZ",
    "query": "Q1",
    "update_mix": "mixed",
    "batch_size": None,  # dataset default
    "num_batches": 2,
    "conflict_mode": "coalesce",
    "devices": None,  # single-GPU engine
    "prefilter": "off",
    "predicate": None,  # weight predicate applied to every query edge
    "window": None,  # TTL expiry in batches
}
FACTOR_NAMES: tuple[str, ...] = tuple(FACTOR_DEFAULTS)

#: per-cell metrics gated by the relative ``--max-regress`` tolerance
GATED_METRICS: tuple[str, ...] = (
    "total_ns",
    "match_ns",
    "estimate_ns",
    "pack_ns",
    "update_ns",
    "reorg_ns",
    "compute_ops",
    "cpu_access_bytes",
)
#: determinism metrics that must be *identical* run-to-run
EXACT_METRICS: tuple[str, ...] = ("delta_total", "embeddings_total")


def parse_predicate(text: str) -> tuple[float, float]:
    """Parse a weight-predicate factor value into ``(lo, hi)`` bounds.

    Grammar: ``w>=X`` (lower bound), ``w<=X`` (upper bound), or
    ``X<=w<=Y`` (closed interval); weights live in ``[0, 1)``.
    """
    s = text.replace(" ", "")
    try:
        if s.startswith("w>="):
            return (float(s[3:]), 1.0)
        if s.startswith("w<="):
            return (0.0, float(s[3:]))
        lo_part, sep, rest = s.partition("<=w<=")
        if sep:
            lo, hi = float(lo_part), float(rest)
            if lo > hi:
                raise ValueError(f"empty predicate interval in {text!r}")
            return (lo, hi)
    except ValueError as exc:
        raise ValueError(f"bad predicate {text!r}: {exc}") from None
    raise ValueError(
        f"bad predicate {text!r}: expected 'w>=X', 'w<=X', or 'X<=w<=Y'"
    )


def _check_level(factor: str, value: object) -> None:
    """Validate one factor level eagerly (spec-load time, not run time)."""
    checks: dict[str, Callable[[object], bool]] = {
        "system": lambda v: v in SYSTEM_NAMES,
        "dataset": lambda v: v in datasets.DATASETS,
        "query": lambda v: (
            isinstance(v, str)
            and (v in QUERY_ORDER
                 or (v.startswith("rulebook:")
                     and all(n in QUERY_ORDER for n in v[9:].split("+"))))
        ),
        "update_mix": lambda v: v in UPDATE_MIXES,
        "batch_size": lambda v: v is None or (isinstance(v, int) and v > 0),
        "num_batches": lambda v: isinstance(v, int) and v > 0,
        "conflict_mode": lambda v: v in CONFLICT_MODES,
        "devices": lambda v: v is None or (isinstance(v, int) and v >= 1),
        "prefilter": lambda v: v in ("on", "off", "invariant"),
        "predicate": lambda v: v is None or bool(parse_predicate(v)),
        "window": lambda v: v is None or (isinstance(v, int) and v > 0),
    }
    if not checks[factor](value):
        raise ValueError(f"invalid level {value!r} for factor {factor!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative scenario matrix: factors, levels, sampling, seed."""

    name: str
    factors: dict[str, tuple] = field(default_factory=dict)
    seed: int = 0
    sample: float = 1.0
    description: str = ""
    #: spec-level service scenarios: each entry is a kwargs dict for
    #: :func:`~repro.bench.harness.run_service` (not part of the factorial)
    service: tuple = ()

    def __post_init__(self) -> None:
        unknown = set(self.factors) - set(FACTOR_NAMES)
        if unknown:
            raise ValueError(
                f"unknown factors {sorted(unknown)}; expected {FACTOR_NAMES}"
            )
        norm = {}
        for factor, levels in self.factors.items():
            levels = tuple(levels)
            if not levels:
                raise ValueError(f"factor {factor!r} has no levels")
            for value in levels:
                _check_level(factor, value)
            norm[factor] = levels
        object.__setattr__(self, "factors", norm)
        object.__setattr__(self, "service", tuple(dict(s) for s in self.service))
        if not (0.0 < self.sample <= 1.0):
            raise ValueError(f"sample must be in (0, 1], got {self.sample}")

    def levels(self, factor: str) -> tuple:
        return self.factors.get(factor, (FACTOR_DEFAULTS[factor],))

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            factors={k: tuple(v) for k, v in data.get("factors", {}).items()},
            seed=int(data.get("seed", 0)),
            sample=float(data.get("sample", 1.0)),
            description=data.get("description", ""),
            service=tuple(data.get("service", ())),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "sample": self.sample,
            "factors": {k: list(v) for k, v in self.factors.items()},
            "service": [dict(s) for s in self.service],
        }


def _cell_invalid_reason(cell: Mapping) -> str | None:
    """Why this factor combination cannot run, or None if it can.

    These prune rules drop combinations that are contradictory or
    degenerate *by construction* — they would raise downstream.
    """
    try:  # the engine's own validation is the one place contradictions live
        config = EngineConfig(**{**SYSTEMS[cell["system"]], "devices": cell["devices"]})
        if str(cell["query"]).startswith("rulebook:"):
            Rulebook.check(config)
    except ValueError as exc:
        return str(exc)
    if cell["update_mix"] == "adversarial" and cell["conflict_mode"] == "strict":
        return "adversarial streams violate strict conflict handling"
    if cell["window"] is not None and cell["conflict_mode"] == "strict":
        return "windowed expiry deletes conflict with strict mode"
    return None


def expand_cells(
    spec: ScenarioSpec, *, sample: float | None = None
) -> tuple[list[dict], list[tuple[dict, str]]]:
    """Full factorial expansion → (runnable cells, pruned (cell, reason)).

    ``sample`` (or ``spec.sample``) < 1 draws a deterministic fraction of
    the runnable cells, seeded by ``spec.seed`` — the same spec always
    yields the same run table.
    """
    cells: list[dict] = []
    pruned: list[tuple[dict, str]] = []
    for combo in itertools.product(*(spec.levels(f) for f in FACTOR_NAMES)):
        cell = dict(zip(FACTOR_NAMES, combo))
        reason = _cell_invalid_reason(cell)
        if reason is None:
            cells.append(cell)
        else:
            pruned.append((cell, reason))
    frac = spec.sample if sample is None else float(sample)
    if not (0.0 < frac <= 1.0):
        raise ValueError(f"sample must be in (0, 1], got {frac}")
    if frac < 1.0 and len(cells) > 1:
        rng = np.random.default_rng(spec.seed)
        keep = max(1, int(round(frac * len(cells))))
        idx = sorted(rng.choice(len(cells), size=keep, replace=False).tolist())
        cells = [cells[i] for i in idx]
    return cells, pruned


def _fmt_level(value: object) -> str:
    return "-" if value is None else str(value)


def cell_id(cell: Mapping) -> str:
    """Stable identity string, e.g. ``system=GCSM|dataset=AZ|...``."""
    return "|".join(f"{f}={_fmt_level(cell[f])}" for f in FACTOR_NAMES)


def filter_cells(cells: Iterable[dict], filters: Mapping[str, str]) -> list[dict]:
    """Keep cells whose factor levels match every ``FACTOR=VALUE`` filter.

    Values compare as strings after :func:`cell_id` formatting, so
    ``devices=2`` and ``window=-`` (None) both work from the CLI.
    """
    for factor in filters:
        if factor not in FACTOR_NAMES:
            raise ValueError(
                f"unknown filter factor {factor!r}; expected one of {FACTOR_NAMES}"
            )
    return [
        cell for cell in cells
        if all(f in cell and _fmt_level(cell[f]) == str(v) for f, v in filters.items())
    ]


def _cell_queries(cell: Mapping) -> list:
    """Resolve the cell's query factor into concrete QueryGraph objects."""
    spec = str(cell["query"])
    names = spec[9:].split("+") if spec.startswith("rulebook:") else [spec]
    queries = [query_by_name(n) for n in names]
    if cell["predicate"] is not None:
        bounds = parse_predicate(cell["predicate"])
        queries = [
            q.with_edge_predicates(
                {e: bounds for e in q.edges}, name=f"{q.name}~w"
            )
            for q in queries
        ]
    return queries


def run_cell(cell: Mapping, *, seed: int = 0) -> dict:
    """Execute one cell through the harness; return its trajectory record:
    the run's :meth:`~repro.bench.harness.RunResult.to_dict` row plus its
    counters' totals (summed over the run) and the wall clock."""
    kwargs: dict = dict(
        batch_size=cell["batch_size"],
        num_batches=cell["num_batches"],
        seed=seed,
        update_mix=cell["update_mix"],
        window=cell["window"],
        conflict_mode=cell["conflict_mode"],
        prefilter=cell["prefilter"],
    )
    if cell["devices"] is not None:
        kwargs["devices"] = ClusterConfig(num_devices=cell["devices"])
    queries = _cell_queries(cell)
    query = queries[0]
    if str(cell["query"]).startswith("rulebook:"):
        query = Rulebook(queries)
    start = time.perf_counter()
    result = run_stream(cell["system"], cell["dataset"], query, **kwargs)
    wall = time.perf_counter() - start

    counters = result.counters
    return {
        "cell_id": cell_id(cell),
        "factors": dict(cell),
        "metrics": {
            "wall_clock_s": wall,  # recorded, never gated
            **result.to_dict(),
            "compute_ops": int(counters.compute_ops),
            "zero_copy_bytes": int(counters.bytes_by_channel[Channel.ZERO_COPY]),
            "gpu_global_bytes": int(counters.bytes_by_channel[Channel.GPU_GLOBAL]),
        },
    }


def _run_service_cell(svc: Mapping, *, seed: int) -> dict:
    """Execute one spec-level service scenario into a trajectory record."""
    kwargs = dict(svc)
    num_tenants = int(kwargs.pop("num_tenants", 2))
    kwargs.setdefault("seed", seed)
    start = time.perf_counter()
    report = run_service(num_tenants, **kwargs)
    wall = time.perf_counter() - start
    ident = "service|" + "|".join(
        f"{k}={_fmt_level(v)}" for k, v in sorted(svc.items())
    )
    return {
        "cell_id": ident,
        "factors": {"service": dict(svc)},
        "metrics": {
            "wall_clock_s": wall,
            "total_ns": float(report.makespan_ns),
            "delta_total": int(report.completed),
            "embeddings_total": int(report.total_edges),
        },
    }


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_matrix(
    spec: ScenarioSpec,
    *,
    filters: Mapping[str, str] | None = None,
    sample: float | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Expand ``spec``, execute every cell, return the trajectory dict."""
    cells, pruned = expand_cells(spec, sample=sample)
    if filters:
        cells = filter_cells(cells, filters)
    records = []
    for i, cell in enumerate(cells):
        if progress is not None:
            progress(f"[{i + 1}/{len(cells)}] {cell_id(cell)}")
        records.append(run_cell(cell, seed=spec.seed))
    for j, svc in enumerate(spec.service):
        if filters:  # factor filters select stream cells only
            break
        if progress is not None:
            progress(f"[service {j + 1}/{len(spec.service)}]")
        records.append(_run_service_cell(svc, seed=spec.seed))
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "seed": spec.seed,
        "git_sha": _git_sha(),
        "generated_unix": time.time(),
        "sample": spec.sample if sample is None else float(sample),
        "filters": dict(filters or {}),
        "cells_run": len(records),
        "cells_pruned": [
            {"cell_id": cell_id(c), "reason": r} for c, r in pruned
        ],
        "records": records,
    }


def save_trajectory(trajectory: Mapping, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trajectory, indent=2) + "\n")


def load_trajectory(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"trajectory schema {data.get('schema_version')!r} from {path} "
            f"does not match expected {SCHEMA_VERSION}"
        )
    return data


@dataclass
class RegressionReport:
    """Outcome of diffing a fresh trajectory against a baseline."""

    max_regress_pct: float
    compared: int = 0
    #: gated-metric excesses: (cell_id, metric, baseline, current, pct_change)
    regressions: list[tuple[str, str, float, float, float]] = field(
        default_factory=list
    )
    #: exact-metric breaks: (cell_id, metric, baseline, current)
    mismatches: list[tuple[str, str, float, float]] = field(default_factory=list)
    missing_cells: list[str] = field(default_factory=list)
    new_cells: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No regression, no mismatch, no baseline cell left unrun, and at
        least one cell compared (a renamed factor compares nothing)."""
        return (self.compared > 0 and not self.missing_cells
                and not self.regressions and not self.mismatches)

    def describe(self) -> str:
        lines = [
            f"matrix diff: {self.compared} cells compared "
            f"(tolerance {self.max_regress_pct:.0f}%), "
            f"{len(self.missing_cells)} missing, {len(self.new_cells)} new"
        ]
        for cid, metric, base, cur, pct in self.regressions:
            lines.append(
                f"  REGRESSION {metric} +{pct:.1f}% "
                f"({base:,.0f} -> {cur:,.0f})\n    in {cid}"
            )
        for cid, metric, base, cur in self.mismatches:
            lines.append(
                f"  MISMATCH {metric} {base:,.0f} -> {cur:,.0f} "
                f"(must be exact)\n    in {cid}"
            )
        for cid in self.missing_cells:
            lines.append(f"  MISSING baseline cell not run\n    {cid}")
        if not self.compared:
            lines.append("  NOTHING COMPARED: no cell is in both trajectories")
        if self.ok:
            lines.append("  OK: no regressions beyond tolerance")
        return "\n".join(lines)


def compare_trajectories(
    current: Mapping, baseline: Mapping, *, max_regress_pct: float = 20.0
) -> RegressionReport:
    """Gate ``current`` against ``baseline`` over their shared cells.

    Simulated-time and counter metrics (:data:`GATED_METRICS`) may grow by
    at most ``max_regress_pct`` percent, and not at all from a baseline of
    0; determinism metrics
    (:data:`EXACT_METRICS`) must be bit-identical.  Every baseline cell
    within ``current``'s ``filters`` must have been run.  Improvements, new
    cells and wall-clock changes never fail the gate.
    """
    if max_regress_pct < 0:
        raise ValueError("max_regress_pct must be >= 0")
    cur_by_id = {r["cell_id"]: r["metrics"] for r in current["records"]}
    filters = current.get("filters") or {}
    base_by_id = {
        r["cell_id"]: r["metrics"] for r in baseline["records"]
        if not filters or filter_cells([r.get("factors", {})], filters)
    }
    report = RegressionReport(max_regress_pct=max_regress_pct)
    report.missing_cells = sorted(set(base_by_id) - set(cur_by_id))
    report.new_cells = sorted(set(cur_by_id) - set(base_by_id))
    for cid in sorted(set(cur_by_id) & set(base_by_id)):
        cur, base = cur_by_id[cid], base_by_id[cid]
        report.compared += 1
        for metric in GATED_METRICS:
            if metric not in cur or metric not in base:
                continue
            b, c = float(base[metric]), float(cur[metric])
            if c <= b:
                continue
            # growth from a zero baseline is unbounded: always a regression
            pct = (c - b) / b * 100.0 if b > 0 else math.inf
            if pct > max_regress_pct:
                report.regressions.append((cid, metric, b, c, pct))
        for metric in EXACT_METRICS:
            if metric not in cur or metric not in base:
                continue
            if cur[metric] != base[metric]:
                report.mismatches.append(
                    (cid, metric, float(base[metric]), float(cur[metric]))
                )
    return report
