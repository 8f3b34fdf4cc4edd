"""Experiment harness: per-figure/table runners reproducing the paper's
evaluation (Sec. VI).  Each function in :mod:`repro.bench.figures` returns
structured rows and prints a paper-style table; the ``benchmarks/`` pytest
targets wrap them with wall-clock measurement and shape assertions.
:mod:`repro.bench.matrix` generalizes the runners into a declarative
factorial scenario matrix with trajectory regression gates."""

from repro.bench.harness import (
    RunResult,
    Workload,
    UPDATE_MIXES,
    run_stream,
    run_service,
    build_workload,
    clear_caches,
)
from repro.bench import figures, matrix

__all__ = [
    "RunResult",
    "Workload",
    "UPDATE_MIXES",
    "run_stream",
    "run_service",
    "build_workload",
    "clear_caches",
    "figures",
    "matrix",
]
