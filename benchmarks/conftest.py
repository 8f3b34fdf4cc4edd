"""Shared fixtures for the benchmark suite.

Each benchmark target runs one figure/table reproduction exactly once
(``benchmark.pedantic(rounds=1)``): the experiment functions are themselves
deterministic simulations, so repeating them only wastes wall-clock.  Their
printed paper-style tables are teed into ``benchmarks/results/`` so they
survive pytest's stdout capture.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
#: a run owns the text after this line of a results file; what is above it —
#: the hand-annotated before/after sections — is kept.  A file without the
#: line is all the run's.
LATEST_RUN = "== latest run: rewritten by every run of the benchmark; everything above is kept\n"


def provenance(script: str, details: str) -> str:
    """Header of a script's results table: the tree's commit (noting
    uncommitted ``src/`` changes), ``details`` (seed, size, versions) and
    the command that wrote it."""
    root = Path(__file__).resolve().parents[1]
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", ""
    return (f"tree {sha}{' + uncommitted src/ changes' if dirty else ''}, {details}\n"
            f"command: PYTHONPATH=src python benchmarks/{script} "
            f"{' '.join(sys.argv[1:])}".rstrip())


def write_table(path: Path, table: str) -> None:
    """Replace the run's own table in ``path``, leaving annotated history."""
    history, marker, _ = (path.read_text() if path.exists() else "").partition(LATEST_RUN)
    path.write_text((history + marker if marker else "") + table)


@pytest.fixture()
def record_table():
    """Context manager teeing stdout to ``benchmarks/results/<name>.txt``
    (through :func:`write_table`)."""

    @contextlib.contextmanager
    def _record(name: str):
        RESULTS_DIR.mkdir(exist_ok=True)
        buffer = io.StringIO()
        original = sys.stdout

        class Tee(io.TextIOBase):
            def write(self, s):
                buffer.write(s)
                original.write(s)
                return len(s)

            def flush(self):
                original.flush()

        sys.stdout = Tee()
        try:
            yield
        finally:
            sys.stdout = original
            write_table(RESULTS_DIR / f"{name}.txt", buffer.getvalue())

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
