"""Launches and Python calls per batch: the two clocks that repeat.

Drives the repo benchmark's single-query workloads (``benchmarks/e2e``'s
own set-up, read-only) at smoke size and prints, per batch on average, the
row program's launches (``join_rows`` calls), how many of them the
frequency walk issued itself, and the Python ``call`` events of
``process_batch`` (:func:`repro.testing.count_calls`).  Neither number moves
between runs or machines with the same NumPy, so CI can print them and a
change can quote them.

    PYTHONPATH=src python benchmarks/launch_counts.py [workload ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads as W  # noqa: E402

import repro.core.frequency_frontier as frequency_frontier  # noqa: E402
import repro.core.frontier as frontier  # noqa: E402
from repro.testing import count_calls  # noqa: E402

SINGLE_QUERY = ("ca_q3_narrow", "fr_q1_mixed", "sf3k_q1_churn")


def counting(owner, name: str, tally: dict) -> None:
    """Count ``owner.name``'s calls into ``tally[name]``."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        tally[name] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, counted)


def main(names: list[str]) -> None:
    tally = {"join_rows": 0, "expand_rows": 0}
    counting(frontier, "join_rows", tally)
    counting(frequency_frontier, "expand_rows", tally)
    print(f"{'workload':<16} {'launches':>9} {'by walk':>8} {'calls':>8}   (per batch, smoke size)")
    for name in names:
        inputs, engine = W.setup(W.WORKLOADS[name], 0, smoke=True)
        for key in tally:
            tally[key] = 0
        calls = count_calls(lambda: [engine.process_batch(b) for b in inputs.batches])
        n = len(inputs.batches)
        print(f"{name:<16} {tally['join_rows'] / n:>9.1f} {tally['expand_rows'] / n:>8.1f} "
              f"{calls / n:>8.1f}")


if __name__ == "__main__":
    main(sys.argv[1:] or list(SINGLE_QUERY))
