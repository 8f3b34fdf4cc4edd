"""Launches and Python calls per batch: the two clocks that repeat.

Drives the repo benchmark's workloads (``benchmarks/e2e``'s own set-up,
read-only) at smoke size and prints, per batch on average, the row
program's launches (``join_rows`` calls), how many of them the frequency
walk issued itself, and the Python ``call`` events of ``process_batch``
(:func:`repro.testing.count_calls`).  Neither number moves between runs or
machines with the same NumPy, so CI can gate them and a change can quote
them.  By default: the three single-query workloads and ``az_rulebook24``.

``--check`` exits non-zero if the walk launched anything on a workload of
:data:`READS` — there it reads the kernel's expansion and pays no launch of
its own.  (``sparse_tri_skip``'s walk launches over a prefilter-reduced
estimate batch; it is not gated.)

    PYTHONPATH=src python benchmarks/launch_counts.py [--check] [workload ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads as W  # noqa: E402

import repro.core.frequency_frontier as frequency_frontier  # noqa: E402
import repro.core.frontier as frontier  # noqa: E402
from repro.testing import count_calls  # noqa: E402

#: the workloads whose walk must launch nothing of its own
READS = ("ca_q3_narrow", "fr_q1_mixed", "sf3k_q1_churn", "az_rulebook24")


def counting(owner, name: str, tally: dict) -> None:
    """Count ``owner.name``'s calls into ``tally[name]``."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        tally[name] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, counted)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(READS))
    ap.add_argument("--check", action="store_true",
                    help=f"fail if the walk launched on any of {', '.join(READS)}")
    args = ap.parse_args(argv)
    tally = {"join_rows": 0, "expand_rows": 0}
    counting(frontier, "join_rows", tally)
    counting(frequency_frontier, "expand_rows", tally)
    launched = []
    print(f"{'workload':<16} {'launches':>9} {'by walk':>8} {'calls':>8}   (per batch, smoke size)")
    for name in args.workloads:
        inputs, engine = W.setup(W.WORKLOADS[name], 0, smoke=True)
        for key in tally:
            tally[key] = 0
        calls = count_calls(lambda: [engine.process_batch(b) for b in inputs.batches])
        n = len(inputs.batches)
        print(f"{name:<16} {tally['join_rows'] / n:>9.1f} {tally['expand_rows'] / n:>8.1f} "
              f"{calls / n:>8.1f}")
        if name in READS and tally["expand_rows"]:
            launched.append(name)
    if args.check and launched:
        print(f"FAIL: the walk launched its own joins on {', '.join(launched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
