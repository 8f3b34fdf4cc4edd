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
its own — or if a workload of :data:`CALLS` made more Python calls per batch
than its bound.  (``sparse_tri_skip``'s walk launches over a
prefilter-reduced estimate batch; it is not gated.)

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
#: Python calls per batch a workload may make, about 3 % above what the
#: workload makes (CPython 3.11, NumPy 2.4.6): ``fr_q1_mixed`` 929, and
#: ``az_rulebook24`` 1 243, with per-batch work sized by what the batch
#: touches (940 / 1 254 when every batch rebuilt its O(|V|) epoch tables,
#: tallied the walk densely and allocated each counters' histogram; AZ made
#: 1 369 when every batch charged per-query counters)
CALLS = {"fr_q1_mixed": 960, "az_rulebook24": 1_280}


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
                    help=f"fail if the walk launched on any of {', '.join(READS)}, "
                         "or calls per batch exceed CALLS")
    args = ap.parse_args(argv)
    tally = {"join_rows": 0, "expand_rows": 0}
    counting(frontier, "join_rows", tally)
    counting(frequency_frontier, "expand_rows", tally)
    launched, over = [], []
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
        if calls / n > CALLS.get(name, float("inf")):
            over.append(f"{name} ({calls / n:.1f} > {CALLS[name]})")
    if args.check and launched:
        print(f"FAIL: the walk launched its own joins on {', '.join(launched)}", file=sys.stderr)
    if args.check and over:
        print(f"FAIL: Python calls per batch over the bound on {', '.join(over)}",
              file=sys.stderr)
    return int(args.check and bool(launched or over))


if __name__ == "__main__":
    sys.exit(main())
