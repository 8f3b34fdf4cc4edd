"""Set-up memory: what building a workload's inputs and engine costs the host.

Drives the repo benchmark's workloads (``benchmarks/e2e``'s own set-up,
read-only) at full size, each in a child process of its own, and prints per
workload:

* the tracemalloc peak over entry of the three set-up phases that allocate
  graph-sized arrays — the dataset build, the stream derivation and the
  engine's construction (the store's pool, its untouched reserve included,
  is most of the last);
* ``ru_maxrss`` at import, after one cold set-up and after a second one
  that overlaps the first (its inputs and engine still live), which is how
  the benchmark's ``peak_rss_mb`` is reached: ``benchmarks/e2e/measure.py``'s
  cold set-ups keep the previous build alive while the next one runs.

The tracemalloc peaks do not move between runs with the same NumPy; the
resident set moves by a few MB.  ``--check`` exits non-zero if a figure
exceeds its bound by more than 10 %: every workload's resident set at import
(:data:`IMPORT`), the phase peaks and the resident growth over import of
``fr_q1_mixed``, ``sf3k_q1_churn`` and ``ca_q3_narrow``, and the engine
construction peak and resident growth of ``sparse_tri_skip`` (:data:`BOUNDS`).

    PYTHONPATH=src python benchmarks/setup_memory.py [--check] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads as W  # noqa: E402

MB = 1e6
#: the set-up phases whose tracemalloc peak is reported, by their span name
PHASES = {"build": "graphs.datasets.build", "derive": "graphs.stream.derive",
          "init": "core.engine.init"}
#: the figures ``--check`` holds, in MB: phase peaks and ``ru_maxrss`` growth
#: from import to after two overlapping set-ups (CPython 3.11, NumPy 2.4.6,
#: x86_64 Linux).  While the builders still materialised graph-sized
#: temporaries they read build 83.5 / 58.7, derive 63.9 / 44.8, init 80.8 /
#: 57.2 and growth 114.9 / 91.1 on SF3K / FR; while the road lattice was a
#: per-cell loop and ``without_edges`` rebuilt ``G_0`` from its keys, CA read
#: build 10.6, derive 2.7 and growth 20.0, and the derive peaks of SF3K / FR
#: were 16.5 / 12.3; while the store's slab held 8-byte entries, init read
#: 67.8 / 48.4 / 8.9 / 66.9 on SF3K / FR / CA / sparse and growth 66.7 / 52.4
#: on SF3K / FR; while every window was pre-allocated at twice its list's
#: degree, init read 37.0 / 27.2 / 5.6 / 45.6 and growth 52.5-53.1 /
#: 40.0-43.3; while the pre-filter index was built from a whole edge list,
#: sparse read init 35.0 and growth 58.7-60.5 (``benchmarks/results/
#: setup_memory.txt``).  CA's growth once read 13.3 or 16.8 from run to run;
#: fourteen runs since read 8.7-8.9, and its bound is the highest, as is
#: sparse's growth (55.9-57.7 over seven runs).
BOUNDS = {
    "sf3k_q1_churn": {"build": 23.1, "derive": 14.5, "init": 18.6, "growth": 46.8},
    "fr_q1_mixed": {"build": 16.6, "derive": 10.1, "init": 14.1, "growth": 35.7},
    "ca_q3_narrow": {"build": 2.5, "derive": 2.0, "init": 3.2, "growth": 8.9},
    "sparse_tri_skip": {"init": 13.6, "growth": 57.7},
}
#: ``ru_maxrss`` at import, in MB, held for every workload: the program and
#: ``numpy.random`` (which loads ``secrets`` / ``hashlib`` / OpenSSL, and
#: which every set-up's first draw imports).  It read 51.3 to 51.8 while the query
#: layer loaded networkx.  Measured on CPython 3.11.7 / NumPy 2.4.6 only; the
#: resident set at import depends on both, and other versions are unmeasured.
IMPORT = 37.2
SLACK = 1.10


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(name: str, seed: int) -> dict:
    """One workload, in this process: resident set first, then the traced
    phases (tracemalloc's own bookkeeping must not reach ``ru_maxrss``)."""
    w = W.WORKLOADS[name]
    import numpy.random  # noqa: F401  (loaded by set-up's first draw; growth is set-up's own)

    row = {"import": rss_mb()}
    first = W.setup(w, seed)
    row["one"] = rss_mb()
    second = W.setup(w, seed)  # overlaps the first, as the benchmark's set-ups do
    row["two"] = rss_mb()
    del first, second
    peaks = {}

    @contextmanager
    def span(phase: str):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        yield
        peaks[phase] = (tracemalloc.get_traced_memory()[1] - entry) / MB

    tracemalloc.start()
    W.setup(w, seed, span=span)
    tracemalloc.stop()
    row.update({phase: peaks[span_name] for phase, span_name in PHASES.items()})
    row["growth"] = row["two"] - row["import"]
    return row


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--check", action="store_true",
                    help=f"fail if a figure exceeds BOUNDS by more than {SLACK - 1:.0%}")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.seed)))
        return 0
    failures = []
    print(f"{'workload':<16} {'build':>7} {'derive':>7} {'init':>7}   "
          f"{'import':>7} {'one':>7} {'two':>7} {'growth':>7}")
    print(f"{'':<16} {'tracemalloc peak, MB':>23}   {'ru_maxrss, MB':>31}")
    for name in args.workloads:
        child = subprocess.run(
            [sys.executable, __file__, "--child", name, "--seed", str(args.seed)],
            check=True, capture_output=True, text=True,
        )
        row = json.loads(child.stdout.splitlines()[-1])
        print(f"{name:<16} {row['build']:>7.1f} {row['derive']:>7.1f} {row['init']:>7.1f}   "
              f"{row['import']:>7.1f} {row['one']:>7.1f} {row['two']:>7.1f} "
              f"{row['growth']:>7.1f}", flush=True)
        if row["import"] > SLACK * IMPORT:
            failures.append(f"{name}: import {row['import']:.1f} MB > {SLACK} x {IMPORT} MB")
        for metric, bound in BOUNDS.get(name, {}).items():
            if row[metric] > SLACK * bound:
                failures.append(f"{name}: {metric} {row[metric]:.1f} MB > {SLACK} x {bound} MB")
    if args.check:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    return int(args.check and bool(failures))


if __name__ == "__main__":
    sys.exit(main())
