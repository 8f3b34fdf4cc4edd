"""Launches and Python calls per batch: the two clocks that repeat.

Drives the repo benchmark's workloads (``benchmarks/e2e``'s own set-up,
read-only) at smoke size and prints, per batch on average, the row
program's launches (``join_rows`` calls) and the Python ``call`` events of
``process_batch`` (:func:`repro.testing.count_calls`).  Neither number
moves between runs or machines with the same NumPy, so CI can gate them and
a change can quote them.  By default: the three single-query workloads and
``az_rulebook24``, each on one device and under every configuration of
:data:`VARIANTS`, plus ``sparse_tri_skip``.

A batch expands once — the kernel's joins, in ``process_batch`` ahead of
the placement's ``prepare`` — and everything else reads that expansion: the
frequency walk, every placement's match, a fleet's one settle.  ``--check`` exits non-zero if any row launched
anything outside the kernel's ``matching.expand_rows``, if a configuration's
launches per batch differ from its workload's single-device row, or if a
row of :data:`CALLS` made more Python calls per batch than its bound (the
single-device rows' calls are ``benchmarks/trajectory.py check``'s, exactly).

    PYTHONPATH=src python benchmarks/launch_counts.py [--check] [workload ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads as W  # noqa: E402

import repro.core.frontier as frontier  # noqa: E402
import repro.core.matching as matching  # noqa: E402
from repro.core.engine import GCSMEngine  # noqa: E402
from repro.core.multiquery import MultiQueryEngine  # noqa: E402
from repro.testing import count_calls  # noqa: E402

#: the workloads run under every configuration of :data:`VARIANTS`
WORKLOADS = ("ca_q3_narrow", "fr_q1_mixed", "sf3k_q1_churn", "az_rulebook24")
#: configurations whose launches per batch must equal the single-device row
VARIANTS = {
    "devices=2": {"devices": 2},
    "devices=4": {"devices": 4},
    'prefilter="on"': {"prefilter": "on"},
    'schedule="pipelined"': {"schedule": "pipelined"},
}
#: Python calls per batch a ``(workload, configuration)`` row may make, about
#: 3 % above what it makes (CPython 3.11, NumPy 2.4.6): ``az_rulebook24``
#: under the pre-filter 577.5, and on FR / CA / SF3K / AZ ``devices=2``
#: 443.9 / 494.7 / 445.8 / 530.3 and ``devices=4`` 485.9 / 536.7 / 487.8 /
#: 572.3, with the roots routed in one pass, a launch's log gathered once
#: and the reorganize priced from its op count.  Each
#: workload's single-device calls are gated once, exactly, by
#: ``benchmarks/trajectory.py check`` against the trajectory's last row, so
#: they have no row here.
CALLS = {
    ("az_rulebook24", 'prefilter="on"'): 595,
    ("fr_q1_mixed", "devices=2"): 457,
    ("ca_q3_narrow", "devices=2"): 510,
    ("sf3k_q1_churn", "devices=2"): 459,
    ("az_rulebook24", "devices=2"): 546,
    ("fr_q1_mixed", "devices=4"): 500,
    ("ca_q3_narrow", "devices=4"): 553,
    ("sf3k_q1_churn", "devices=4"): 502,
    ("az_rulebook24", "devices=4"): 589,
}


def counting(owner, name: str, tally: dict) -> None:
    """Count ``owner.name``'s calls into ``tally[name]``."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        tally[name] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, counted)


def per_batch(engine, batches, tally: dict) -> tuple[list, float, float]:
    """``(results, launches, calls)``: ``engine.process_batch`` over
    ``batches``, with the row-program launches (``tally["join_rows"]``, as
    :func:`counting` keeps it) and the Python calls per batch.  ``tally`` is
    zeroed first and holds the run's counts after."""
    for key in tally:
        tally[key] = 0
    results = []
    calls = count_calls(lambda: results.extend(map(engine.process_batch, batches)))
    return results, tally["join_rows"] / len(batches), calls / len(batches)


def variant(w: W.Workload, inputs: W.Inputs, settings: dict):
    """The workload's engine under test with ``settings`` on top."""
    if w.kind == "rulebook":
        return MultiQueryEngine(inputs.graph, inputs.query, seed=0, shared=True, **settings)
    return GCSMEngine(inputs.graph, inputs.query, seed=0, **settings)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=[*WORKLOADS, "sparse_tri_skip"])
    ap.add_argument("--check", action="store_true",
                    help="fail on a launch outside the kernel, on a configuration "
                         "launching more or less than one device, or on calls "
                         "per batch over CALLS")
    args = ap.parse_args(argv)
    tally = {"join_rows": 0, "expand_rows": 0}
    counting(frontier, "join_rows", tally)
    counting(matching, "expand_rows", tally)
    failures = []
    print(f"{'workload':<16} {'configuration':<22} {'launches':>9} {'calls':>8}"
          "   (per batch, smoke size)")
    for name in args.workloads:
        w = W.WORKLOADS[name]
        inputs, engine = W.setup(w, 0, smoke=True)
        rows = [("one device", engine)]
        if name in WORKLOADS:
            rows += [(label, variant(w, inputs, settings)) for label, settings in VARIANTS.items()]
        single = None
        for label, engine in rows:
            _, launches, calls = per_batch(engine, inputs.batches, tally)
            print(f"{name:<16} {label:<22} {launches:>9.1f} {calls:>8.1f}")
            if tally["join_rows"] != tally["expand_rows"]:
                failures.append(f"{name} {label}: {tally['join_rows'] - tally['expand_rows']} "
                                "launches outside the kernel's expand")
            if calls > CALLS.get((name, label), float("inf")):
                failures.append(f"{name} {label}: {calls:.1f} Python calls per batch "
                                f"> {CALLS[name, label]}")
            if single is None:
                single = launches
            elif launches != single:
                failures.append(f"{name} {label}: {launches:.1f} launches per batch, "
                                f"{single:.1f} on one device")
    if args.check:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    return int(args.check and bool(failures))


if __name__ == "__main__":
    sys.exit(main())
