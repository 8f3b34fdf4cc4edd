"""What the pre-filter costs and saves: prefilter on ÷ off, on both clocks.

Drives every repo-benchmark workload's inputs (``benchmarks/e2e``'s own
set-up, read-only) through two engines that differ only in ``prefilter=``
(a single query on the default GCSM engine, the rulebook on the shared
trie) and prints per workload, on and off and their ratio:

* ``sim_batch_us`` — simulated time per batch (the same on every pass);
* wall ms per batch, calibrated to reference machine speed as the repo
  benchmark calibrates it: per pass the mean over the stream, then the
  median and IQR over five passes, each on a fresh engine, the on and off
  passes alternating;
* Python calls per batch (:func:`repro.testing.count_calls`, one pass);
* ``updates_per_s`` with the pre-filter on (the median pass).

The table is teed into ``benchmarks/results/prefilter_cost.txt`` below its
``== latest run`` line, headed by the tree's commit, the seed, the NumPy
version and the command; ``--json`` also writes the per-pass samples.

    PYTHONPATH=src python benchmarks/prefilter_cost.py [--seed N] [--json PATH]
        [workload ...]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import measure  # noqa: E402
import numpy as np  # noqa: E402
import workloads as W  # noqa: E402
from conftest import RESULTS_DIR, provenance, write_table  # noqa: E402

from repro.core.engine import GCSMEngine  # noqa: E402
from repro.core.multiquery import MultiQueryEngine  # noqa: E402
from repro.testing import count_calls  # noqa: E402

SETTINGS = ("on", "off")
#: timed passes per setting
PASSES = 5


def engine(w: W.Workload, inputs: W.Inputs, seed: int, prefilter: str):
    """The workload's engine with ``prefilter`` and nothing else changed."""
    if w.kind == "rulebook":
        return MultiQueryEngine(inputs.graph, inputs.query, seed=seed, shared=True,
                                prefilter=prefilter)
    return GCSMEngine(inputs.graph, inputs.query, seed=seed, prefilter=prefilter)


def timed_pass(w, inputs, seed, prefilter) -> tuple[float, float]:
    """One pass on a fresh engine: calibrated wall seconds over the stream
    and the mean simulated µs per batch."""
    e = engine(w, inputs, seed, prefilter)
    gc.collect()
    walls, cals, sim = [], [], 0.0
    for batch in inputs.batches:
        cals.append(measure.calibration_sample())
        t0 = time.perf_counter()
        result = e.process_batch(batch)
        walls.append(time.perf_counter() - t0)
        sim += result.breakdown.total_ns
    return sum(measure.calibrated(walls, cals)), sim / len(inputs.batches) / 1e3


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def measure_workload(name: str, seed: int) -> dict:
    w = W.WORKLOADS[name]
    inputs, _ = W.setup(w, seed)
    n = len(inputs.batches)
    updates = sum(len(b) for b in inputs.batches)
    row = {"workload": name, "batches": n, "updates": updates}
    for setting in SETTINGS:
        e = engine(w, inputs, seed, setting)
        row[f"calls_{setting}"] = count_calls(
            lambda e=e: [e.process_batch(b) for b in inputs.batches]) / n
    walls = {setting: [] for setting in SETTINGS}
    for _ in range(PASSES):
        for setting in SETTINGS:
            wall, sim = timed_pass(w, inputs, seed, setting)
            walls[setting].append(wall)
            row[f"sim_us_{setting}"] = sim
    for setting in SETTINGS:
        per_batch = [wall / n * 1e3 for wall in walls[setting]]
        row[f"wall_ms_{setting}"] = statistics.median(per_batch)
        row[f"wall_iqr_{setting}"] = quartiles(per_batch)
        row[f"passes_{setting}"] = per_batch
    row["updates_per_s_on"] = updates / statistics.median(walls["on"])
    return row


def table(rows: list[dict], header: str) -> str:
    lines = [header, "",
             f"{'workload':<16} {'sim_batch_us on/off':>22} {'ratio':>6}   "
             f"{'wall ms/batch on [IQR] / off [IQR]':>44} {'ratio':>6}   "
             f"{'calls/batch on/off':>18} {'ratio':>6}   {'updates/s on':>12}"]
    for r in rows:
        (a, b), (c, d) = r["wall_iqr_on"], r["wall_iqr_off"]
        lines.append(
            f"{r['workload']:<16} {r['sim_us_on']:>10.3f} /{r['sim_us_off']:>10.3f} "
            f"{r['sim_us_on'] / r['sim_us_off']:>6.3f}   "
            f"{r['wall_ms_on']:>7.3f} [{a:.3f}, {b:.3f}] / {r['wall_ms_off']:>7.3f} "
            f"[{c:.3f}, {d:.3f}] {r['wall_ms_on'] / r['wall_ms_off']:>6.3f}   "
            f"{r['calls_on']:>8.1f} /{r['calls_off']:>8.1f} "
            f"{r['calls_on'] / r['calls_off']:>6.3f}   {r['updates_per_s_on']:>12.0f}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", type=Path, help="also write the rows, per-pass samples included")
    args = ap.parse_args(argv)
    rows = [measure_workload(name, args.seed) for name in args.workloads]
    details = (f"seed {args.seed}, {PASSES} passes, full size, "
               f"NumPy {np.__version__}, CPython {platform.python_version()}")
    out = table(rows, provenance("prefilter_cost.py", details))
    print(out, end="")
    write_table(RESULTS_DIR / "prefilter_cost.txt", out)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
