"""The end-to-end trajectory: one row per measured tree, appended, never rewritten.

``benchmarks/results/BENCH_e2e.json`` holds one row per ``(tree, seed)``
measurement of the repo benchmark (``benchmarks/e2e/run.py``):

* provenance — the sha and seed the runs report, and their NumPy and
  CPython versions.  ``machine_speed`` is null: ``run.py --out`` carries no
  calibration of its own, and a factor of ``benchmarks/e2e/measure.py``
  taken when the row is appended says nothing of the machine's speed while
  the runs ran, so no row records a factor to normalise wall metrics by;
* per workload, the median and the IQR of each end-to-end metric over the
  runs given (with the runs' count and failed operations), and the
  smoke-size values that repeat exactly on one NumPy: ``sim_batch_us`` over
  the workload's ten-batch smoke stream, and the Python calls and
  row-program launches per batch of ``process_batch`` on it
  (``benchmarks/launch_counts.py``'s clocks, by its ``per_batch``).

Subcommands::

    PYTHONPATH=src python benchmarks/trajectory.py append [--label TEXT] [--file PATH] RUN.json...
    PYTHONPATH=src python benchmarks/trajectory.py show METRIC WORKLOAD [--file PATH]
    PYTHONPATH=src python benchmarks/trajectory.py check [--file PATH]

``append`` reads ``run.py --out`` files (one workload or all of them per
file; every file must report the same sha and seed) and measures the
smoke-size values on the tree the script sits in — run the script from the
tree the runs measured.  ``show`` prints one metric's rows in order (an
end-to-end metric, or ``smoke.sim_batch_us`` / ``smoke.calls_per_batch`` /
``smoke.launches_per_batch``).  ``check`` measures the smoke-size values
again, at the last row's seed, and exits 1 unless each equals the last
row's exactly: ``sim_batch_us`` and launches always, calls per batch when
the CPython minor version and the NumPy version are the last row's (a
Python ``call`` event is an interpreter's and a NumPy release's: 3.12
inlines comprehensions, NumPy moves its Python wrappers), else with a
note that they were not compared.  This is the one gate on the
single-device calls per batch; ``launch_counts.py --check`` bounds the
other configurations'.  Wall time and ``peak_rss_mb`` are recorded, never
gated.  The script imports ``benchmarks/e2e/`` read-only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

import workloads as W  # noqa: E402
from launch_counts import counting, per_batch  # noqa: E402

import repro.core.frontier as frontier  # noqa: E402

TRAJECTORY = HERE / "results" / "BENCH_e2e.json"
SMOKE = ("sim_batch_us", "calls_per_batch", "launches_per_batch")


def smoke_values(seed: int) -> dict:
    """Per workload, on its smoke stream at ``seed``: ``sim_batch_us`` and
    the Python calls and row-program launches per batch of ``process_batch``."""
    tally = {"join_rows": 0}
    counting(frontier, "join_rows", tally)
    values = {}
    for name, w in W.WORKLOADS.items():
        inputs, engine = W.setup(w, seed, smoke=True)
        results, launches, calls = per_batch(engine, inputs.batches, tally)
        values[name] = {
            "sim_batch_us": sum(r.breakdown.total_ns for r in results) / len(results) / 1e3,
            "calls_per_batch": calls,
            "launches_per_batch": launches,
        }
    return values


def quartiles(values: list[float]) -> dict:
    """Median and interquartile range (0 for a single run)."""
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr}


def runs_by_workload(paths: list[str]) -> tuple[dict, dict]:
    """``(provenance, {workload: [result, ...]})`` of ``run.py --out`` files;
    one-workload and all-workload files alike."""
    by_workload, seen = {}, set()
    for path in paths:
        doc = json.loads(Path(path).read_text())
        prov = doc["provenance"]
        seen.add((prov["git_sha"], prov["seed"], prov["python"], prov["numpy"]))
        for name, result in doc["results"].items():
            result = result.get("end_to_end", result)  # an all-workload file nests it
            by_workload.setdefault(name, []).append(result)
    if len(seen) != 1:
        raise SystemExit(f"trajectory.py: the runs differ in (sha, seed, python, numpy): {seen}")
    return prov, by_workload


def load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {"schema_version": 1, "rows": []}


def append(args) -> int:
    prov, by_workload = runs_by_workload(args.runs)
    smoke = smoke_values(prov["seed"])
    workloads = {}
    for name, results in sorted(by_workload.items()):
        metrics = {
            metric: quartiles([r["metrics"][metric]["value"] for r in results])
            for metric in results[0]["metrics"]
        }
        workloads[name] = {
            "runs": len(results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": metrics,
            "smoke": smoke[name],
        }
    missing = sorted(set(smoke) - set(workloads))
    for name in missing:  # no runs given: the smoke values still go in
        workloads[name] = {"runs": 0, "smoke": smoke[name]}
    row = {
        "label": args.label, "sha": prov["git_sha"], "seed": prov["seed"],
        "python": prov["python"], "numpy": prov["numpy"], "machine_speed": None,
        "workloads": workloads,
    }
    doc = load(args.file)
    doc["rows"].append(row)
    args.file.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended row {len(doc['rows'])}: {row['label']} {row['sha'][:7]} seed {row['seed']}, "
          f"{sum(w['runs'] for w in workloads.values())} runs"
          + (f" (no runs of {', '.join(missing)})" if missing else ""))
    return 0


def show(args) -> int:
    rows = load(args.file)["rows"]
    smoke = args.metric.startswith("smoke.")
    print(f"{args.metric} on {args.workload}")
    print(f"{'row':>4} {'sha':<8} {'seed':>4} {'runs':>4} {'median':>16} {'iqr':>14}  label")
    for i, row in enumerate(rows, 1):
        w = row["workloads"].get(args.workload)
        if w is None:
            continue
        if smoke:
            median, iqr = w["smoke"][args.metric[len("smoke."):]], ""
        elif args.metric in w.get("end_to_end", {}):
            m = w["end_to_end"][args.metric]
            median, iqr = m["median"], f"{m['iqr']:14.6f}"
        else:
            continue
        print(f"{i:>4} {row['sha'][:7]:<8} {row['seed']:>4} {w['runs']:>4} {median:>16.6f} "
              f"{iqr:>14}  {row['label']}")
    return 0


def minor(version: str) -> str:
    """``"3.11.7"`` -> ``"3.11"``."""
    return ".".join(version.split(".")[:2])


def check(args) -> int:
    rows = load(args.file)["rows"]
    if not rows:
        print("trajectory.py check: no rows", file=sys.stderr)
        return 1
    last = rows[-1]
    now = smoke_values(last["seed"])
    gated = set(SMOKE)
    here = (platform.python_version(), np.__version__)
    if (minor(here[0]), here[1]) != (minor(last["python"]), last["numpy"]):
        gated.discard("calls_per_batch")
        print(f"note: calls per batch not compared: the last row was measured on CPython "
              f"{last['python']} / NumPy {last['numpy']}, this is {here[0]} / {here[1]}")
    failures = []
    print(f"{'workload':<16} {'value':<20} {'last row':>14} {'now':>14}   "
          f"(row {len(rows)}, {last['sha'][:7]}, seed {last['seed']})")
    for name, values in now.items():
        want = last["workloads"].get(name, {}).get("smoke")
        for key in SMOKE:
            recorded = None if want is None else want[key]
            differs = key in gated and values[key] != recorded
            verdict = "  DIFFERS" if differs else "" if key in gated else "  (not compared)"
            print(f"{name:<16} {key:<20} {recorded!s:>14} {values[key]!s:>14}{verdict}")
            if differs:
                failures.append(f"{name} {key}")
    if failures:
        print(f"FAIL: {len(failures)} smoke-size values differ from the last row: "
              + ", ".join(failures), file=sys.stderr)
    return int(bool(failures))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--file", type=Path, default=TRAJECTORY, help="the trajectory JSON")
    sub = ap.add_subparsers(dest="command", required=True)
    a = sub.add_parser("append", parents=[common], help="add one row from run.py --out files")
    a.add_argument("runs", nargs="+", help="run.py --out JSON files of one tree and seed")
    a.add_argument("--label", default="", help="what the row measured")
    s = sub.add_parser("show", parents=[common], help="one metric's rows in order")
    s.add_argument("metric")
    s.add_argument("workload", choices=sorted(W.WORKLOADS))
    sub.add_parser("check", parents=[common], help="smoke-size values equal the last row's")
    args = ap.parse_args(argv)
    return {"append": append, "show": show, "check": check}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
