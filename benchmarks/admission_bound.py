"""How much a perfect cache-admission rule could still save, per workload.

Drives the repo benchmark's workloads (``benchmarks/e2e``'s own set-up,
read-only) at full size through their default engines.  Every batch's
matching-kernel counters give the exact per-vertex access count ``C_v`` and
bytes read; from them, per batch:

* a vertex left uncached costs its zero-copy lines, ``C_v`` reads of
  ``ceil(bytes_v / C_v / 128)`` lines each at ``zero_copy_time_ns(1)``;
* admitting it costs packing and shipping its list of (mean read) length
  ``L``: ``(L + 1) / cpu_compute_ops_per_ns + (L + 3) * 4 /
  dma_bandwidth_bpns``, plus ``dma_setup_ns`` once if anything ships;
* the oracle is the cheaper of shipping nothing and shipping exactly the
  vertices whose admission costs less than their zero-copy lines;
* the bound is GCSM's own pack time plus zero-copy stall minus the oracle.

The table reports the bound as a share of ``sim_batch_us`` (sums over the
stream), the share of the zero-copy mass (every accessed list priced
uncached) that GCSM's cache held, and the share on the batch's endpoints
(in parentheses: the part of it left uncached).  Simulated numbers only:
the output repeats exactly.  It is teed into
``benchmarks/results/admission_bound.txt`` below its ``== latest run``
line, headed by the tree's commit, the seed, the NumPy version and the
command.

    PYTHONPATH=src python benchmarks/admission_bound.py [--seed N] [workload ...]
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import numpy as np  # noqa: E402
import workloads as W  # noqa: E402
from conftest import RESULTS_DIR, provenance, write_table  # noqa: E402

from repro.gpu.counters import Channel  # noqa: E402
from repro.utils import contains_sorted, sorted_unique  # noqa: E402

WORKLOADS = ("ca_q3_narrow", "fr_q1_mixed", "sf3k_q1_churn", "az_rulebook24")
#: the bound row of ROADMAP item 4's table (%, seed 0), measured before this
#: script existed; the table names any workload that no longer reads so
ROADMAP_BOUND = {"ca_q3_narrow": 8.5, "fr_q1_mixed": 13.6, "sf3k_q1_churn": 16.3,
                 "az_rulebook24": 20.8}


def measure_workload(name: str, seed: int) -> dict:
    w = W.WORKLOADS[name]
    inputs, engine = W.setup(w, seed)
    d = engine.device
    row = dict.fromkeys(("sim", "gcsm", "oracle", "mass", "cached", "ends", "ends_out"), 0.0)
    for batch in inputs.batches:
        result = engine.process_batch(batch)
        counters = result.match_counters
        count = counters.vertex_access_counts()
        v = np.flatnonzero(count)
        c, nbytes = count[v], counters.vertex_access_bytes()[v]
        zero_copy = d.zero_copy_time_ns(1) * c * np.ceil(nbytes / c / d.zero_copy_line_bytes)
        length = nbytes / c / 4
        admit = (length + 1) / d.cpu_compute_ops_per_ns + (length + 3) * 4 / d.dma_bandwidth_bpns
        gain = np.maximum(zero_copy - admit, 0.0).sum()
        ship = zero_copy.sum() - gain + (d.dma_setup_ns if gain > 0 else 0.0)
        stall = d.zero_copy_time_ns(counters.transactions_by_channel[Channel.ZERO_COPY])
        cached = contains_sorted(sorted_unique(result.cached_vertices), v)
        ends = contains_sorted(sorted_unique(batch.edges), v)
        row["sim"] += result.breakdown.total_ns
        row["gcsm"] += result.breakdown.pack_ns + stall
        row["oracle"] += min(zero_copy.sum(), ship)
        row["mass"] += zero_copy.sum()
        row["cached"] += zero_copy[cached].sum()
        row["ends"] += zero_copy[ends].sum()
        row["ends_out"] += zero_copy[ends & ~cached].sum()
    n = len(inputs.batches)
    return {
        "workload": name, "batches": n, "sim_us": row["sim"] / n / 1e3,
        "gcsm_us": row["gcsm"] / n / 1e3, "oracle_us": row["oracle"] / n / 1e3,
        "bound_pct": 100 * (row["gcsm"] - row["oracle"]) / row["sim"],
        "cached_share": row["cached"] / row["mass"], "ends_share": row["ends"] / row["mass"],
        "ends_out_share": row["ends_out"] / row["mass"],
    }


def table(rows: list[dict], header: str) -> str:
    lines = [header, "",
             f"{'workload':<16} {'batches':>7} {'sim_batch_us':>12} {'GCSM pack+ZC us':>15} "
             f"{'oracle us':>9} {'bound %':>7} {'ROADMAP %':>9}   {'cached ZC share':>15} "
             f"{'endpoints (uncached)':>20}"]
    differ = []
    for r in rows:
        bound = f"{r['bound_pct']:.1f}"
        roadmap = ROADMAP_BOUND.get(r["workload"])
        if roadmap is not None and bound != f"{roadmap:.1f}":
            differ.append(f"{r['workload']} reads {bound} % ({r['bound_pct']:.3f} before "
                          f"rounding) against {roadmap:.1f} %")
        lines.append(
            f"{r['workload']:<16} {r['batches']:>7} {r['sim_us']:>12.3f} {r['gcsm_us']:>15.3f} "
            f"{r['oracle_us']:>9.3f} {bound:>7} "
            f"{'-' if roadmap is None else f'{roadmap:.1f}':>9}   {r['cached_share']:>15.2f} "
            f"{r['ends_share']:>11.2f} ({r['ends_out_share']:.3f})")
    lines += ["", "bound row against ROADMAP item 4: "
              + ("; ".join(differ) if differ else "every listed workload reads the same")]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rows = [measure_workload(name, args.seed) for name in args.workloads]
    details = (f"seed {args.seed}, full size, "
               f"NumPy {np.__version__}, CPython {platform.python_version()}")
    out = table(rows, provenance("admission_bound.py", details))
    print(out, end="")
    write_table(RESULTS_DIR / "admission_bound.txt", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
