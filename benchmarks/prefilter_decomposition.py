"""Where a change to ``prefilter_ns`` comes from, batch by batch.

``dump`` drives workloads of the repo benchmark (``benchmarks/e2e``'s own
set-up, read-only) with the pre-filter on and writes, per batch, the six
simulated stage times and the pre-filter's raw charges: its compute ops and
its CPU bytes.  Run it once under each tree (``PYTHONPATH=<tree>/src``).

``check`` compares a dump of one tree with a dump of another, for a change
that claims to move the pre-filter's charges and nothing else: for every
batch the other five stage times must be bit-identical and each tree's
``prefilter_ns`` must be its own charges priced by the cost model
(``simulated_time_ns(platform="cpu")``).  It prints, per workload, how far
the charges and ``prefilter_ns`` moved per batch, and exits non-zero on any
mismatch.

    PYTHONPATH=<tree>/src python benchmarks/prefilter_decomposition.py dump OUT.json
        [--seed N] [workload ...]
    PYTHONPATH=src python benchmarks/prefilter_decomposition.py check BEFORE.json AFTER.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "e2e"))

import workloads as W  # noqa: E402

from repro.core.engine import GCSMEngine  # noqa: E402
from repro.core.multiquery import MultiQueryEngine  # noqa: E402
from repro.gpu.clock import simulated_time_ns  # noqa: E402
from repro.gpu.counters import AccessCounters, Channel  # noqa: E402
from repro.gpu.device import default_device  # noqa: E402

STAGES = ("update_ns", "prefilter_ns", "estimate_ns", "pack_ns", "match_ns", "reorg_ns")
#: the workloads whose engines run the pre-filter (the rulebook turned on here)
PREFILTERED = ("sparse_tri_skip", "az_rulebook24")


def dump(names: list[str], seed: int) -> dict:
    out = {}
    for name in names:
        w = W.WORKLOADS[name]
        inputs, _ = W.setup(w, seed)
        if w.kind == "rulebook":
            engine = MultiQueryEngine(inputs.graph, inputs.query, seed=seed, shared=True,
                                      prefilter="on")
        else:
            engine = GCSMEngine(inputs.graph, inputs.query, seed=seed, prefilter="on")
        index, evaluate = engine.prefilter_index, engine.query_set.evaluate
        apply_batch, charges = index.apply_batch, []

        def applied(batch, apply_batch=apply_batch, charges=charges):
            c = apply_batch(batch)
            charges.append([c.compute_ops, c.bytes_by_channel[Channel.CPU_DRAM]])
            return c

        def evaluated(ix, batch, evaluate=evaluate, charges=charges):
            decision = evaluate(ix, batch)
            charges[-1][0] += decision.counters.compute_ops
            charges[-1][1] += decision.counters.bytes_by_channel[Channel.CPU_DRAM]
            return decision

        index.apply_batch, engine.query_set.evaluate = applied, evaluated
        stages = []
        for batch in inputs.batches:
            b = engine.process_batch(batch).breakdown
            stages.append([float(getattr(b, s)) for s in STAGES])
        out[name] = {"stages": stages, "charges": charges}
    return out


def priced(charges: list[int], device) -> float:
    """``prefilter_ns`` for these charges: the cost model's CPU price."""
    counters = AccessCounters()
    counters.record_compute(charges[0])
    counters.record_access(Channel.CPU_DRAM, 0, charges[1])
    return simulated_time_ns(counters, device, platform="cpu")


def check(before: dict, after: dict) -> list[str]:
    device, bad, pf = default_device(), [], STAGES.index("prefilter_ns")
    for name, old in before.items():
        new = after[name]
        for i, (s0, s1, c0, c1) in enumerate(zip(old["stages"], new["stages"],
                                                 old["charges"], new["charges"])):
            others = [s for k, s in enumerate(STAGES) if k != pf and s0[k] != s1[k]]
            if others:
                bad.append(f"{name} batch {i}: {others} moved")
            for side, stages, charges in (("before", s0, c0), ("after", s1, c1)):
                if stages[pf] != priced(charges, device):
                    bad.append(f"{name} batch {i} {side}: prefilter_ns {stages[pf]} != "
                               f"its charges {charges} priced {priced(charges, device)}")
        n = len(old["stages"])

        def per_batch(rows, k):
            return sum(row[k] for row in rows) / n

        print(f"{name}: {n} batches; sim_batch_us "
              f"{sum(map(sum, old['stages'])) / n / 1e3:.6f} -> "
              f"{sum(map(sum, new['stages'])) / n / 1e3:.6f}; prefilter_ns per batch "
              f"{per_batch(old['stages'], pf):.1f} -> {per_batch(new['stages'], pf):.1f}; "
              f"charges per batch {per_batch(old['charges'], 0):.1f} -> "
              f"{per_batch(new['charges'], 0):.1f} ops, {per_batch(old['charges'], 1):.1f} -> "
              f"{per_batch(new['charges'], 1):.1f} CPU bytes")
    return bad


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("out", type=Path)
    d.add_argument("workloads", nargs="*", default=list(PREFILTERED))
    d.add_argument("--seed", type=int, default=0)
    c = sub.add_parser("check")
    c.add_argument("before", type=Path)
    c.add_argument("after", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        args.out.write_text(json.dumps(dump(args.workloads, args.seed)))
        return 0
    bad = check(json.loads(args.before.read_text()), json.loads(args.after.read_text()))
    for line in bad:
        print(f"FAIL: {line}", file=sys.stderr)
    print("decomposition holds on every batch" if not bad else f"{len(bad)} mismatches")
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
