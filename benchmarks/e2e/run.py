"""End-to-end benchmark of the GCSM reproduction: five streams, two clocks.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out PATH] [--smoke]
    python3 benchmarks/e2e/run.py --repeat-check [--seed N]
    python3 benchmarks/e2e/run.py --regen-golden

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) declared in ``BENCHMARK.json``.  Without it every workload
runs in a child process of its own, one after the other, so ``peak_rss_mb``
is per workload.  The exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import os

# one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = (0, 1)
REPEAT_RUNS = 3


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def load_golden(w, seed: int, smoke: bool):
    """The committed per-batch ΔM vector for this workload and seed, if any."""
    if smoke or seed not in GOLDEN_SEEDS:
        return None
    golden = json.loads(GOLDEN.read_text())
    if golden["sizes"].get(w.name) != [w.batch_size, w.num_batches]:
        raise RuntimeError(f"golden.json is stale for {w.name}; run --regen-golden")
    return golden["deltas"][w.name][str(seed)]


def run_untraced(w, seed: int, seconds: float, smoke: bool) -> dict:
    import measure

    setups, inputs = measure.cold_setups(w, seed, smoke, 1 if smoke else measure.SETUP_REPS)
    runs = [measure.engine_pass(w, inputs, seed, measure.full_record)]
    walls, cals, first = runs[0]
    for _ in range(1, measure.num_passes(sum(walls) + sum(cals), seconds, smoke)):
        runs.append(measure.engine_pass(w, inputs, seed))
    pass_walls = [measure.calibrated(walls, cals) for walls, cals, _ in runs]
    raw_walls = [walls for walls, _, _ in runs]
    all_cals = [c for _, cals, _ in runs for c in cals]
    passes = [records for _, _, records in runs]
    expected = measure.reference_deltas(w, inputs, seed)
    failed = measure.count_failed(passes, first, expected, load_golden(w, seed, smoke))
    samples = measure.batch_samples(pass_walls)
    nonzero = sum(1 for d in expected if (any(d) if isinstance(d, list) else d))
    return {
        "attempted": len(passes) * len(inputs.batches),
        "failed": failed,
        "end_to_end": measure.end_to_end(inputs, setups, samples, first),
        "counts": measure.layer_counts(first),
        "info": {
            "passes": len(passes), "batches": len(samples),
            "updates": sum(len(b) for b in inputs.batches),
            "nonzero_delta_batches": nonzero,
            "skipped_batches": sum(r["batches_skipped"] for r in first if r is not None),
            "machine_speed": measure.machine_speed(all_cals),
            "raw_p50_ms": statistics.median(measure.batch_samples(raw_walls)) * 1e3,
        },
    }


def run_traced(w, seed: int, seconds: float, smoke: bool) -> dict:
    import measure
    import replay
    import workloads as W

    tr = replay.Tracer()
    stage_samples = []
    for _ in range(1 if smoke else measure.SETUP_REPS):
        inputs, engine, stages = replay.staged_setup(w, seed, smoke, tr)
        stage_samples.append(stages)
    setup_stages = {
        name: statistics.median(s[name] for s in stage_samples) for name in stage_samples[0]
    }

    walls, cals, first = measure.engine_pass(w, inputs, seed, measure.full_record)
    replays, pass_cals = [], []
    num = measure.num_passes(sum(walls) + sum(cals), seconds, smoke)
    while len(replays) < num:
        # pass 0 drives the staged set-up's engine, later passes a fresh one
        engine = engine if not replays else W.make_engine(w, inputs, seed)
        gc.collect()
        tr.pass_id = len(replays)
        records, replay_cals = replay.replay_pass(w, inputs, engine, tr)
        replays.append(records)
        pass_cals.append(replay_cals)
    tr.pass_id = None

    expected = measure.reference_deltas(w, inputs, seed)
    failed = measure.count_failed(
        [first] + replays, first, expected, load_golden(w, seed, smoke)
    )
    per_layer = {
        **setup_stages, **measure.layer_counts(first),
        **replay.layer_walls(tr, replays, pass_cals, measure.calibrated(walls, cals)),
        "bench.e2e.machine_speed": measure.machine_speed(
            cals + [c for pc in pass_cals for c in pc]
        ),
    }
    return {
        "attempted": (1 + len(replays)) * len(inputs.batches),
        "failed": failed,
        "per_layer": per_layer,
        "spans": tr.spans,
        "calibration_s": pass_cals,
        "info": {"passes": len(replays), "batches": len(walls),
                 "updates": sum(len(b) for b in inputs.batches)},
    }


def check_names(kind: str, values: dict, declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(names))}, "
            f"missing {sorted(set(names) - set(values))}"
        )
    bad = [n for n in names if not math.isfinite(values[n])]
    if bad:
        raise RuntimeError(f"non-finite {kind} metrics: {bad}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>16.6f} {m['unit']}")


def run_one(args, decl: dict) -> int:
    import workloads as W

    w = W.WORKLOADS[args.workload]
    out = (run_traced if args.trace else run_untraced)(w, args.seed, args.seconds, args.smoke)
    info = out["info"]
    print(f"== {w.name}  seed={args.seed}  K={info['passes']} passes  "
          f"N={info['batches']} batches  {info['updates']} updates"
          f"{'  [smoke]' if args.smoke else ''}")
    if args.trace:
        metrics = check_names("per-layer", out["per_layer"], decl["per_layer"])
        print_metrics("per-layer (traced staged replay + batch results)", metrics)
    else:
        metrics = check_names("end-to-end", out["end_to_end"], decl["end_to_end"])
        print_metrics("end-to-end (untraced)", metrics)
        print(f"  non-zero ΔM in {info['nonzero_delta_batches']} of "
              f"{info['batches'] - info['skipped_batches']} non-skipped batches;  "
              f"machine speed {info['machine_speed']:.3f} x reference, "
              f"uncalibrated p50 {info['raw_p50_ms']:.3f} ms")
        counts = {n: {"value": v, "unit": ""} for n, v in out["counts"].items()}
        print_metrics("per-layer counts and simulated stages (from batch results)", counts)
    share = out["failed"] / out["attempted"]
    print(f"  failed_batch_share  {share:.6f} ({out['failed']}/{out['attempted']})")
    result = {
        "correct": out["failed"] == 0, "attempted": out["attempted"],
        "failed": out["failed"], "metrics": metrics,
    }
    if args.out:
        write_out(args.out, args, {w.name: result}, out.get("spans"),
                  out.get("calibration_s"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# all workloads, one child each
# ----------------------------------------------------------------------
def run_child(name: str, args, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args, decl: dict) -> dict:
    """``{workload: {"end_to_end": result[, "per_layer": result]}}``."""
    results = {}
    for wl in decl["workloads"]:
        results[wl["name"]] = {"end_to_end": run_child(wl["name"], args, 0)}
        if args.trace:
            results[wl["name"]]["per_layer"] = run_child(wl["name"], args, 1)
    return results


def all_correct(results: dict) -> bool:
    return all(r["correct"] for per in results.values() for r in per.values())


def repeat_check(args, decl: dict) -> int:
    """Two sets of ``REPEAT_RUNS`` runs of everything, back to back; the
    second set's median of every end-to-end metric must be within the
    metric's bound of the first's, and no operation may fail.  (A single run
    is an outlier about one time in fifteen on a shared box: a neighbour's
    memory traffic slows the big graphs without slowing the calibration
    kernel.  The median of three shrugs one off, as the driver's median of
    ten does.)"""
    sets = [[run_all(args, decl) for _ in range(REPEAT_RUNS)] for _ in range(2)]
    print(f"== repeat check  seed={args.seed}  median of {REPEAT_RUNS} runs per set")
    print(f"{'workload':<16} {'metric':<18} {'set 1':>14} {'set 2':>14} "
          f"{'diff':>8} {'bound':>6}")
    ok = all(all_correct(run) for runs in sets for run in runs)
    for name in sets[0][0]:
        for m in decl["end_to_end"]:
            try:
                va, vb = (
                    statistics.median(
                        run[name]["end_to_end"]["metrics"][m["name"]]["value"] for run in runs
                    )
                    for runs in sets
                )
            except KeyError:  # a child died before printing its result
                ok = False
                continue
            diff = (vb - va) / va
            verdict = "PASS" if abs(diff) <= m["bound"] else "FAIL"
            ok = ok and verdict == "PASS"
            print(f"{name:<16} {m['name']:<18} {va:>14.4f} {vb:>14.4f} "
                  f"{diff:>+8.2%} {m['bound']:>6.0%}  {verdict}")
        failed, attempted = (
            sum(run[name]["end_to_end"][key] for runs in sets for run in runs)
            for key in ("failed", "attempted")
        )
        print(f"{name:<16} failed_batch_share {failed}/{attempted}")
    print("repeat check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# golden vectors and output files
# ----------------------------------------------------------------------
def regen_golden() -> int:
    """Rewrite golden.json from the reference pass — refused unless the
    engine under test agrees with the reference on every batch."""
    import measure
    import workloads as W

    sizes, deltas = {}, {}
    for w in W.WORKLOADS.values():
        sizes[w.name] = [w.batch_size, w.num_batches]
        deltas[w.name] = {}
        for seed in GOLDEN_SEEDS:
            inputs, _ = W.setup(w, seed)
            _, _, records = measure.engine_pass(w, inputs, seed)
            expected = measure.reference_deltas(w, inputs, seed)
            if measure.count_failed([records], records, expected, None):
                print(f"{w.name} seed {seed}: engine and reference disagree; "
                      "golden.json left untouched", file=sys.stderr)
                return 1
            deltas[w.name][str(seed)] = expected
            print(f"{w.name} seed {seed}: {len(expected)} batches agree")
    body = ",\n".join(
        f'  "{name}": {{\n' + ",\n".join(
            f'    "{seed}": {json.dumps(vec, separators=(",", ":"))}'
            for seed, vec in per_seed.items()
        ) + "\n  }"
        for name, per_seed in deltas.items()
    )
    GOLDEN.write_text(
        '{\n"sizes": ' + json.dumps(sizes) + ',\n"deltas": {\n' + body + "\n}\n}\n"
    )
    return 0


def provenance(args) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown", "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
    }


def write_out(path: str, args, results: dict, spans=None, calibration_s=None) -> None:
    doc = {"provenance": provenance(args), "results": results}
    if spans is not None:
        # raw perf_counter seconds; calibration_s[pass][batch] is the kernel
        # sample taken before that batch (see measure.calibrated)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "batch", "pass"]
        doc["spans"] = spans
        doc["calibration_s"] = calibration_s
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[wl["name"] for wl in decl["workloads"]])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (1 is held out)")
    ap.add_argument("--seconds", type=float, default=decl["run_seconds"],
                    help="time to fill with passes over the stream (never fewer than 3)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: staged replay with spans, per-layer metrics")
    ap.add_argument("--out", help="write results (and spans of a traced workload) as JSON")
    ap.add_argument("--smoke", action="store_true", help="10 batches, one pass, no golden")
    ap.add_argument("--repeat-check", action="store_true")
    ap.add_argument("--regen-golden", action="store_true")
    args = ap.parse_args(argv)

    if args.regen_golden:
        return regen_golden()
    if args.repeat_check:
        return repeat_check(args, decl)
    if args.workload:
        return run_one(args, decl)
    results = run_all(args, decl)
    if args.out:
        write_out(args.out, args, results)
    ok = all_correct(results)
    print(json.dumps({"correct": ok, "workloads": {
        name: {kind: r["metrics"] for kind, r in per.items()}
        for name, per in results.items()
    }}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
