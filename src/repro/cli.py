"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-datasets``
    Table I analogs with live statistics.
``list-queries``
    The Fig. 7 catalog.
``run``
    Run one system on one (dataset, query) workload; optionally export the
    record as JSON.
``compare``
    Run several systems on the same workload and print a speedup summary.
``figure``
    Regenerate one of the paper's tables/figures (or ``all``).
``matrix``
    Expand and run a declarative scenario matrix (``repro.bench.matrix``),
    persist its trajectory, and optionally gate it against a baseline.
``verify``
    Cross-check every system's ΔM (optionally against the brute-force
    oracle) or fuzz adversarial streams; the one production caller of
    :mod:`repro.testing`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.bench import figures
from repro.bench.harness import build_workload, print_table, run_stream, summarize
from repro.core.baselines import SYSTEM_NAMES, VsgmCapacityError
from repro.core.multiquery import Rulebook
from repro.gpu.device import INTERCONNECTS, ClusterConfig
from repro.graphs import datasets
from repro.graphs.stream import CONFLICT_MODES, DEFAULT_CONFLICT_MODE
from repro.query import QUERIES, QUERY_ORDER, query_by_name
from repro.query.catalog import load_rulebook
from repro.utils import format_bytes, format_time_ns, require

__all__ = ["main", "build_parser"]

FIGURE_RUNNERS = {
    "table1": lambda: figures.table1_datasets(),
    "fig7": lambda: figures.fig7_queries(),
    "fig8": lambda: figures.fig8_to_10_exec_time("FR"),
    "fig9": lambda: figures.fig8_to_10_exec_time("SF3K"),
    "fig10": lambda: figures.fig8_to_10_exec_time("SF10K"),
    "fig11": lambda: figures.fig11_roadnet_motifs(),
    "fig12": lambda: figures.fig12_batch_size_sweep(),
    "fig13": lambda: figures.fig13_vsgm_breakdown(),
    "fig14": lambda: figures.fig14_rapidflow(),
    "fig15": lambda: figures.fig15_locality(),
    "table2": lambda: figures.table2_overhead(),
    "table3": lambda: figures.table3_reorg_time(),
    "um": lambda: figures.um_slowdown(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GCSM reproduction: continuous subgraph matching on a "
        "simulated CPU-GPU system (IPDPS 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="Table I analogs with statistics")
    sub.add_parser("list-queries", help="the Fig. 7 query catalog")

    run_p = sub.add_parser("run", help="run one system on one workload")
    run_p.add_argument("--system", default="GCSM", choices=SYSTEM_NAMES)
    run_p.add_argument("--dataset", default="FR", choices=datasets.TABLE1_ORDER)
    run_p.add_argument("--query", default="Q1", choices=QUERY_ORDER)
    run_p.add_argument("--rulebook", default=None, metavar="SPEC",
                       help="match a whole rulebook instead of --query: a "
                            "file (JSON or one entry per line) or an inline "
                            "comma list of catalog entries (Q1..Q6, "
                            "motifs:K, motifs:A-B); matched with shared trie "
                            "execution on any --system but RapidFlow, and on "
                            "--devices fleets")
    run_p.add_argument("--no-shared", dest="shared", action="store_false",
                       help="with --rulebook: per-query independent "
                            "execution instead of the shared trie (the "
                            "parity/ablation baseline)")
    run_p.add_argument("--batch-size", type=int, default=None)
    run_p.add_argument("--batches", type=int, default=1)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--devices", type=int, default=None, metavar="N",
                       help="simulate an N-GPU fleet (cached-placement systems: "
                            "GCSM, Pipelined, Naive; N=1 is the single-GPU "
                            "engine itself)")
    run_p.add_argument("--interconnect", default="nvlink",
                       choices=sorted(INTERCONNECTS),
                       help="peer-link cost preset for --devices (default: nvlink)")
    run_p.add_argument("--conflict-mode", default=None, choices=CONFLICT_MODES,
                       help="update-conflict policy for duplicate inserts / "
                            "phantom deletes / same-batch churn: strict "
                            "(raise), coalesce (last-occurrence-wins netting; "
                            "engine default), ignore (first-occurrence wins)")
    run_p.add_argument("--prefilter", default=None, choices=["on", "off"],
                       help="aggregate-invariant pre-filter: certify ΔM = 0 "
                            "batches/roots and skip estimation, packing, and "
                            "the kernel before they run (default: off)")
    run_p.add_argument("--json", metavar="PATH", default=None,
                       help="export the record as JSON")

    cmp_p = sub.add_parser("compare", help="run several systems, summarize speedups")
    cmp_p.add_argument("--systems", default="GCSM,ZC,CPU",
                       help="comma-separated system names")
    cmp_p.add_argument("--dataset", default="FR", choices=datasets.TABLE1_ORDER)
    cmp_p.add_argument("--query", default="Q1", choices=QUERY_ORDER)
    cmp_p.add_argument("--batch-size", type=int, default=None)
    cmp_p.add_argument("--batches", type=int, default=1)
    cmp_p.add_argument("--seed", type=int, default=0)

    fig_p = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig_p.add_argument("name", choices=list(FIGURE_RUNNERS) + ["all"])

    srv_p = sub.add_parser(
        "serve",
        help="multi-tenant continuous-ingest service run with SLO report",
    )
    srv_p.add_argument("--tenants", type=int, default=3, metavar="N",
                       help="number of tenant streams (default: 3)")
    srv_p.add_argument("--batches", type=int, default=8,
                       help="batches per tenant stream (default: 8)")
    srv_p.add_argument("--batch-size", type=int, default=16)
    srv_p.add_argument("--rate", type=float, default=50.0, metavar="R",
                       help="per-tenant arrival rate in batches/simulated-sec")
    srv_p.add_argument("--arrival", default="poisson",
                       choices=["poisson", "bursty", "closed"],
                       help="arrival process: open-loop poisson/bursty or "
                            "closed-loop (next batch after completion + think)")
    srv_p.add_argument("--burst", type=int, default=4,
                       help="burst size for --arrival bursty (default: 4)")
    srv_p.add_argument("--devices", type=int, default=1,
                       help="device fleet size (default: 1)")
    srv_p.add_argument("--queue-capacity", type=int, default=8,
                       help="per-tenant ingest queue bound (default: 8)")
    srv_p.add_argument("--scheduler", default="fair",
                       choices=["fair", "priority"],
                       help="device scheduler across ready tenants")
    srv_p.add_argument("--admission", default="reject",
                       choices=["reject", "shed-oldest", "backpressure"],
                       help="policy when a tenant queue is full")
    srv_p.add_argument("--no-pipeline", dest="pipeline", action="store_false",
                       help="serial per-batch engines instead of the "
                            "pipelined (overlapped) engine")
    srv_p.add_argument("--prefilter", default=None, choices=["on", "off"],
                       help="enable the aggregate-invariant pre-filter on "
                            "every tenant engine (default: off)")
    srv_p.add_argument("--seed", type=int, default=0)
    srv_p.add_argument("--json", metavar="PATH", default=None,
                       help="persist the machine-readable service report")
    srv_p.add_argument("--report", action="store_true",
                       help="pretty-print the per-tenant SLO table")
    srv_p.add_argument("--max-shed", type=float, default=None, metavar="F",
                       help="exit non-zero if any tenant's shed rate exceeds "
                            "F (scriptable SLO gate for CI)")

    mtx_p = sub.add_parser(
        "matrix",
        help="run a declarative scenario matrix and gate it against a baseline",
    )
    mtx_p.add_argument("--spec", required=True, metavar="PATH",
                       help="JSON scenario spec (see docs/experiments.md)")
    mtx_p.add_argument("--filter", action="append", default=[],
                       metavar="FACTOR=VALUE", dest="filters",
                       help="restrict the run table to cells whose factor "
                            "matches (repeatable); '-' matches unset, e.g. "
                            "--filter devices=-")
    mtx_p.add_argument("--sample", type=float, default=None, metavar="F",
                       help="override the spec's deterministic sampling "
                            "fraction (0 < F <= 1)")
    mtx_p.add_argument("--list", action="store_true", dest="list_cells",
                       help="print the expanded run table (and pruned cells) "
                            "without executing")
    mtx_p.add_argument("--out", metavar="PATH", default=None,
                       help="persist the trajectory JSON (BENCH_matrix.json)")
    mtx_p.add_argument("--baseline", metavar="PATH", default=None,
                       help="diff the fresh trajectory against this committed "
                            "baseline and exit non-zero on regression")
    mtx_p.add_argument("--max-regress", type=float, default=20.0, metavar="PCT",
                       help="tolerated relative growth of gated metrics "
                            "(default: 20)")

    ver_p = sub.add_parser(
        "verify",
        help="cross-check that all systems agree on ΔM (optionally vs the oracle)",
        description="Cross-check that all systems agree on ΔM, batch by batch. "
                    "The default workload, AZ x Q2 in two batches of 256, "
                    "changes the match count in both batches (ΔM +5, +8 at "
                    "seed 0), so the default run compares real matches; the "
                    "oracle recount on it takes about a second.",
    )
    ver_p.add_argument("--systems", default="GCSM,ZC,UM,Naive,CPU")
    ver_p.add_argument("--dataset", default="AZ", choices=datasets.TABLE1_ORDER)
    ver_p.add_argument("--query", default="Q2", choices=QUERY_ORDER)
    ver_p.add_argument("--batch-size", type=int, default=256)
    ver_p.add_argument("--batches", type=int, default=2)
    ver_p.add_argument("--oracle", action="store_true",
                       help="also recount from scratch (small graphs only)")
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("--fuzz", type=int, default=None, metavar="N",
                       help="differential stream fuzzing: replay N adversarial "
                            "update streams (duplicates, phantom deletes, "
                            "churn, double deletes, new-vertex bursts, "
                            "flapping) through every system with the oracle "
                            "and store-invariant checks enabled")
    ver_p.add_argument("--conflict-mode", default=None, choices=CONFLICT_MODES,
                       help="update-conflict policy to force on every system "
                            "(fuzz default: coalesce)")
    return parser


def _cmd_list_datasets() -> int:
    rows = []
    for r in datasets.table1_rows():
        rows.append([
            r["graph"], r["vertices"], r["edges"], r["max_degree"],
            format_bytes(int(r["size_bytes"])),
            "yes" if r["fits_buffer"] else "no",
        ])
    print_table("datasets (Table I analogs)",
                ["graph", "vertices", "edges", "max deg", "size", "fits buffer"],
                rows)
    return 0


def _cmd_list_queries() -> int:
    rows = []
    for name in QUERY_ORDER:
        q = QUERIES[name]
        rows.append([name, q.num_vertices, q.num_edges, q.diameter(),
                     " ".join(map(str, q.labels))])
    print_table("queries (Fig. 7 catalog)",
                ["query", "vertices", "edges", "diameter", "labels"], rows)
    return 0


def _engine_settings(args: argparse.Namespace) -> dict:
    """The engine settings ``run`` passes through only when given."""
    settings = {"conflict_mode": args.conflict_mode, "prefilter": args.prefilter}
    return {k: v for k, v in settings.items() if v is not None}


def _print_run(result, args: argparse.Namespace) -> None:
    """The ``run`` report (single query, fleet, or rulebook) + JSON export."""
    bd = result.breakdown
    print(result.describe())
    if result.rulebook_size:
        print(f"  rulebook          : {result.rulebook_size} queries, "
              f"shared={result.shared}")
    print(f"  ΔM total          : {result.delta_total:+d}")
    print(f"  embeddings emitted: {result.embeddings_total}")
    print(f"  per-batch phases  : update {format_time_ns(bd.update_ns)}, "
          f"FE {format_time_ns(bd.estimate_ns)}, DC {format_time_ns(bd.pack_ns)}, "
          f"match {format_time_ns(bd.match_ns)}, reorg {format_time_ns(bd.reorg_ns)}")
    if result.cache_hit_rate is not None:
        print(f"  cache hit rate    : {result.cache_hit_rate:.2f} "
              f"({format_bytes(result.cache_bytes)} cached)")
    _print_prefilter(result)
    if result.num_devices > 1:
        _print_fleet(result, args.interconnect)
    if args.json:
        Path(args.json).write_text(json.dumps([result.to_dict()], indent=2))
        print(f"  record written to {args.json}")


def _print_prefilter(result) -> None:
    """Skip-rate summary line for prefiltered runs (run + rulebook)."""
    if result.prefilter is None:
        return
    line = (f"  prefilter         : {result.batches_skipped}/"
            f"{result.num_batches} batches skipped "
            f"({result.batch_skip_rate:.0%}), "
            f"{result.roots_skipped} roots masked")
    if result.rulebook_size:
        line += f", {result.queries_skipped} query-batches skipped"
    print(line)


def _cmd_run(args: argparse.Namespace) -> int:
    extra: dict = {}
    if args.devices is not None:
        try:
            extra["devices"] = ClusterConfig(
                num_devices=args.devices, interconnect=args.interconnect
            )
        except ValueError as exc:
            print(f"repro run: error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.rulebook is not None:
            query = Rulebook(load_rulebook(args.rulebook), shared=args.shared)
        else:
            query = query_by_name(args.query)
        result = run_stream(
            args.system, args.dataset, query,
            batch_size=args.batch_size, num_batches=args.batches, seed=args.seed,
            **extra, **_engine_settings(args),
        )
    except (KeyError, ValueError, VsgmCapacityError) as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    _print_run(result, args)
    return 0


def _print_fleet(result, interconnect: str) -> None:
    last = result.load_balance[-1] if result.load_balance else {}
    print(f"  fleet             : {result.num_devices} devices "
          f"({interconnect}), vertices owned by hash")
    print(f"  comm              : peer {format_bytes(result.peer_bytes)}, "
          f"all-reduce {format_time_ns(result.allreduce_ns)}")
    if result.imbalance is not None:
        straggler = last.get("straggler")
        tail = (f"(last batch straggler: shard {straggler})"
                if straggler is not None else "(idle fleet: no straggler)")
        print(f"  load balance      : mean imbalance {result.imbalance:.2f} "
              f"{tail}")


def _cmd_compare(args: argparse.Namespace) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    runs = []
    rows = []
    for system in systems:
        try:
            result = run_stream(
                system, args.dataset, query_by_name(args.query),
                batch_size=args.batch_size, num_batches=args.batches, seed=args.seed,
            )
        except (KeyError, ValueError, VsgmCapacityError) as exc:
            print(f"repro compare: error: {exc}", file=sys.stderr)
            return 2
        runs.append(result)
        rows.append([system, result.total_ms, result.match_ms,
                     result.cpu_access_bytes, result.delta_total])
    print_table(
        f"compare on {args.dataset}/{args.query}",
        ["system", "total ms", "match ms", "CPU access B", "ΔM"], rows,
    )
    baseline = systems[-1]
    for system in systems[:-1]:
        print(summarize(runs, system, baseline).describe())
    return 0


def _cmd_figure(name: str) -> int:
    if name == "all":
        for key, runner in FIGURE_RUNNERS.items():
            print(f"\n### {key}")
            runner()
        return 0
    FIGURE_RUNNERS[name]()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_service

    engine_kwargs = (
        {"prefilter": args.prefilter} if args.prefilter is not None else None
    )
    try:
        report = run_service(
            args.tenants,
            num_batches=args.batches, batch_size=args.batch_size,
            rate_per_sec=args.rate, arrival=args.arrival, burst=args.burst,
            num_devices=args.devices, queue_capacity=args.queue_capacity,
            scheduler=args.scheduler, admission=args.admission,
            pipeline=args.pipeline, seed=args.seed, json_path=args.json,
            engine_kwargs=engine_kwargs,
        )
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"service: {args.tenants} tenants x {args.batches} batches on "
        f"{report.num_devices} device(s), scheduler={report.scheduler}, "
        f"admission={report.admission}, pipeline={report.pipeline}"
    )
    print(f"  completed         : {report.completed} batches "
          f"({report.total_edges} edge updates)")
    print(f"  makespan          : {format_time_ns(report.makespan_ns)} simulated "
          f"({report.wall_clock_s:.3f} s wall)")
    print(f"  sustained         : {report.sustained_edges_per_sec:,.0f} edges/sec")
    if report.schedule:
        print(f"  pipeline overlap  : {format_time_ns(report.schedule['overlap_ns'])} "
              f"hidden, schedule speedup {report.schedule['speedup']:.2f}x")
    if args.json:
        print(f"  report written to {args.json}")
    if args.report:
        from repro.service.metrics import ServiceReport

        print_table("per-tenant SLOs", ServiceReport.SLO_HEADER, report.slo_rows())
    if args.max_shed is not None and report.max_shed_rate > args.max_shed:
        offenders = [
            f"{t['name']} ({t['shed_rate']:.3f})"
            for t in report.tenants if t["shed_rate"] > args.max_shed
        ]
        print(f"SLO VIOLATION: shed rate above {args.max_shed}: "
              f"{', '.join(offenders)}", file=sys.stderr)
        return 1
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.bench import matrix

    try:
        spec = matrix.ScenarioSpec.from_json(args.spec)
    except (OSError, KeyError, ValueError) as exc:
        print(f"repro matrix: bad spec {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    filters: dict[str, str] = {}
    for item in args.filters:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(f"bad --filter {item!r}: expected FACTOR=VALUE", file=sys.stderr)
            return 2
        filters[key] = value
    try:
        if args.list_cells:
            cells, pruned = matrix.expand_cells(spec, sample=args.sample)
            cells = matrix.filter_cells(cells, filters)
            for cell in cells:
                print(matrix.cell_id(cell))
            for svc in spec.service:
                if not filters:
                    print(f"service: {svc}")
            print(f"{len(cells)} cells to run, {len(pruned)} pruned:")
            for cell, reason in pruned:
                print(f"  pruned ({reason}): {matrix.cell_id(cell)}")
            return 0
        trajectory = matrix.run_matrix(
            spec, filters=filters, sample=args.sample, progress=print
        )
    except ValueError as exc:
        print(f"repro matrix: error: {exc}", file=sys.stderr)
        return 2
    print(f"matrix {spec.name!r}: {trajectory['cells_run']} cells run, "
          f"{len(trajectory['cells_pruned'])} pruned "
          f"(git {trajectory['git_sha'] or 'unknown'})")
    if args.out:
        matrix.save_trajectory(trajectory, args.out)
        print(f"trajectory written to {args.out}")
    if args.baseline:
        try:
            baseline = matrix.load_trajectory(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro matrix: bad baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        report = matrix.compare_trajectories(
            trajectory, baseline, max_regress_pct=args.max_regress
        )
        print(report.describe())
        if not report.ok:
            return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.testing import validation

    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    try:
        require(args.fuzz is None or args.fuzz >= 1,
                f"--fuzz needs at least one case, got {args.fuzz}")
        require(bool(systems), f"--systems names no system: {args.systems!r}")
        for spec in systems:
            validation._parse_system_spec(spec)
        if args.fuzz is None:
            g0, batches = build_workload(
                args.dataset, batch_size=args.batch_size, num_batches=args.batches,
                seed=args.seed,
            )
    except ValueError as exc:
        print(f"repro verify: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.fuzz is not None:
            report = validation.fuzz_verify(
                args.fuzz, seed=args.seed,
                conflict_mode=args.conflict_mode or DEFAULT_CONFLICT_MODE,
                verbose=True,
            )
        else:
            report = validation.verify_stream(
                systems, g0, query_by_name(args.query), batches[: args.batches],
                against_oracle=args.oracle, seed=args.seed,
                conflict_mode=args.conflict_mode,
            )
    except validation.ConsistencyError as exc:
        print(f"FAILED: {exc}")
        return 1
    print(report.describe())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-datasets":
        return _cmd_list_datasets()
    if args.command == "list-queries":
        return _cmd_list_queries()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "figure":
        return _cmd_figure(args.name)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "matrix":
        return _cmd_matrix(args)
    if args.command == "verify":
        return _cmd_verify(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
