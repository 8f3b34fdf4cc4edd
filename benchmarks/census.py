"""Which public code the entry points run: a runtime census of ``src/repro``.

Runs a fixed list of entry points — the repo benchmark at smoke size (two
workloads traced too), every example, the CLI's commands, the benchmark
tests and the two call-counting scripts — each in a child process under a
``sys.setprofile`` hook, in a scratch copy of the tree (the entry points
write their result tables and JSON there, not here).  Every public function
and method under ``src/repro`` outside ``repro/testing`` that no entry point
enters is listed in ``benchmarks/results/census.txt`` with its def lines,
and so is every entry of :data:`KEPT`, the allow-list the tier-1 name guard
(``tests/test_utils.py``) reads too, with the lines it keeps.

    PYTHONPATH=src python benchmarks/census.py [--check]

``--check`` exits 1 if a never-entered public function or method is not
allow-listed, or if an allow-list entry keeps nothing (what it names is
entered, or gone).  Standard library only: it keys an entered code object by
``(co_filename, co_firstlineno)`` against the def's first decorator line
(``co_qualname`` is CPython 3.11+), and it runs the benchmark tests with
``--benchmark-disable`` (pytest-benchmark unsets the profiler around a timed
call).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "census.txt"

#: what production keeps although no entry point enters it, and why: an entry
#: names a ``Class.member``, a function or a whole module file under
#: ``src/repro``.  The tier-1 name guard allows these too.
KEPT = {
    "InvariantIndex.assert_consistent":
        "the fault check: compares the maintained pre-filter index with a rebuild",
    "MultiBatchResult.match_counters_by_query":
        "the rulebook's per-query output, computed when a consumer reads it",
    "RulebookStats.per_query_counters":
        "under the rulebook's per-query output (match_counters_by_query)",
    "Attribution.charge": "under the rulebook's per-query output (match_counters_by_query)",
    "ExecutionTrie.attribute": "under the rulebook's per-query output (match_counters_by_query)",
    "AccessCounters.copy": "under the rulebook's per-query output (match_counters_by_query)",
    "AccessCounters.transactions_by_channel":
        "bytes_by_channel's twin, the counters' per-channel read the tests and "
        "admission_bound.py use (the GPU formula reads the totals columns)",
    "QueryGraph.to_networkx": "interop the README documents",
    "graphs/io.py": "interop the README documents: real SNAP / LDBC edge lists",
    "CachePolicy.rank": "the policy interface: every subclass overrides it",
    "Placement.view": "the placement interface: every subclass overrides it",
    "Placement.bookkeeping": "the placement interface: every subclass overrides it",
    "GraphView.classify": "the view interface: every subclass overrides it",
    "required_walks": "Eq. 5's walk budget, the adaptive loop ROADMAP item 6 measures",
    "FrequencyEstimator.estimate_adaptive":
        "Eq. 5's adaptive loop, which ROADMAP item 6 measures against Theorem 1",
}

_SMOKE_SPEC = "benchmarks/specs/matrix_smoke.json"
_MATRIX = ["-m", "repro", "matrix", "--spec", _SMOKE_SPEC]
#: an overloaded service: every tenant sheds about half its batches
_SERVE_OVERLOAD = ["-m", "repro", "serve", "--tenants", "3", "--batches", "6",
                   "--batch-size", "8", "--rate", "1e9", "--queue-capacity", "2",
                   "--admission", "shed-oldest", "--report", "--max-shed", "1.0"]
#: the entry points, each one child process: ``python <args>`` in the copy's
#: root, ``{tmp}`` standing for a scratch directory of the run's own.  The
#: benchmark tests go first: they take most of the time.
ENTRY_POINTS = [
    ["-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e", "--benchmark-disable",
     "-q", "-p", "no:cacheprovider"],
    ["benchmarks/e2e/run.py", "--smoke"],
    ["benchmarks/e2e/run.py", "--smoke", "--workload", "fr_q1_mixed", "--trace", "1"],
    ["benchmarks/e2e/run.py", "--smoke", "--workload", "az_rulebook24", "--trace", "1"],
    *[[f"examples/{path.name}"] for path in sorted((ROOT / "examples").glob("*.py"))],
    ["-m", "repro", "list-datasets"],
    ["-m", "repro", "list-queries"],
    ["-m", "repro", "run"],
    ["-m", "repro", "run", "--devices", "2", "--json", "{tmp}/run.json"],
    ["-m", "repro", "run", "--rulebook", "Q1,Q3"],
    # the k-hop placement's radius is a rulebook's largest member diameter
    ["-m", "repro", "run", "--system", "VSGM", "--rulebook", "Q1,Q3", "--dataset", "CA"],
    ["-m", "repro", "run", "--prefilter", "on"],
    ["-m", "repro", "compare"],
    ["-m", "repro", "verify"],
    ["-m", "repro", "verify", "--fuzz", "3"],
    _MATRIX,
    [*_MATRIX, "--out", "{tmp}/matrix.json"],
    [*_MATRIX, "--baseline", "benchmarks/results/BENCH_matrix.json"],
    [*_MATRIX, "--filter", "devices=-"],
    ["-m", "repro", "serve"],
    ["-m", "repro", "serve", "--json", "{tmp}/serve.json"],
    _SERVE_OVERLOAD,
    ["-m", "repro", "figure", "all"],
    ["benchmarks/launch_counts.py"],
    ["benchmarks/prefilter_cost.py"],
]

#: ``sitecustomize`` of every child (and grandchild: the repo benchmark runs
#: each workload in a process of its own): records the code objects entered,
#: chained under any profiler set after it, and writes the ones under the
#: package at exit
_BOOT = '''\
import atexit, os, sys, threading

_out, _package = os.environ.get("REPRO_CENSUS_OUT"), os.environ.get("REPRO_CENSUS_PACKAGE")
if _out and _package:
    _codes = {}

    def _record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _codes[id(code)] = code

    _set_profile, _outer = sys.setprofile, [None]

    def _chained(frame, event, arg):
        _record(frame, event, arg)
        outer = _outer[0]  # None while a setprofile(None) swaps this hook out
        return outer and outer(frame, event, arg)

    def setprofile(function):
        _outer[0] = function
        _set_profile(_record if function is None else _chained)

    def getprofile():
        return _outer[0]

    def _write():
        _set_profile(None)
        rows = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in _codes.values()}
        with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as out:
            out.writelines(f"{path}\\t{line}\\n" for path, line in sorted(rows)
                           if path.startswith(_package))

    sys.setprofile, sys.getprofile = setprofile, getprofile
    threading.setprofile(_record)
    atexit.register(_write)
    _set_profile(_record)
'''


def public_defs(package: Path) -> dict:
    """``{(path, first line): (relative path, qualified name, def lines)}``
    of every public function and method at module or class level under
    ``package`` outside ``testing/``; a def's first line is its first
    decorator's, as its code object's ``co_firstlineno`` is."""
    defs = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        if rel.startswith("testing/"):
            continue

        def visit(node, qualified):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, qualified + [child.name])
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not child.name.startswith("_"):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        defs[(str(path.resolve()), first)] = (
                            rel, ".".join(qualified + [child.name]), child.end_lineno - first + 1)
                elif not isinstance(child, ast.Lambda):
                    visit(child, qualified)

        visit(ast.parse(path.read_text()), [])
    return defs


def kept_by(rel: str, name: str) -> str | None:
    """The :data:`KEPT` entry that keeps ``name`` in ``rel``, if any."""
    return next((key for key in (name, rel) if key in KEPT), None)


def run_entry_points(jobs: int) -> tuple[list, set]:
    """``([(args, exit code, wall s)], {(path, first line) entered})``, the
    paths those of ``src/repro`` in this tree; ``jobs`` entry points at once."""
    with tempfile.TemporaryDirectory(prefix="repro-census-") as scratch:
        scratch = Path(scratch)
        tree, boot, entered = scratch / "tree", scratch / "boot", scratch / "entered"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks", ".hypothesis"))
        boot.mkdir()
        entered.mkdir()
        (boot / "sitecustomize.py").write_text(_BOOT)
        package = (tree / "src" / "repro").resolve()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(boot), str(tree / "src")]),
                   REPRO_CENSUS_OUT=str(entered), REPRO_CENSUS_PACKAGE=str(package) + os.sep)

        def run(index_args):
            index, args = index_args
            tmp = scratch / f"tmp{index}"
            tmp.mkdir()
            start = time.perf_counter()
            with open(tmp / "log", "w+") as log:
                code = subprocess.run([sys.executable, *(a.format(tmp=tmp) for a in args)],
                                      cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT,
                                      ).returncode
                log.seek(0)
                tail = log.read().splitlines()[-15:] if code else []
            wall = time.perf_counter() - start
            print(f"{code:>4} {wall:>7.1f} s  {' '.join(args)}", *tail, sep="\n    ",
                  flush=True)
            return args, code, wall

        with ThreadPoolExecutor(jobs) as pool:
            runs = list(pool.map(run, enumerate(ENTRY_POINTS)))
        here = ROOT / "src" / "repro"
        seen = set()
        for record in entered.glob("*.txt"):
            for row in record.read_text().splitlines():
                path, line = row.split("\t")
                seen.add((str((here / Path(path).relative_to(package)).resolve()), int(line)))
    return runs, seen


def report(runs: list, seen: set, defs: dict) -> tuple[str, list, list]:
    """``(census.txt's text, [never entered, not allow-listed],
    [allow-list entries that keep nothing])``."""
    from conftest import provenance

    never = sorted(value for key, value in defs.items() if key not in seen)
    stray = [(rel, name, lines) for rel, name, lines in never if kept_by(rel, name) is None]
    keeps = {entry: [] for entry in KEPT}
    for rel, name, lines in never:
        if (entry := kept_by(rel, name)) is not None:
            keeps[entry].append((rel, name, lines))
    idle = [entry for entry, members in keeps.items() if not members]
    wall = sum(w for _, _, w in runs)
    out = [
        "census of src/repro: the public functions and methods no entry point enters",
        provenance("census.py", f"python {sys.version.split()[0]}, "
                   f"{len(runs)} entry points, {wall:.0f} s of child wall in all"),
        "",
        "entry points (exit code, wall s, python <args>; {tmp} a scratch directory):",
        *(f"{code:>4} {w:>7.1f}  {' '.join(args)}" for args, code, w in runs),
        "",
        f"{len(defs)} public functions and methods outside repro/testing: "
        f"{len(defs) - len(never)} entered, {len(never)} never entered, "
        f"{len(never) - len(stray)} of them allow-listed",
        "",
        f"never entered, not allow-listed ({len(stray)} members, "
        f"{sum(n for *_, n in stray)} def lines):",
        *(f"  {rel:<28} {name:<44} {lines:>4}" for rel, name, lines in stray),
        "",
        f"allow-list ({len(KEPT)} entries; each its reason, then the members it keeps "
        "and their def lines):",
    ]
    for entry, members in keeps.items():
        out.append(f"  {entry}: {KEPT[entry]}")
        out += [f"      {rel:<28} {name:<40} {lines:>4}" for rel, name, lines in members]
        if not members:
            out.append("      (keeps nothing: what it names is entered, or gone)")
    return "\n".join(out) + "\n", stray, idle


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on a never-entered member outside the allow-list, "
                    "or an allow-list entry that keeps nothing")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).parent))
    runs, seen = run_entry_points(min(2, os.cpu_count() or 1))
    text, stray, idle = report(runs, seen, public_defs(ROOT / "src" / "repro"))
    RESULTS.write_text(text)
    print(text, end="")
    if args.check and (stray or idle):
        print(f"census: {len(stray)} never-entered members outside the allow-list, "
              f"{len(idle)} allow-list entries keep nothing", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
