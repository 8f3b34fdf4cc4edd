"""Tests for shared utilities."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.testing import (
    GALLOP_RATIO,
    count_calls,
    intersect_sorted,
    intersect_sorted_gallop,
    intersect_sorted_merge,
    is_sorted,
    merge_sorted,
    merge_sorted_unique,
)
from repro.utils import (
    as_generator,
    as_vertex_ids,
    format_bytes,
    format_time_ns,
    geometric_mean,
    require,
    sorted_unique,
    spawn_generator,
)


class TestRng:
    def test_as_generator_from_int(self):
        a, b = as_generator(5), as_generator(5)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_generator(g) is g

    def test_spawn_independent(self):
        parent = as_generator(3)
        child = spawn_generator(parent)
        assert child is not parent
        # spawning advanced the parent deterministically
        parent2 = as_generator(3)
        child2 = spawn_generator(parent2)
        assert child.integers(0, 1 << 30) == child2.integers(0, 1 << 30)


class TestRequire:
    def test_passes(self):
        require(True, "never")

    def test_raises(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestSortedOps:
    def test_is_sorted(self):
        assert is_sorted(np.array([1, 2, 2, 3]))
        assert not is_sorted(np.array([2, 1]))
        assert is_sorted(np.array([]))
        assert is_sorted(np.array([7]))

    def test_merge_sorted_unique(self):
        out = merge_sorted_unique(np.array([1, 3, 5]), np.array([2, 3, 6]))
        assert out.tolist() == [1, 2, 3, 5, 6]

    def test_merge_with_empty(self):
        a = np.array([1, 2], dtype=np.int64)
        assert merge_sorted_unique(a, np.array([], dtype=np.int64)).tolist() == [1, 2]
        assert merge_sorted_unique(np.array([], dtype=np.int64), a).tolist() == [1, 2]

    def test_intersect_sorted(self):
        out = intersect_sorted(np.array([1, 3, 5, 7]), np.array([3, 4, 7]))
        assert out.tolist() == [3, 7]
        assert intersect_sorted(np.array([1]), np.array([], dtype=np.int64)).size == 0


sorted_unique_arrays = st.lists(
    st.integers(min_value=0, max_value=300), max_size=60
).map(lambda xs: np.array(sorted(set(xs)), dtype=np.int64))

sorted_arrays = st.lists(
    st.integers(min_value=0, max_value=300), max_size=60
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestSortedKernelsProperties:
    """Property-based checks of the sorted-set kernels against NumPy oracles."""

    @settings(max_examples=200, deadline=None)
    @given(a=sorted_arrays, b=sorted_arrays)
    def test_merge_sorted_matches_full_sort(self, a, b):
        out = merge_sorted(a, b)
        expected = np.sort(np.concatenate([a, b]), kind="stable")
        assert out.tolist() == expected.tolist()

    @settings(max_examples=200, deadline=None)
    @given(a=sorted_unique_arrays, b=sorted_unique_arrays)
    def test_merge_sorted_unique_matches_union1d(self, a, b):
        out = merge_sorted_unique(a, b)
        assert out.tolist() == np.union1d(a, b).tolist()

    @settings(max_examples=200, deadline=None)
    @given(a=sorted_unique_arrays, b=sorted_unique_arrays)
    def test_intersect_variants_match_intersect1d(self, a, b):
        expected = np.intersect1d(a, b).tolist()
        assert intersect_sorted(a, b).tolist() == expected
        assert intersect_sorted_merge(a, b).tolist() == expected
        assert intersect_sorted_gallop(a, b).tolist() == expected

    def test_empty_and_disjoint(self):
        empty = np.empty(0, dtype=np.int64)
        a = np.array([1, 5, 9], dtype=np.int64)
        b = np.array([2, 6, 10], dtype=np.int64)
        for fn in (intersect_sorted, intersect_sorted_merge,
                   intersect_sorted_gallop):
            assert fn(a, empty).size == 0
            assert fn(empty, a).size == 0
            assert fn(empty, empty).size == 0
            assert fn(a, b).size == 0  # disjoint
        assert merge_sorted(a, empty).tolist() == a.tolist()
        assert merge_sorted(empty, b).tolist() == b.tolist()
        assert merge_sorted(a, b).tolist() == [1, 2, 5, 6, 9, 10]

    def test_gallop_dispatch_on_skew(self):
        """The dispatcher takes the galloping path for skewed sizes and the
        merge path otherwise; both must agree with the oracle."""
        small = np.array([10, 500, 900], dtype=np.int64)
        large = np.arange(0, GALLOP_RATIO * small.size * 10, 2, dtype=np.int64)
        assert large.size >= GALLOP_RATIO * small.size
        expected = np.intersect1d(small, large).tolist()
        assert intersect_sorted(small, large).tolist() == expected
        assert intersect_sorted(large, small).tolist() == expected

    def test_merge_sorted_duplicates_across_runs(self):
        # values present in both runs must appear twice in the merge
        a = np.array([1, 3, 3, 7], dtype=np.int64)
        b = np.array([3, 7, 8], dtype=np.int64)
        assert merge_sorted(a, b).tolist() == [1, 3, 3, 3, 7, 7, 8]


class TestMergeRuns:
    """Unit tests for the executor's linear run merge (satellite of the
    frontier-kernel change: no more concatenate-then-full-sort)."""

    def test_single_run_fast_path_no_copy(self):
        from repro.testing.kernels import _merge_runs

        run = np.array([2, 4, 6], dtype=np.int64)
        assert _merge_runs((run,)) is run

    def test_interleaved_runs(self):
        from repro.testing.kernels import _merge_runs

        base = np.array([1, 4, 8, 12], dtype=np.int64)
        delta = np.array([2, 5, 9], dtype=np.int64)
        assert _merge_runs((base, delta)).tolist() == [1, 2, 4, 5, 8, 9, 12]

    def test_three_runs(self):
        from repro.testing.kernels import _merge_runs

        runs = (
            np.array([0, 10], dtype=np.int64),
            np.array([5, 15], dtype=np.int64),
            np.array([3, 7], dtype=np.int64),
        )
        assert _merge_runs(runs).tolist() == [0, 3, 5, 7, 10, 15]

    def test_empty_runs(self):
        from repro.testing.kernels import _merge_runs

        empty = np.empty(0, dtype=np.int64)
        run = np.array([1, 2], dtype=np.int64)
        assert _merge_runs((empty, run)).tolist() == [1, 2]
        assert _merge_runs((run, empty)).tolist() == [1, 2]


class TestSegmentedContains:
    def test_basic(self):
        from repro.testing import segmented_contains

        flat = np.array([1, 3, 5, 2, 4, 6, 8], dtype=np.int64)
        starts = np.array([0, 3, 3], dtype=np.int64)
        lengths = np.array([3, 4, 0], dtype=np.int64)
        queries = np.array([3, 6, 5], dtype=np.int64)
        out = segmented_contains(flat, starts, lengths, queries)
        assert out.tolist() == [True, True, False]  # empty segment misses

    def test_empty_inputs(self):
        from repro.testing import segmented_contains

        empty = np.empty(0, dtype=np.int64)
        assert segmented_contains(empty, empty, empty, empty).size == 0
        flat = np.array([1, 2], dtype=np.int64)
        assert segmented_contains(flat, empty, empty, empty).size == 0

    @settings(max_examples=100, deadline=None)
    @given(
        segments=st.lists(
            st.lists(st.integers(0, 50), max_size=12).map(sorted),
            min_size=1, max_size=8,
        ),
        data=st.data(),
    )
    def test_matches_python_membership(self, segments, data):
        from repro.testing import segmented_contains

        flat = np.array([x for seg in segments for x in seg], dtype=np.int64)
        lengths = np.array([len(s) for s in segments], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
        qrows = data.draw(st.lists(
            st.integers(0, len(segments) - 1), max_size=20))
        qvals = data.draw(st.lists(
            st.integers(0, 60), min_size=len(qrows), max_size=len(qrows)))
        queries = np.array(qvals, dtype=np.int64)
        out = segmented_contains(
            flat, starts[np.array(qrows, dtype=np.int64)]
            if qrows else np.empty(0, dtype=np.int64),
            lengths[np.array(qrows, dtype=np.int64)]
            if qrows else np.empty(0, dtype=np.int64),
            queries,
        )
        expected = [v in segments[r] for r, v in zip(qrows, qvals)]
        assert out.tolist() == expected


class TestAsVertexIds:
    def test_int64_passes_through_uncopied(self):
        ids = np.array([3, 1, 2], dtype=np.int64)
        assert as_vertex_ids(ids) is ids

    def test_whole_values_of_other_dtypes_are_cast(self):
        for values in ([2.0, 0.0], np.array([2, 0], dtype=np.int32), np.array([2, 0], np.uint64)):
            out = as_vertex_ids(values)
            assert out.dtype == np.int64 and out.tolist() == [2, 0]
        assert as_vertex_ids([]).dtype == np.int64

    @pytest.mark.parametrize("values, shown", [
        ([0.0, 1.9], "1.9"),
        ([[0.0, 1.0], [-0.5, 2.0]], "-0.5"),
        ([np.nan], "nan"),
        ([np.inf], "inf"),
        ([1e30], "1e+30"),
        (np.array([2**63], dtype=np.uint64), str(2**63)),
    ])
    def test_a_value_the_cast_would_change_is_refused(self, values, shown):
        with pytest.raises(ValueError, match=f"^vertex id {re.escape(shown)} is not a whole"):
            as_vertex_ids(values)


class TestSortedUnique:
    """The one set kernel: equal to a plain ``np.unique`` (NumPy 2.4 runs that
    on a hash table, 7-70x slower than this sort + neighbour compare)."""

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(
        dtype=st.sampled_from([np.int32, np.int64, np.bool_]),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=24),
        elements={"min_value": -40, "max_value": 40},
    ))
    def test_equals_np_unique(self, x):
        out = sorted_unique(x)
        expected = np.unique(x)
        assert out.dtype == x.dtype == expected.dtype
        assert out.ndim == 1 and out.tolist() == expected.tolist()

    def test_sizes_zero_and_one_and_the_int64_range(self):
        assert sorted_unique(np.empty(0, dtype=np.int32)).dtype == np.int32
        assert sorted_unique(np.empty((0, 2), dtype=np.int64)).shape == (0,)
        assert sorted_unique(np.array([[7]])).tolist() == [7]
        wide = np.array([2**62, -(2**62), 2**62, 0, -(2**62)], dtype=np.int64)
        assert sorted_unique(wide).tolist() == [-(2**62), 0, 2**62]
        assert sorted_unique(np.array([True, False, True])).tolist() == [False, True]

    def test_input_is_left_alone(self):
        for values in ([3, 1, 3, 2], [1, 2, 3], [5]):  # nothing dropped: a fresh array still
            x = np.array(values, dtype=np.int64)
            out = sorted_unique(x)
            out[0] = 9
            assert x.tolist() == values


#: NumPy set routines whose plain form runs on a hash table since NumPy 2.3
#: (``np.unique`` with a ``return_*`` keyword takes the sort path and is fine)
_SET_ROUTINES = {"unique", "isin", "in1d", "union1d", "setdiff1d"}
#: ``path under src/repro -> (routines, why they stay)``; anything else fails
_SET_ROUTINES_KEPT = {
    "core/rapidflow.py": ({"isin", "union1d"}, "the RapidFlow baseline's candidate index "
                                               "upkeep, off the GCSM path and the benchmark"),
}


def set_routine_calls(root: Path):
    """``(relative path, line, routine)`` of every plain NumPy set-routine
    call under ``root``, the oracle package aside."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("testing/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner, name = node.func.value, node.func.attr
            if not (isinstance(owner, ast.Name) and owner.id == "np" and name in _SET_ROUTINES):
                continue
            if name == "unique" and any((kw.arg or "").startswith("return_") for kw in node.keywords):
                continue
            found.append((rel, node.lineno, name))
    return found


def test_no_plain_unique_on_production_path():
    """``repro.utils.sorted_unique`` / ``contains_sorted`` are the set kernels
    of the production path; a plain ``np.unique(`` / ``np.isin(`` /
    ``np.union1d(`` / ``np.setdiff1d(`` anywhere else under ``src/repro`` fails
    here unless the allow-list names it, with the reason it stays."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    calls = set_routine_calls(root)
    stray = [c for c in calls if c[2] not in _SET_ROUTINES_KEPT.get(c[0], (set(),))[0]]
    assert not stray, f"plain NumPy set routines on the production path: {stray}"
    kept = {rel for rel, _, _ in calls}
    assert kept == set(_SET_ROUTINES_KEPT), "the allow-list names a file with nothing to allow"


#: modules that run code on other threads or processes
_CONCURRENCY_MODULES = {"threading", "concurrent", "multiprocessing"}
#: ``(path under src/repro, function)`` of the only places that may import
#: networkx: the graph atlas's one reader and the interop helper the tests use
_NETWORKX_IMPORTERS = {("query/catalog.py", "motifs"), ("query/pattern.py", "to_networkx")}


def module_imports(root: Path, modules: set[str], allowed=frozenset()):
    """``(relative path, line, module)`` of every import of one of ``modules``
    (or of one of their submodules) under ``root``, except inside a function
    whose ``(relative path, name)`` is ``allowed``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        exempt = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and (rel, fn.name) in allowed for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [(rel, node.lineno, name) for name in names
                      if name.split(".")[0] in modules and id(node) not in exempt]
    return sorted(found)


def test_no_threads_under_src():
    """The engine runs on one thread: the pipelined schedule's overlap and a
    fleet's shards are simulated time, and real threads measured slower than
    one thread on every configuration tried on a two-core box.  No module
    under ``src/repro`` imports ``threading``, ``concurrent.futures`` or
    ``multiprocessing``."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    assert module_imports(root, _CONCURRENCY_MODULES) == []


def test_the_thread_guard_sees_what_it_guards(tmp_path):
    (tmp_path / "a.py").write_text(
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import multiprocessing.pool as mp, os\n"
        "from . import threading\n"
        "import threadingx\n"
    )
    assert module_imports(tmp_path, _CONCURRENCY_MODULES) == [
        ("a.py", 1, "threading"), ("a.py", 2, "concurrent.futures"),
        ("a.py", 3, "multiprocessing.pool"),
    ]


def test_networkx_stays_off_the_import_path():
    """No engine, placement, rulebook or fleet path runs networkx, so no
    module under ``src/repro`` imports it at module level: only
    ``catalog.motifs`` (the graph atlas) and ``QueryGraph.to_networkx``
    import it, inside the function."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    assert module_imports(root, {"networkx"}, _NETWORKX_IMPORTERS) == []


def test_the_networkx_guard_sees_what_it_guards(tmp_path):
    (tmp_path / "query").mkdir()
    (tmp_path / "query" / "catalog.py").write_text(
        "import networkx as nx\n"
        "def motifs(size):\n"
        "    import networkx as nx\n"
        "def other():\n"
        "    from networkx.algorithms import diameter\n"
    )
    (tmp_path / "query" / "pattern.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import networkx\n"
        "class QueryGraph:\n"
        "    def to_networkx(self):\n"
        "        import networkx as nx\n"
        "    def diameter(self):\n"
        "        import networkx as nx\n"
    )
    (tmp_path / "a.py").write_text("import networkxx, numpy\ndef motifs():\n    import networkx\n")
    assert module_imports(tmp_path, {"networkx"}, _NETWORKX_IMPORTERS) == [
        ("a.py", 3, "networkx"),
        ("query/catalog.py", 1, "networkx"), ("query/catalog.py", 5, "networkx.algorithms"),
        ("query/pattern.py", 3, "networkx"), ("query/pattern.py", 8, "networkx"),
    ]


#: runs in a fresh interpreter: import the package and its CLI, then drive a
#: few batches through every engine shape production builds
_ENGINE_TOUR = """
import sys
import repro, repro.cli
from repro.core.baselines import make_system
from repro.core.engine import GCSMEngine
from repro.core.multiquery import MultiQueryEngine
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.query.catalog import query_by_name
from repro.query.generator import rulebook_suite

g0, batches = derive_stream(erdos_renyi(400, 8.0, num_labels=3, seed=1),
                            update_fraction=0.2, batch_size=64, seed=0)
q = query_by_name("Q1")
engines = [
    GCSMEngine(g0, q, seed=0),
    MultiQueryEngine(g0, rulebook_suite(6, num_labels=3, seed=0), seed=0, shared=True),
    GCSMEngine(g0, q, seed=0, devices=2),
    GCSMEngine(g0, q, seed=0, schedule="pipelined"),
    GCSMEngine(g0, q, seed=0, prefilter="on"),
    make_system("VSGM", g0, q, seed=0),
]
for engine in engines:
    engine.process_stream(batches[:3])
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_no_engine_loads_networkx():
    """In a fresh interpreter, importing ``repro`` and ``repro.cli`` and
    running the default engine, a shared rulebook, a two-device fleet, the
    pipelined schedule, the prefilter and VSGM leave networkx unloaded."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _ENGINE_TOUR], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.splitlines()[-1] == "[]"


def test_the_guard_sees_what_it_guards(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "testing").mkdir()
    (tmp_path / "core" / "a.py").write_text(
        "import numpy as np\n"
        "x = np.unique(y)\n"
        "i = np.unique(y, return_inverse=True)\n"
        "m = np.isin(y, z)\n"
        "u = np.setdiff1d(np.union1d(y, z), z)\n"
    )
    (tmp_path / "testing" / "b.py").write_text("import numpy as np\nx = np.unique(y)\n")
    assert set_routine_calls(tmp_path) == [
        ("core/a.py", 2, "unique"), ("core/a.py", 4, "isin"),
        ("core/a.py", 5, "setdiff1d"), ("core/a.py", 5, "union1d"),
    ]


#: what lives in ``repro.testing`` and nowhere else under ``src/repro``: the
#: brute-force oracle and the cross-system checkers built on it
_ORACLE_NAMES = {
    "count_embeddings", "find_embeddings", "verify_stream", "verify_rulebook", "fuzz_verify",
    "VerificationReport", "RulebookParityReport", "FuzzReport", "ConsistencyError",
    "DEFAULT_FUZZ_SYSTEMS", "_parse_system_spec", "_counters_equal",
}


def oracle_leaks(root: Path):
    """``(relative path, line, name)`` of every import of ``repro.testing`` and
    every definition of an oracle or checker name under ``root``, outside the
    oracle package and the body of ``cli.py``'s ``_cmd_verify`` (``repro
    verify`` is the one production caller of the checkers)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("testing/"):
            continue
        tree = ast.parse(path.read_text())
        verify = [fn for fn in tree.body if rel == "cli.py"
                  and isinstance(fn, ast.FunctionDef) and fn.name == "_cmd_verify"]
        allowed = {id(node) for fn in verify for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                continue
            names = [name for name in names if name in _ORACLE_NAMES
                     or name.split(".")[:2] == ["repro", "testing"]]
            if names and id(node) not in allowed:
                found.append((rel, node.lineno, names[0]))
    return found


def test_the_oracle_stays_with_the_tests():
    """Production runs what it ships: no module under ``src/repro`` outside
    ``repro.testing`` imports the oracle package or defines the brute-force
    matcher or a cross-system checker, ``repro verify`` aside."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    assert oracle_leaks(root) == []


def test_the_oracle_guard_sees_what_it_guards(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "testing").mkdir()
    (tmp_path / "core" / "a.py").write_text(
        "import repro.testing\n"
        "from repro.testing.reference import find_embeddings\n"
        "from repro import testing\n"
        "import repro.testingx, repro.core\n"
        "def count_embeddings(graph, query): ...\n"
        "class ConsistencyError(AssertionError): ...\n"
        "DEFAULT_FUZZ_SYSTEMS = ('GCSM',)\n"
    )
    (tmp_path / "cli.py").write_text(
        "from repro.testing import count_calls\n"
        "def _cmd_verify(args):\n"
        "    from repro.testing.validation import verify_stream\n"
        "def _cmd_run(args):\n"
        "    import repro.testing\n"
    )
    (tmp_path / "testing" / "b.py").write_text(
        "from repro.testing.reference import count_embeddings\n"
        "def verify_stream(): ...\n"
    )
    assert oracle_leaks(tmp_path) == [
        ("cli.py", 1, "repro.testing"), ("cli.py", 5, "repro.testing"),
        ("core/a.py", 1, "repro.testing"), ("core/a.py", 2, "repro.testing.reference"),
        ("core/a.py", 3, "repro.testing"), ("core/a.py", 5, "count_embeddings"),
        ("core/a.py", 6, "ConsistencyError"), ("core/a.py", 7, "DEFAULT_FUZZ_SYSTEMS"),
    ]


def load_census():
    """``benchmarks/census.py`` as a module: its ``KEPT`` is the one
    allow-list of public code production keeps unrun (each entry with its
    reason), and its ``public_defs`` the members it keys."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: a string that names code: ``name``, ``a.b.name`` or a ``"module:Class"`` spec
_NAMING_STRING = re.compile(r"[A-Za-z_][\w.]*(:[A-Za-z_][\w.]*)?")


def _names_in(path: Path, defined: list | None):
    """``(name, the defs around it)`` of every name ``path`` uses (a ``Name``,
    an attribute, a keyword, a non-docstring string that names code outside
    ``__all__`` and the census's allow-list ``KEPT``); appends ``(qualified name, def)`` of every public def /
    class at module or class level to ``defined`` when given.  A def is its
    ``(path, line, column)``."""
    tree = ast.parse(path.read_text())
    skip = {id(body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and (body := node.body) and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)}
    skip |= {id(part) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id in ("__all__", "KEPT") for t in node.targets)
             for part in ast.walk(node)}
    used = []

    def visit(node, around, qualified, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name, at = qualified + [child.name], (path, child.lineno, child.col_offset)
                if defined is not None and not in_function and not child.name.startswith("_"):
                    defined.append((".".join(name), at))
                visit(child, around | {at}, name,
                      in_function or not isinstance(child, ast.ClassDef))
                continue
            if id(child) in skip:
                continue
            if isinstance(child, ast.Name):
                used.append((child.id, around))
            elif isinstance(child, ast.Attribute):
                used.append((child.attr, around))
            elif isinstance(child, ast.keyword) and child.arg:
                used.append((child.arg, around))
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                  and _NAMING_STRING.fullmatch(child.value)):
                used.extend((part, around) for part in re.split("[.:]", child.value))
            visit(child, around, qualified, in_function)

    visit(tree, frozenset(), [], False)
    return used


def unreached_names(package: Path, readers=()):
    """``(relative path, qualified name)`` of every public def, class and
    method under ``package`` (its ``testing/`` oracle package aside) that no
    module of ``package`` outside ``testing/`` and no file under ``readers``
    names outside the definition itself."""
    defined, used = [], {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        if rel.startswith("testing/"):
            continue
        here = []
        for name, around in _names_in(path, here):
            used.setdefault(name, []).append(around)
        defined += [(rel, qualified, node) for qualified, node in here]
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            for name, around in _names_in(path, None):
                used.setdefault(name, []).append(around)
    return [(rel, qualified) for rel, qualified, at in defined
            if all(at in around for around in used.get(qualified.rsplit(".", 1)[-1], ()))]


def test_production_ships_only_what_production_runs():
    """Every public function, class and method under ``src/repro`` outside
    ``repro.testing`` is named by production code, a benchmark or an
    example: what only the tests reach belongs with the tests.  What stays
    unreached is on the census's allow-list with its reason, and every entry
    names a member that is there (the census, which runs the entry points,
    fails an entry that production enters)."""
    repo, census = Path(__file__).resolve().parents[1], load_census()
    package = repo / "src" / "repro"
    found = unreached_names(package, [repo / "benchmarks", repo / "examples"])
    stray = [(rel, name) for rel, name in found if census.kept_by(rel, name) is None]
    assert stray == [], "only the tests reach these: delete them or move them to repro.testing"
    members = {key for rel, name, _ in census.public_defs(package).values() for key in (rel, name)}
    assert set(census.KEPT) <= members, "the allow-list names code that is gone"
    assert all(reason.strip() for reason in census.KEPT.values()), "an entry without its reason"


def test_the_reachability_guard_sees_what_it_guards(tmp_path):
    package, bench = tmp_path / "repro", tmp_path / "bench"
    for folder in (package / "core", package / "testing", bench):
        folder.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.core.a import reexported\n")
    (package / "core" / "a.py").write_text(
        '__all__ = ["listed"]\n'
        "def listed(): ...\n"
        "def reexported(): ...\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def only_tested(): ...\n"
        "def by_attribute(): ...\n"
        "def by_keyword(): ...\n"
        "def by_bench(): ...\n"
        "def _private(): ...\n"
        "class Spec:\n"
        "    def unreached(self): ...\n"
        "    def by_string(self): ...\n"
        "    def itself(self):\n"
        '        """Calls itself."""\n'
        "        return self.itself()\n"
        "def documented():\n"
        '    """Named by its own docstring: documented."""\n'
        "    def local(): ...\n"
    )
    (package / "core" / "b.py").write_text(
        "import repro.core.a as a\n"
        'PLACEMENTS = {"spec": "repro.core.a:Spec"}\n'
        "def run(thing, **options):\n"
        "    a.by_attribute()\n"
        "    thing(by_keyword=1)\n"
        '    return getattr(thing, "by_string"), f"{thing} documented"\n'
        "run(None)\n"
    )
    (package / "testing" / "t.py").write_text(
        "from repro.core.a import only_tested\n"
        "def oracle():\n"
        "    return only_tested()\n"
    )
    (bench / "c.py").write_text(
        "from repro.core.a import by_bench\nby_bench()\n"
        'KEPT = {"Spec.unreached": "an allow-list names code without running it"}\n'
    )
    assert unreached_names(package, [bench]) == [
        ("core/a.py", "listed"), ("core/a.py", "reexported"), ("core/a.py", "recursive"),
        ("core/a.py", "only_tested"), ("core/a.py", "Spec.unreached"),
        ("core/a.py", "Spec.itself"), ("core/a.py", "documented"),
    ]


def _three_calls():
    def leaf():
        return 1

    return leaf() + leaf()


class TestCountCalls:
    def test_counts_python_calls_only(self):
        assert count_calls(_three_calls) == 3
        assert count_calls(lambda: sorted(range(100))) == 1  # the lambda; C calls do not count
        assert count_calls(_three_calls, code=_three_calls.__code__) == 1

    def test_an_outer_profiler_survives_a_nested_count(self):
        """A hook set before the count gets the events after it, and the
        nested count reads what it reads alone."""
        alone = count_calls(_three_calls)
        seen = []

        def outer(frame, event, arg):
            if event == "call":
                seen.append(frame.f_code.co_name)

        sys.setprofile(outer)
        try:
            nested = count_calls(_three_calls)
            _three_calls()
        finally:
            sys.setprofile(None)
        assert nested == alone == 3
        assert seen.count("_three_calls") == 1 and seen.count("leaf") == 2

    def test_cprofile_survives_a_nested_count(self):
        import cProfile
        import pstats

        profile = cProfile.Profile()
        profile.enable()
        try:
            count_calls(_three_calls)
            _three_calls()
        finally:
            profile.disable()
        names = {func[2]: stats[1] for func, stats in pstats.Stats(profile).stats.items()}
        assert names.get("_three_calls") == 1 and names.get("leaf") == 2


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024**2) == "3.0 MB"
        assert format_bytes(5 * 1024**3) == "5.0 GB"

    def test_format_time(self):
        assert format_time_ns(500) == "500 ns"
        assert format_time_ns(2_500) == "2.50 us"
        assert format_time_ns(3_000_000) == "3.00 ms"
        assert format_time_ns(2e9) == "2.000 s"


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([3]) == pytest.approx(3.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])


def test_one_launch_site_on_the_production_path():
    """The level program runs where the kernel expands a batch and nowhere
    else: under ``src/repro``, outside the oracle package, only
    ``matching.expand`` calls ``expand_rows`` — the frequency walk, a fleet's
    shards and the pipelined schedule read that one expansion."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    sites = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("testing/"):
            continue
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                sites += [(rel, fn.name) for node in ast.walk(fn) if isinstance(node, ast.Call)
                          and getattr(node.func, "id", getattr(node.func, "attr", None))
                          == "expand_rows"]
    assert sites == [("core/matching.py", "expand")]


#: the per-vertex list readers the store, the views and the DCSR cache once
#: served lists through, beside the one bulk read (``DynamicGraph.read``);
#: ``lookup`` is ``DcsrCache.lookup`` (``lookup_block`` stays)
_PER_VERTEX_READERS = {
    "neighbors_old", "neighbors_new", "neighbors_new_parts", "delta_neighbors",
    "base_run_raw", "packed_run_raw", "degree_old", "degree_new", "fetch", "_runs",
    "degree_bound", "lookup",
}


def per_vertex_readers(root: Path):
    """``(relative path, line, name)`` of every definition or call of a
    per-vertex list reader under ``root``, the oracle package aside."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("testing/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
            else:
                continue
            if name in _PER_VERTEX_READERS:
                found.append((rel, node.lineno, name))
    return found


def test_one_read_path_on_the_production_path():
    """Every list comes from the store's one bulk read: views and the DCSR
    cache only classify.  Under ``src/repro``, outside the oracle package
    (whose per-vertex slab decode is the reference the bulk read is checked
    against), nothing defines or calls a per-vertex list reader."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    assert per_vertex_readers(root) == []


def test_the_read_guard_sees_what_it_guards(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "testing").mkdir()
    (tmp_path / "core" / "a.py").write_text(
        "class DcsrCache:\n"
        "    def lookup(self, v): ...\n"
        "    def lookup_block(self, vs): ...\n"
        "runs = view.fetch(v, version)\n"
        "n = graph.degree_new(v) + degree_old(v)\n"
        "block = graph.read(vs, False)\n"
        "view.fetch_block(vs, lengths)\n"
    )
    (tmp_path / "testing" / "b.py").write_text("def neighbors_old(graph, v): ...\n")
    assert per_vertex_readers(tmp_path) == [
        ("core/a.py", 2, "lookup"), ("core/a.py", 4, "fetch"),
        ("core/a.py", 5, "degree_new"), ("core/a.py", 5, "degree_old"),
    ]


#: ``(owner, method)`` of the skeleton's calls: the kernel's one expansion and
#: the placement's two stages
_SKELETON_CALLS = {("query_set", "expand"), ("placement", "prepare"), ("placement", "match")}
#: the hand-off the batch body replaced
_STAGE_HANDOFF = {"StagedBatch", "stage_host", "stage_match", "finish"}


def skeleton_calls(root: Path):
    """``(relative path, line, name)`` of every call of a skeleton stage
    outside ``GCSMEngine.process_batch``, and every definition of a stage
    hand-off name, under ``root``, the oracle package aside."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("testing/"):
            continue
        tree = ast.parse(path.read_text())
        body = {id(node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "GCSMEngine"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "process_batch"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in _STAGE_HANDOFF:
                found.append((rel, node.lineno, node.name))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                owner = getattr(owner, "attr", getattr(owner, "id", None))
                if (owner, node.func.attr) in _SKELETON_CALLS and id(node) not in body:
                    found.append((rel, node.lineno, f"{owner}.{node.func.attr}"))
    return sorted(found)


def test_one_batch_body_on_the_production_path():
    """``GCSMEngine.process_batch`` is the one batch body: under
    ``src/repro``, outside the oracle package, nothing else calls
    ``query_set.expand``, ``placement.prepare`` or ``placement.match``, and
    the staged hand-off (``StagedBatch``, ``stage_host``, ``stage_match``,
    ``finish``) is not defined."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    assert skeleton_calls(root) == []


def test_the_skeleton_guard_sees_what_it_guards(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "testing").mkdir()
    (tmp_path / "core" / "a.py").write_text(
        "class GCSMEngine:\n"
        "    def process_batch(self, batch):\n"
        "        x = self.query_set.expand(self, batch, None)\n"
        "        self.placement.match(batch, self.placement.prepare(batch), x)\n"
        "    def stage_host(self, batch):\n"
        "        return self.placement.prepare(batch)\n"
        "class StagedBatch: ...\n"
        "def prepare(engine, batch):\n"
        "    return engine.query_set.expand(engine, batch, None), placement.match(batch)\n"
        "expand(trie, batch, graph)\n"
    )
    (tmp_path / "testing" / "b.py").write_text("engine.placement.match(batch)\n")
    assert skeleton_calls(tmp_path) == [
        ("core/a.py", 5, "stage_host"), ("core/a.py", 6, "placement.prepare"),
        ("core/a.py", 7, "StagedBatch"), ("core/a.py", 9, "placement.match"),
        ("core/a.py", 9, "query_set.expand"),
    ]
