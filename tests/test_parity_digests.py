"""Whole-run digests of the schedule and fan-out compositions, pinned.

The repo benchmark's four engine workloads at smoke size (FR / CA / SF3K
single queries and the 24-rule AZ rulebook: ten batches each, stream seed
1, engine seed 0) run serially, under ``schedule="pipelined"``, on a
two-device fleet and on a pipelined two-device fleet.  Each run is hashed
with everything it reports per batch — ΔM, ``MatchStats``, the match
counters with both histograms, the full ``TimeBreakdown`` (``critical_path_
ns`` / ``fill_ns`` / ``drain_ns`` included), the estimate and the cache, a
fleet's ``shard_reports`` / ``load_balance`` / ``comm`` — plus the
``ScheduleReport`` of a pipelined run.  Two ``MatchService`` reports are
hashed as JSON without their ``wall_clock_s``.

The digests were recorded at c5baebc, whose pipelined schedule ran the
kernel on a worker thread against a frozen copy of the store and whose
fleet ran its shards on a thread pool; there ``threaded=False`` and
``workers=1`` / ``2`` gave these same digests.  The schedule and the fleet
now run in order on one thread.
"""

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest

from repro.bench.harness import run_service
from repro.core.engine import GCSMEngine
from repro.core.multiquery import MultiQueryEngine
from repro.graphs.datasets import DATASETS
from repro.graphs.stream import churn_stream, derive_stream
from repro.query.catalog import query_by_name
from repro.query.generator import rulebook_suite

#: name -> (dataset, query, stream deriver, batch size): the repo benchmark's
#: engine workloads
WORKLOADS = {
    "fr": ("FR", "Q1", derive_stream, 96),
    "ca": ("CA", "Q3", derive_stream, 64),
    "sf3k": ("SF3K", "Q1", churn_stream, 64),
    "az24": ("AZ", "rulebook24", derive_stream, 24),
}
CONFIGS = {
    "serial": {},
    "pipelined": {"schedule": "pipelined"},
    "devices2": {"devices": 2},
    "devices2-pipelined": {"devices": 2, "schedule": "pipelined"},
}
SMOKE_BATCHES = 10

DIGESTS = {
    ("fr", "serial"):
        "66a1f568824a46ebcda3ae765ed54fa4fab40e8c2e88bf967c89a3a56456b983",
    ("fr", "pipelined"):
        "1bae22e4809943056786d4eacdf62c7089dfc238cde75a7ccad43e4c790a11b5",
    ("fr", "devices2"):
        "41a7f64794c58088503ec329a80881713dc1c745e1b573568e6e4e3367358bef",
    ("fr", "devices2-pipelined"):
        "a92bb25d0faa50930fc1ebe225e2d2b348f1a89d1d46f11f18c8a8136243580f",
    ("ca", "serial"):
        "200cf6ecc47831e50cf8662e2d6a3e63a19fcb3f53f96a2cbc8efdb954e49514",
    ("ca", "pipelined"):
        "b4e296c75530c528c70294591b4259904305d88d9be35b46a9f6c37bad4fca32",
    ("ca", "devices2"):
        "6699c7a37627fac3dbe2577b2acb31b0fdb7d0aea2ed57795be86b35f2fcb732",
    ("ca", "devices2-pipelined"):
        "9c1fb9c26b92f9d24c9413b3271ff0ac6cb968a9b0bb4c2935db3450d5370549",
    ("sf3k", "serial"):
        "6ec1b54365fcaac8b476ed2b639769765ea58d8f8e37b3e75a2e7d29e2e06274",
    ("sf3k", "pipelined"):
        "95d2b05afed86490eb71175eb46ef80087a094cfbfef9f41a04723d0d1443881",
    ("sf3k", "devices2"):
        "c3fa5d4f30707d4e9ff22a12ff1ffd3a384cfc0e6e7ad0a9ba520f15ddd6b527",
    ("sf3k", "devices2-pipelined"):
        "23dcf684592e663f8120ef37243beaadfbd539c6bd0ae6be516fe998635aa67d",
    ("az24", "serial"):
        "07addf3f75e9a2bbb3e35774d93cb07bd6b283c652d8eb408449f145ef1716ca",
    ("az24", "pipelined"):
        "ded068c8e737b761dc750dbecb2e0ab47e51708eac70885033292ce5fe9931ec",
    ("az24", "devices2"):
        "cc8a516ed2abdf68aa05f5126cd4a3eae5f7595d0f62cc20bc766b5ad330e5ad",
    ("az24", "devices2-pipelined"):
        "5bf29c0d43e71118236ed03e4a043e0f39af01c54aeb24568674e606767ebcd0",
}

#: ``run_service`` arguments: the throughput benchmark's overload run, and a
#: pipelined two-device service at the harness defaults
SERVICE_RUNS = {
    "overload": dict(
        num_tenants=3, num_batches=6, batch_size=8, rate_per_sec=1e9,
        queue_capacity=2, admission="shed-oldest", seed=3,
        workload_kwargs={"graph_size": 24, "avg_degree": 5.0},
    ),
    "two-devices": dict(num_tenants=3, num_batches=4, num_devices=2, seed=0),
}
SERVICE_DIGESTS = {
    "overload": "9d3ad8ea9e63c9226d87f8730475abb7c401b248430aec9b88903c4c99d3f55c",
    "two-devices": "62819d9f2e26d4af9c9601e5a78182252a3425c7bb84319403586d0698749da7",
}


def canonical(obj):
    """A JSON-able form of ``obj`` that pins it exactly: floats as hex,
    arrays by dtype and sha256, dataclasses by type name and fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__,
                {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}]
    if isinstance(obj, dict):
        return [[str(k), canonical(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def batch_record(result) -> list:
    counters = result.match_counters
    record = [
        result.delta_count, getattr(result, "delta_counts", None), result.match_stats,
        result.breakdown, counters.summary(),
        counters.vertex_access_counts(), counters.vertex_access_bytes(),
        None if result.estimation is None else result.estimation.frequencies,
        result.cached_vertices, result.cache_bytes, result.cache_hits, result.cache_misses,
        getattr(result, "trie_stats", None),
    ]
    for name in ("shard_reports", "load_balance", "comm", "repartition"):
        record.append(getattr(result, name, None))
    return canonical(record)


@functools.lru_cache(maxsize=1)  # the tests run workload by workload
def smoke_inputs(name):
    dataset, query, derive, batch_size = WORKLOADS[name]
    g0, batches = derive(
        DATASETS[dataset].build(0), num_updates=batch_size * SMOKE_BATCHES,
        batch_size=batch_size, seed=1,
    )
    return g0, batches[:SMOKE_BATCHES]


def run_digest(name, config) -> str:
    g0, batches = smoke_inputs(name)
    settings = dict(seed=0, **CONFIGS[config])
    if name == "az24":
        engine = MultiQueryEngine(g0, rulebook_suite(24, num_labels=3, seed=0), **settings)
    else:
        engine = GCSMEngine(g0, query_by_name(WORKLOADS[name][1]), **settings)
    h = hashlib.sha256()
    for batch in batches:
        h.update(json.dumps(batch_record(engine.process_batch(batch))).encode())
    if engine.config.schedule == "pipelined":
        h.update(json.dumps(canonical(engine.schedule_report())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_run_digest_unchanged(name, config):
    assert run_digest(name, config) == DIGESTS[name, config]


@pytest.mark.parametrize("run", list(SERVICE_RUNS))
def test_service_report_digest_unchanged(run):
    report = run_service(**SERVICE_RUNS[run]).to_dict()
    report.pop("wall_clock_s")
    # the recording tree's reports also named their thread-pool width
    report.pop("workers", None), report.pop("workers_env", None)
    digest = hashlib.sha256(json.dumps(canonical(report)).encode()).hexdigest()
    assert digest == SERVICE_DIGESTS[run]
