"""Whole-run digests of the schedule and fan-out compositions, pinned.

The repo benchmark's four engine workloads at smoke size (FR / CA / SF3K
single queries and the 24-rule AZ rulebook: ten batches each, stream seed
1, engine seed 0) run serially, under ``schedule="pipelined"``, on a
two-device fleet and on a pipelined two-device fleet.  Each run is hashed
with everything it reports per batch — ΔM, ``MatchStats``, the match
counters with both histograms, the full ``TimeBreakdown`` (``critical_path_
ns`` / ``fill_ns`` / ``drain_ns`` included), the estimate and the cache, a
fleet's ``load_balance`` and its ``comm`` as ``(peer_bytes, allreduce_ns)``
— plus the ``ScheduleReport`` of a pipelined run.  FR and AZ-24 are pinned
on a four-device fleet too.  Two ``MatchService`` reports are hashed as
JSON without their ``wall_clock_s``.

The digests were first recorded at c5baebc, whose pipelined schedule ran
the kernel on a worker thread against a frozen copy of the store and whose
fleet ran its shards on a thread pool; there ``threaded=False`` and
``workers=1`` / ``2`` gave the same digests.  The schedule and the fleet
now run in order on one thread.  The 16 run digests were re-recorded at
b9356b5 without the two online-repartitioning entries, which were 0.0 and
None on every batch of every run there (``TimeBreakdown.repartition_ns`` and
the fleet's ``repartition`` report); the owner map is ``hash(v) mod N``
since.  That run's log, with the old and new digest of each run, is kept
under ``benchmarks/results/``.  The nine digests of a fleet's runs (the
eight two-device runs and the predicated ``GCSM@2``) were re-recorded at
ad471d7 without the per-shard reports (``shard_reports``) and with ``comm``
hashed as its peer bytes and all-reduce time only, the fields a fleet still
reports since it packs one cache for all its shards; every other digest
read the same there (the change log lists the old and new digests).

Every baseline placement — ZC, UM, CPU, Naive, VSGM and RapidFlow — is pinned
the same way on the CA smoke inputs, VSGM on FR too.

A predicated query is pinned on the FR smoke inputs: Q1 with ``w <= 0.9`` on
every edge, built as the matrix's ``predicate`` factor builds it, under the
cached system, its pipelined schedule, a two-device fleet, RapidFlow
(candidate filters and predicates in one launch) and a two-member rulebook
with one predicated member.  These digests were recorded while the engines
still carried an explicit-weight overlay next to the hash weights; an empty
overlay read the hash, so they pin that the hash alone gives the same runs.
"""

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest

from repro.bench.harness import run_service
from repro.bench.matrix import parse_predicate
from repro.core import rapidflow
from repro.core.baselines import make_system
from repro.core.engine import GCSMEngine
from repro.core.multiquery import MultiQueryEngine, Rulebook
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
        "04ab87fd77b3a6a3c4dd7ccadd4cdee234edc11882fa223d3a0679b93f6f8cec",
    ("fr", "pipelined"):
        "c35ed752eb57bd59a8024c1b5794f768d87515aead6b11d1c1814b1612c0264d",
    ("fr", "devices2"):
        "fe556b48c7651d53d25fd9f4b7402ea42a3771eb50c44217881cf9f3356f76d8",
    ("fr", "devices2-pipelined"):
        "4c4d2ce9dceab9a7f9df7960d80b96afb63704a32f7d76146061c4ba36b6fbac",
    ("ca", "serial"):
        "2af5411d841b929562269f0ea3d7e304ab67d4cbcd5dfe86afcb7619c28efb62",
    ("ca", "pipelined"):
        "2b83ee9ed023dfba45da3213a4526970a1e075536e77225ad75aa1fd37d82e77",
    ("ca", "devices2"):
        "45649e41ec326fb15fc5772ec520b9a0c5990d73fb386649a9ca0bd4109e9297",
    ("ca", "devices2-pipelined"):
        "9f38fde705b7de18c9b6a462186a6af10b4ee5cd159cf94533a74a9460bef1d5",
    ("sf3k", "serial"):
        "ff9a1d9686cccf524d4cb6dc2b034d918ef4b63815865e9593093b20cf6390ef",
    ("sf3k", "pipelined"):
        "04654c5fc0e7549a5cbb73ee5eeddf426d8ce11c58745835c762295e071aa13d",
    ("sf3k", "devices2"):
        "7bd338a64deacd072afceea207cb13860e9709e7c32cc3f6434bbaa797088525",
    ("sf3k", "devices2-pipelined"):
        "a4f0c4297b87c79ce06d9d4e42c9b4913c8b8be905ec21db17cafe2dbd224270",
    ("az24", "serial"):
        "e93736ef3b3e3aa87180bd1a61205c29be5a454fa86d7e6b952aacd138735400",
    ("az24", "pipelined"):
        "a0d17df2671c88715d5c00e0802e6697b82c354fe54b8cc8b9997e06bc678fa7",
    ("az24", "devices2"):
        "d797b74adfb55308a0e665c24dd0031e9b1fb46d388ff3e08288f94ba8a8951c",
    ("az24", "devices2-pipelined"):
        "51cd226dc7d296c96b16004bf45bf40929917dd390d4fd35a8f6189a844d5206",
}

#: a four-device fleet (``devices=4``) on the ``fr`` and ``az24`` smoke inputs,
#: recorded at ad471d7, where each shard still selected, packed and priced
#: its own cache
FOUR_DEVICE_DIGESTS = {
    "fr": "decbdd964306c233f0e4628bb4639dacaff4e769a33f2decbc338beab7e6658f",
    "az24": "9889f8c17125f03c10ec6990848c33d6dc5f3c3f241371c359f1eebe1af4fdd1",
}

#: every baseline placement on the ``ca`` smoke inputs (and VSGM on ``fr``):
#: ``make_system(system, g0, query, seed=0)``, VSGM with
#: ``strict_capacity=False``; recorded at 4998f3c, where VSGM's k-hop gather
#: still read one list at a time (log under ``benchmarks/results/``)
PLACEMENT_DIGESTS = {
    ("ca", "ZC"): "aef4fc4e468630a6419deb62d39f58252bae87a32d5d831ce734ed4ccade0442",
    ("ca", "UM"): "cc17a12bc3be83bf5ec2ef7abda90649a1d307c15ba213fcc3445ddeb52b3613",
    ("ca", "CPU"): "5bb0c9dab5340cba31ad2ba98b17e269d0255beefed50faf3639bb44c901986d",
    ("ca", "Naive"): "51e305498a2e88185560ac3347864f1744abeeb774e561a9a07095b9bd45bb9e",
    ("ca", "VSGM"): "966090e0f240fd17e35e4545b70559c0913da4926a7746a860760f2a88d43c35",
    ("ca", "RapidFlow"): "b2d45c0224c5a81c5761a8ca45dba7c565e0158f31d89b20b59a1d0fb71565bf",
    ("fr", "VSGM"): "5d9920629b16936a1e14e742cb3314306734a8eb2fa311cf28f2840dcc97f928",
}

#: the weight predicate on every edge of Q1: at the matrix smoke's
#: ``w<=0.6`` (0.6 ** 6 of Q1's embeddings survive) ΔM is 0 on all ten FR
#: smoke batches, at ``w<=0.9`` it is non-zero on five and differs from
#: the unpredicated run's
PREDICATE = "w<=0.9"
#: Q1~w on the ``fr`` smoke inputs: ``make_system(system, g0, query, seed=0,
#: **settings)``; the rulebook row is ``Rulebook([Q1~w, Q3])`` under GCSM,
#: RapidFlow runs with a 16 MiB index budget (FR's index is ~9.8 MB)
PREDICATED_RUNS = {
    "GCSM": ("GCSM", {}),
    "Pipelined": ("Pipelined", {}),
    "GCSM@2": ("GCSM", {"devices": 2}),
    "RapidFlow": ("RapidFlow", {}),
    "rulebook": ("GCSM", {}),
}
PREDICATED_DIGESTS = {
    "GCSM":
        "185bcc2932309060cb07b949b848bb6afe54d7f454cf75b4db1acb805c45f2f2",
    "Pipelined":
        "baeadf44848f705a601420256292f594fbdd7c1ee0f212e92a89711ad650d4c0",
    "GCSM@2":
        "eb3e2f34a40dae48cc2e69593c8aad3d3e89ac4c6a99f7d7a0424ab1c5f2ca41",
    "RapidFlow":
        "b8fa3b1b1f035528a6a0dc85438947af27f032b789bc0543768263327c4404ef",
    "rulebook":
        "ca940378682545fd53cbbcc92da839da12480a1ffa3e7ee575214a3d44c250ac",
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
    # a fleet's traffic as the harness reads it; the slot ahead of
    # load_balance held the per-shard reports a fleet no longer makes and
    # stays None, so a single device's record reads as recorded
    comm = getattr(result, "comm", None)
    record += [None, getattr(result, "load_balance", None),
               None if comm is None else (comm.peer_bytes, comm.allreduce_ns)]
    return canonical(record)


@functools.lru_cache(maxsize=1)  # the tests run workload by workload
def smoke_inputs(name):
    dataset, query, derive, batch_size = WORKLOADS[name]
    g0, batches = derive(
        DATASETS[dataset].build(0), num_updates=batch_size * SMOKE_BATCHES,
        batch_size=batch_size, seed=1,
    )
    return g0, batches[:SMOKE_BATCHES]


def run_digest(name, config: dict) -> str:
    g0, batches = smoke_inputs(name)
    settings = dict(seed=0, **config)
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
    assert run_digest(name, CONFIGS[config]) == DIGESTS[name, config]


@pytest.mark.parametrize("name", list(FOUR_DEVICE_DIGESTS))
def test_four_device_digest_unchanged(name):
    assert run_digest(name, {"devices": 4}) == FOUR_DEVICE_DIGESTS[name]


def placement_digest(name, system) -> str:
    g0, batches = smoke_inputs(name)
    settings = {"strict_capacity": False} if system == "VSGM" else {}
    engine = make_system(system, g0, query_by_name(WORKLOADS[name][1]), seed=0, **settings)
    h = hashlib.sha256()
    for batch in batches:
        h.update(json.dumps(batch_record(engine.process_batch(batch))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, system", list(PLACEMENT_DIGESTS))
def test_placement_digest_unchanged(name, system):
    assert placement_digest(name, system) == PLACEMENT_DIGESTS[name, system]


def predicated_q1():
    q = query_by_name("Q1")
    bounds = parse_predicate(PREDICATE)
    return q.with_edge_predicates({e: bounds for e in q.edges}, name=f"{q.name}~w")


def predicated_digest(run) -> tuple[str, list[int]]:
    """The run's digest and the predicated query's ΔM per batch."""
    g0, batches = smoke_inputs("fr")
    system, settings = PREDICATED_RUNS[run]
    pred = predicated_q1()
    query = Rulebook([pred, query_by_name("Q3")]) if run == "rulebook" else pred
    engine = make_system(system, g0, query, seed=0, **settings)
    h = hashlib.sha256()
    deltas = []
    for batch in batches:
        result = engine.process_batch(batch)
        deltas.append(result.delta_counts[pred.name] if run == "rulebook"
                      else result.delta_count)
        h.update(json.dumps(batch_record(result)).encode())
    if engine.config.schedule == "pipelined":
        h.update(json.dumps(canonical(engine.schedule_report())).encode())
    return h.hexdigest(), deltas


@pytest.mark.parametrize("run", list(PREDICATED_RUNS))
def test_predicated_digest_unchanged(run, monkeypatch):
    monkeypatch.setattr(rapidflow, "DEFAULT_MEMORY_BUDGET_BYTES", 1 << 24)
    digest, deltas = predicated_digest(run)
    assert any(deltas), "the predicated run must match something"
    assert digest == PREDICATED_DIGESTS[run]


@pytest.mark.parametrize("run", list(SERVICE_RUNS))
def test_service_report_digest_unchanged(run):
    report = run_service(**SERVICE_RUNS[run]).to_dict()
    report.pop("wall_clock_s")
    # the recording tree's reports also named their thread-pool width
    report.pop("workers", None), report.pop("workers_env", None)
    digest = hashlib.sha256(json.dumps(canonical(report)).encode()).hexdigest()
    assert digest == SERVICE_DIGESTS[run]
