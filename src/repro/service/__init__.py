"""``repro.service``: the pipelined schedule and the multi-tenant
continuous-ingest service layer built on top of it.

Two layers (see ``docs/service.md``):

* :mod:`repro.service.pipeline` — :class:`~repro.service.pipeline.PipelinedSchedule`,
  the staged/overlapped execution of the paper's five-step batch pipeline
  (``GCSMEngine(schedule="pipelined")``).  Bit-identical results to the
  serial schedule; only the time accounting and the wall clock change.
* :mod:`repro.service.server` — :class:`~repro.service.server.MatchService`,
  a simulated-time serving stack: per-tenant bounded queues, open/closed-loop
  load generators, admission control, fair/priority scheduling over a device
  fleet, and per-tenant latency/throughput SLO metrics.
"""

from repro.service.load import (
    ARRIVAL_PROCESSES,
    TenantWorkload,
    make_tenant_workloads,
)
from repro.service.metrics import LatencyStats, ServiceReport, TenantMetrics
from repro.service.pipeline import PipelinedSchedule
from repro.service.server import (
    ADMISSION_POLICIES,
    SCHEDULERS,
    MatchService,
    QueueFullError,
    TenantQueue,
)

__all__ = [
    "PipelinedSchedule",
    "MatchService",
    "TenantQueue",
    "QueueFullError",
    "ADMISSION_POLICIES",
    "SCHEDULERS",
    "ARRIVAL_PROCESSES",
    "TenantWorkload",
    "make_tenant_workloads",
    "LatencyStats",
    "TenantMetrics",
    "ServiceReport",
]
