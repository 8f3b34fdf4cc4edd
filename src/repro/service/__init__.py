"""``repro.service``: the multi-tenant continuous-ingest service layer.

:mod:`repro.service.server` — :class:`~repro.service.server.MatchService`, a
simulated-time serving stack: per-tenant bounded queues, open/closed-loop
load generators, admission control, fair/priority scheduling over a device
fleet, and per-tenant latency/throughput SLO metrics.  Its tenants' engines
run ``schedule="pipelined"`` by default (see ``docs/service.md``): the
serial stages under the pipeline clock, which charges a device each batch's
critical path.
"""

from repro.service.load import (
    ARRIVAL_PROCESSES,
    TenantWorkload,
    make_tenant_workloads,
)
from repro.service.metrics import LatencyStats, ServiceReport, TenantMetrics
from repro.service.server import (
    ADMISSION_POLICIES,
    SCHEDULERS,
    MatchService,
    QueueFullError,
    TenantQueue,
)

__all__ = [
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
