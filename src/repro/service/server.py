"""The continuous-ingest service: queues, admission, scheduling, SLOs.

:class:`MatchService` multiplexes many tenant update streams onto a fleet
of simulated devices.  Each tenant owns an engine (pipelined or serial)
over its own graph/query registration; the service owns *when* each batch
runs.  The simulation is event-driven in simulated nanoseconds — the same
clock the engines charge — so a run is fully deterministic given its seed.

Model
-----
* **Arrival**: per-tenant open-loop traces (Poisson/bursty) or closed-loop
  (completion + think time), from :mod:`repro.service.load`.
* **Queues**: one bounded FIFO :class:`TenantQueue` per tenant; pushing
  into a full queue raises :class:`QueueFullError`.
* **Admission** (what the server does with that error):
  ``"reject"`` drops the arriving batch, ``"shed-oldest"`` evicts the
  queue head to make room, ``"backpressure"`` stalls the producer (the
  arrival — and everything behind it — shifts later; the stall is
  recorded).
* **Scheduling**: when a device frees, ``"fair"`` round-robins over ready
  tenants; ``"priority"`` serves the highest-priority ready tenant
  (least-recently-served within a tie).  A tenant is *ready* when its
  queue is non-empty and it has no batch in service (per-tenant streams
  are strictly ordered: batch k+1's update needs batch k reorganized).
* **Service time**: a dispatched batch occupies its device for the
  engine-reported :attr:`~repro.gpu.clock.TimeBreakdown.pipelined_ns` —
  the pipeline critical path under ``schedule="pipelined"`` (host prep of
  the next batch hides under the kernel), the serial ``total_ns``
  otherwise.  That single number is exactly what the ≥1.3x
  sustained-throughput benchmark measures.
* **Fault isolation**: a batch whose engine raises is its tenant's ``failed``
  (traceback kept), takes no device time, and stops nobody.
"""

from __future__ import annotations

import heapq
import time
import traceback
from collections import deque

from repro.core.engine import GCSMEngine
from repro.gpu.counters import AccessCounters
from repro.gpu.device import DeviceConfig
from repro.service.load import TenantWorkload
from repro.service.metrics import ServiceReport, TenantMetrics
from repro.utils import require

__all__ = [
    "QueueFullError",
    "TenantQueue",
    "MatchService",
    "ADMISSION_POLICIES",
    "SCHEDULERS",
]

ADMISSION_POLICIES = ("reject", "shed-oldest", "backpressure")
SCHEDULERS = ("fair", "priority")

# event kinds: completions settle before same-instant arrivals so a freed
# slot is visible to the arrival's admission check
_EV_COMPLETE = 0
_EV_ARRIVAL = 1


class QueueFullError(RuntimeError):
    """Raised by :meth:`TenantQueue.push` when the queue is at capacity."""

    def __init__(self, tenant: str, capacity: int) -> None:
        super().__init__(
            f"tenant {tenant!r} ingest queue full (capacity {capacity})"
        )
        self.tenant = tenant
        self.capacity = capacity


class TenantQueue:
    """Bounded FIFO of pending ``(arrival_ns, batch_index)`` entries."""

    def __init__(self, tenant: str, capacity: int) -> None:
        require(capacity >= 1, "queue capacity must be >= 1")
        self.tenant = tenant
        self.capacity = capacity
        self._items: deque[tuple[float, int]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, arrival_ns: float, batch_index: int) -> None:
        if self.full:
            raise QueueFullError(self.tenant, self.capacity)
        self._items.append((arrival_ns, batch_index))

    def pop(self) -> tuple[float, int]:
        require(len(self._items) > 0, "pop from empty tenant queue")
        return self._items.popleft()

    def shed_oldest(self) -> tuple[float, int]:
        """Evict the head entry (the shed-oldest admission action)."""
        return self.pop()


class _TenantState:
    """Server-side runtime state for one tenant."""

    def __init__(
        self, workload: TenantWorkload, engine: GCSMEngine,
        queue: TenantQueue, metrics: TenantMetrics,
    ) -> None:
        self.workload = workload
        self.engine = engine
        self.queue = queue
        self.metrics = metrics
        self.next_arrival_index = 0   # cursor into workload.batches
        self.stall_offset_ns = 0.0    # accumulated backpressure shift
        self.busy = False             # a batch of this tenant is in service
        self.waiting: tuple[float, int] | None = None  # stalled arrival
        self.last_served_seq = -1     # for fair/priority tie-breaking

    @property
    def ready(self) -> bool:
        return not self.busy and len(self.queue) > 0


class MatchService:
    """Multi-tenant continuous matching over a simulated device fleet."""

    def __init__(
        self,
        workloads: list[TenantWorkload],
        *,
        num_devices: int = 1,
        queue_capacity: int = 8,
        scheduler: str = "fair",
        admission: str = "reject",
        pipeline: bool = True,
        device: DeviceConfig | None = None,
        seed: int = 0,
        engine_kwargs: dict | None = None,
    ) -> None:
        require(len(workloads) >= 1, "need at least one tenant")
        require(num_devices >= 1, "need at least one device")
        require(scheduler in SCHEDULERS, f"unknown scheduler {scheduler!r}")
        require(admission in ADMISSION_POLICIES,
                f"unknown admission policy {admission!r}")
        names = [w.name for w in workloads]
        require(len(set(names)) == len(names), "tenant names must be unique")
        self.scheduler = scheduler
        self.admission = admission
        self.pipeline = pipeline
        self.num_devices = num_devices
        self.queue_capacity = queue_capacity
        self.seed = seed
        kwargs = dict(engine_kwargs or {})
        self.tenants: dict[str, _TenantState] = {}
        kwargs.update(schedule="pipelined" if pipeline else "serial")
        for w in workloads:
            engine = GCSMEngine(
                w.initial_graph, w.query, seed=seed, device=device, **kwargs
            )
            self.tenants[w.name] = _TenantState(
                w, engine, TenantQueue(w.name, queue_capacity),
                TenantMetrics(w.name, w.priority),
            )
        self._order = names  # round-robin order
        self._rr_next = 0
        self._free_devices = num_devices
        self._events: list[tuple[float, int, int, str]] = []
        self._seq = 0
        self._now = 0.0
        self._serve_seq = 0
        self._counters = AccessCounters()

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _schedule(self, when: float, kind: int, tenant: str) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, kind, self._seq, tenant))

    def _schedule_next_arrival(self, state: _TenantState) -> None:
        """Put the tenant's next pending arrival on the event heap."""
        i = state.next_arrival_index
        if i >= state.workload.num_batches:
            return
        w = state.workload
        if w.arrival == "closed":
            if i == 0:
                when = w.arrival_ns[0]
            else:
                # resolved at completion time: previous end + think time
                when = self._now + w.think_ns
        else:
            when = w.arrival_ns[i] + state.stall_offset_ns
        self._schedule(max(when, self._now), _EV_ARRIVAL, w.name)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, state: _TenantState, sched_ns: float) -> None:
        """Apply the admission policy to the tenant's next arrival."""
        m = state.metrics
        idx = state.next_arrival_index
        m.on_arrival(self._now)
        try:
            state.queue.push(self._now, idx)
        except QueueFullError:
            if self.admission == "reject":
                m.rejected += 1
            elif self.admission == "shed-oldest":
                state.queue.shed_oldest()
                m.shed += 1
                state.queue.push(self._now, idx)
            else:  # backpressure: the producer stalls with this batch in hand
                state.waiting = (sched_ns, idx)
                m.sample_depth(len(state.queue))
                return  # next arrival deferred until this one is admitted
        state.next_arrival_index = idx + 1
        m.sample_depth(len(state.queue))
        if state.workload.arrival != "closed":
            self._schedule_next_arrival(state)

    def _admit_waiting(self, state: _TenantState) -> None:
        """A queue slot freed: admit the stalled arrival (backpressure)."""
        if state.waiting is None or state.queue.full:
            return
        sched_ns, idx = state.waiting
        state.waiting = None
        stall = max(0.0, self._now - sched_ns)
        state.metrics.stall_ns += stall
        state.stall_offset_ns += stall
        state.queue.push(self._now, idx)
        state.next_arrival_index = idx + 1
        state.metrics.sample_depth(len(state.queue))
        if state.workload.arrival != "closed":
            self._schedule_next_arrival(state)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _pick_tenant(self) -> _TenantState | None:
        ready = [self.tenants[n] for n in self._order if self.tenants[n].ready]
        if not ready:
            return None
        if self.scheduler == "priority":
            best_prio = max(s.workload.priority for s in ready)
            tied = [s for s in ready if s.workload.priority == best_prio]
            return min(tied, key=lambda s: s.last_served_seq)
        # fair: round-robin scan from the cursor
        n = len(self._order)
        for off in range(n):
            state = self.tenants[self._order[(self._rr_next + off) % n]]
            if state.ready:
                self._rr_next = (self._order.index(state.workload.name) + 1) % n
                return state
        return None  # pragma: no cover - ready list non-empty above

    def _dispatch(self) -> None:
        """Assign ready batches to free devices until one side runs out."""
        while self._free_devices > 0:
            state = self._pick_tenant()
            if state is None:
                return
            arrival_ns, idx = state.queue.pop()
            self._admit_waiting(state)  # a slot just freed
            batch = state.workload.batches[idx]
            try:
                result = state.engine.process_batch(batch)
            except Exception:  # this tenant's batch is lost, nobody else's
                state.metrics.errors.append(traceback.format_exc())
                if state.workload.arrival == "closed":
                    self._schedule_next_arrival(state)
                continue
            self._counters.merge(result.match_counters)
            service_ns = result.breakdown.pipelined_ns
            start = self._now
            end = start + service_ns
            state.busy = True
            self._serve_seq += 1
            state.last_served_seq = self._serve_seq
            state.metrics.on_complete(
                arrival_ns, start, end, len(batch), result.delta_count
            )
            self._free_devices -= 1
            self._schedule(end, _EV_COMPLETE, state.workload.name)

    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        """Drive every tenant's stream to completion; returns the report."""
        wall_start = time.perf_counter()
        for state in self.tenants.values():
            self._schedule_next_arrival(state)
        makespan = 0.0
        while self._events:
            when, kind, _, name = heapq.heappop(self._events)
            self._now = max(self._now, when)
            state = self.tenants[name]
            if kind == _EV_ARRIVAL:
                self._admit(state, when)
            else:  # complete
                state.busy = False
                self._free_devices += 1
                makespan = max(makespan, self._now)
                state.metrics.sample_depth(len(state.queue))
                if state.workload.arrival == "closed":
                    self._schedule_next_arrival(state)
            self._dispatch()
        wall = time.perf_counter() - wall_start
        schedule = None
        if self.pipeline:
            agg: dict[str, float] = {}
            for state in self.tenants.values():
                rep = state.engine.schedule_report().to_dict()
                for key in ("serial_ns", "makespan_ns", "overlap_ns",
                            "fill_ns", "drain_ns"):
                    agg[key] = agg.get(key, 0.0) + rep[key]
            agg["speedup"] = (
                agg["serial_ns"] / agg["makespan_ns"] if agg.get("makespan_ns") else 1.0
            )
            schedule = agg
        report = ServiceReport(
            scheduler=self.scheduler,
            admission=self.admission,
            pipeline=self.pipeline,
            num_devices=self.num_devices,
            queue_capacity=self.queue_capacity,
            seed=self.seed,
            makespan_ns=makespan,
            wall_clock_s=wall,
            tenants=[s.metrics.to_dict() for s in self.tenants.values()],
            counters=self._counters.summary(),
            schedule=schedule,
        )
        return report
