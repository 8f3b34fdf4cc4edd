"""Simulated-time accounting.

All experiment timings in the reproduction are *simulated*: deterministic
functions of the traffic and work counted during a real run of the matching
algorithm, priced with the :class:`~repro.gpu.device.DeviceConfig` channel
model.  This keeps the figures machine-independent and reproducible, and is
the substitution for the paper's wall-clock measurements on an RTX3090 (see
DESIGN.md §2).  Wall-clock performance of the harness itself is measured
separately by pytest-benchmark.

The kernel model: a GPU (or parallel CPU) matching kernel overlaps compute
with memory traffic across tens of thousands of threads, so its duration is
the **maximum** of the compute time and each memory stream — except
zero-copy and UM-fault stalls, which serialize with execution (paper
Sec. II-C: "zero-copy access stalls the GPU kernel"), so they *add*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import DeviceConfig

__all__ = [
    "simulated_time_ns",
    "TimeBreakdown",
    "BatchSchedule",
    "PipelineClock",
    "ScheduleReport",
]


def simulated_time_ns(
    counters: AccessCounters,
    device: DeviceConfig,
    *,
    platform: str = "gpu",
) -> float:
    """Price one kernel's counted work as nanoseconds.

    ``platform`` selects the executing processor: ``"gpu"`` (82x1024-thread
    kernel), ``"cpu"`` (32-thread host baseline) or ``"cpu_estimator"``
    (the 32-thread frequency-estimation walks).
    """
    if platform == "gpu":
        compute = counters.compute_ops / device.gpu_compute_ops_per_ns
        overlap = max(
            compute,
            device.gpu_read_time_ns(counters.bytes_by_channel[Channel.GPU_GLOBAL]),
        )
        stalls = (
            device.zero_copy_time_ns(
                counters.transactions_by_channel[Channel.ZERO_COPY]
            )
            + device.um_fault_time_ns(counters.um_faults)
            # remote (peer) reads are as fine-grained as zero-copy ones and
            # stall the requesting kernel the same way — only the link is
            # faster (NVLink) or comparable (PCIe P2P)
            + device.peer_time_ns(counters.transactions_by_channel[Channel.PEER])
        )
        dma = device.dma_time_ns(counters.dma_bytes, counters.dma_requests) \
            if counters.dma_requests else 0.0
        return overlap + stalls + dma
    if platform == "cpu":
        compute = counters.compute_ops / device.cpu_compute_ops_per_ns
        mem = device.cpu_read_time_ns(counters.bytes_by_channel[Channel.CPU_DRAM])
        return max(compute, mem)
    if platform == "cpu_estimator":
        compute = counters.compute_ops / device.cpu_estimator_ops_per_ns
        mem = device.cpu_read_time_ns(counters.bytes_by_channel[Channel.CPU_DRAM])
        return max(compute, mem)
    raise ValueError(f"unknown platform {platform!r}")


@dataclass
class TimeBreakdown:
    """Per-batch phase timings (the Fig. 13 / Table II decomposition).

    * ``update_ns``   — step 1, folding ΔE into the CPU store
    * ``estimate_ns`` — step 2, random-walk frequency estimation ("FE")
    * ``pack_ns``     — step 3, DCSR packing + DMA to the GPU ("DC")
    * ``match_ns``    — step 4, the incremental matching kernel
    * ``reorg_ns``    — step 5, CPU graph reorganization
    * ``comm_ns``     — multi-GPU only: cross-device collectives (ΔM
      all-reduce); always 0 on a single device
    * ``prefilter_ns`` — aggregate-invariant index maintenance + the
      certified-skip decision (``repro.core.prefilter``); a host-side step
      between update and estimate, always 0 with ``prefilter="off"``

    The three pipeline fields are 0 for serially executed batches and are
    filled in by :class:`PipelineClock` when the engine models cross-batch
    stage overlap:

    * ``critical_path_ns`` — this batch's contribution to the pipelined
      schedule's makespan (the wall the stream clock actually advanced);
      the sum over a stream equals the schedule makespan, and per batch it
      is ``<= total_ns`` whenever overlap hid some stage under another.
    * ``fill_ns``  — device idle time waiting on this batch's host prep
      (the pipeline-fill bubble: all of batch 0's prep, then any
      steady-state stalls of a CPU-bound pipeline).
    * ``drain_ns`` — schedule tail past this batch's last CPU-lane stage
      if the stream stopped here (the GPU/PEER lanes draining); the
      stream-level drain is the last batch's value.
    """

    update_ns: float = 0.0
    estimate_ns: float = 0.0
    pack_ns: float = 0.0
    match_ns: float = 0.0
    reorg_ns: float = 0.0
    comm_ns: float = 0.0
    prefilter_ns: float = 0.0
    critical_path_ns: float = 0.0
    fill_ns: float = 0.0
    drain_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        """Sum of the stage times — the *serial* execution time."""
        return (
            self.update_ns
            + self.estimate_ns
            + self.pack_ns
            + self.match_ns
            + self.reorg_ns
            + self.comm_ns
            + self.prefilter_ns
        )

    @property
    def pipelined_ns(self) -> float:
        """Schedule time of this batch: the critical path when a pipeline
        clock annotated it, the serial total otherwise."""
        return self.critical_path_ns if self.critical_path_ns else self.total_ns

    @property
    def fe_fraction(self) -> float:
        """Frequency-estimation share of total time (Table II's "FE")."""
        return self.estimate_ns / self.total_ns if self.total_ns else 0.0

    @property
    def dc_fraction(self) -> float:
        """Data-copy share of total time (Table II's "DC")."""
        return self.pack_ns / self.total_ns if self.total_ns else 0.0

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    def scaled(self, factor: float) -> "TimeBreakdown":
        return TimeBreakdown(*(getattr(self, f.name) * factor for f in fields(self)))


# ----------------------------------------------------------------------
# Pipelined stage scheduling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSchedule:
    """What the pipelined timeline made of one batch."""

    index: int
    #: makespan contribution: finish(k) - finish(k-1) (sums to the makespan)
    critical_path_ns: float
    #: device idle time waiting on this batch's host prep (fill bubble)
    fill_ns: float
    #: schedule tail past this batch's reorganize if the stream stopped here
    drain_ns: float


class PipelineClock:
    """Incremental scheduler for the staged per-batch pipeline.

    Models the overlapped execution of a host–device pipeline: batch
    *k+1*'s CPU stages (update → estimate → pack) run while batch *k* is
    still matching on the device.  The engine runs the stages in order; only
    this clock overlaps them.  It has three FIFO lanes — ``cpu`` (the host),
    ``gpu`` (the device kernel) and ``peer`` (the cross-device collective)
    — each running one stage at a time in batch order, and :meth:`advance`
    is the one place a stage is given its lane.  Dependencies:

    * CPU lane, FIFO: ``update(k) → prefilter(k) → estimate(k) →
      pack(k) → reorganize(k)`` then ``update(k+1)`` —
      the host store is serial.
    * ``match(k)`` starts after ``pack(k)`` (its cache must be shipped) and
      after ``match(k-1)`` (one in-order kernel lane per device fleet).
    * ``comm(k)`` (ΔM all-reduce) follows ``match(k)`` on the PEER lane.
    * ``reorganize(k)`` does **not** wait for ``match(k)``: the kernel
      reads a double-buffered epoch, so the host re-sorts immediately after
      packing.

    Feed each batch's serial stage durations to :meth:`advance`; it returns
    the batch's placement and mutates nothing outside the clock.  All times
    are simulated nanoseconds.
    """

    def __init__(self) -> None:
        self.cpu_ns = 0.0
        self.gpu_ns = 0.0
        self.peer_ns = 0.0
        self.num_batches = 0
        self.serial_ns = 0.0  # Σ stage durations (the no-overlap execution)
        self.makespan_ns = 0.0
        self.fill_ns = 0.0
        self.drain_ns = 0.0

    def advance(self, breakdown: TimeBreakdown) -> BatchSchedule:
        """Place one batch's stages on the lanes; returns its schedule."""
        prev_finish = self.makespan_ns
        start: dict[str, float] = {}
        end: dict[str, float] = {}

        # CPU lane: update → estimate → pack → reorganize, contiguous FIFO
        t = self.cpu_ns
        for name, dur in (
            ("update", breakdown.update_ns),
            ("prefilter", breakdown.prefilter_ns),
            ("estimate", breakdown.estimate_ns),
            ("pack", breakdown.pack_ns),
        ):
            start[name] = t
            t += dur
            end[name] = t
        # GPU lane: after this batch's pack and the previous match
        start["match"] = max(self.gpu_ns, end["pack"])
        fill = max(0.0, start["match"] - self.gpu_ns)  # device waited on prep
        end["match"] = start["match"] + breakdown.match_ns
        self.gpu_ns = end["match"]
        # reorganize continues on the CPU lane right after pack (shadow-copy
        # isolation lets it overlap this batch's own match)
        start["reorganize"] = t
        t += breakdown.reorg_ns
        end["reorganize"] = t
        self.cpu_ns = t
        # PEER lane: collective after the kernel drains
        start["comm"] = max(self.peer_ns, end["match"])
        end["comm"] = start["comm"] + breakdown.comm_ns
        self.peer_ns = end["comm"]

        finish = max(end.values())
        drain = max(0.0, finish - end["reorganize"])
        self.num_batches += 1
        self.serial_ns += breakdown.total_ns
        self.makespan_ns = max(self.makespan_ns, finish)
        self.fill_ns += fill
        self.drain_ns = drain  # stream drain = the last batch's tail
        return BatchSchedule(
            index=self.num_batches - 1,
            critical_path_ns=max(0.0, self.makespan_ns - prev_finish),
            fill_ns=fill,
            drain_ns=drain,
        )

    def annotate(self, breakdown: TimeBreakdown) -> BatchSchedule:
        """:meth:`advance` + write the pipeline fields into ``breakdown``."""
        sched = self.advance(breakdown)
        breakdown.critical_path_ns = sched.critical_path_ns
        breakdown.fill_ns = sched.fill_ns
        breakdown.drain_ns = sched.drain_ns
        return sched

    def report(self) -> "ScheduleReport":
        return ScheduleReport(
            num_batches=self.num_batches,
            serial_ns=self.serial_ns,
            makespan_ns=self.makespan_ns,
            fill_ns=self.fill_ns,
            drain_ns=self.drain_ns,
            lane_ns={"cpu": self.cpu_ns, "gpu": self.gpu_ns, "peer": self.peer_ns},
        )


@dataclass
class ScheduleReport:
    """Stream-level summary of a pipelined schedule."""

    num_batches: int
    serial_ns: float
    makespan_ns: float
    fill_ns: float
    drain_ns: float
    lane_ns: dict[str, float] = field(default_factory=dict)

    @property
    def overlap_ns(self) -> float:
        """Total stage time hidden by the schedule (serial - makespan)."""
        return max(0.0, self.serial_ns - self.makespan_ns)

    @property
    def speedup(self) -> float:
        """Serial-over-pipelined time ratio (>= 1 by construction)."""
        return self.serial_ns / self.makespan_ns if self.makespan_ns else 1.0

    def to_dict(self) -> dict:
        return {
            "num_batches": self.num_batches,
            "serial_ns": self.serial_ns,
            "makespan_ns": self.makespan_ns,
            "overlap_ns": self.overlap_ns,
            "fill_ns": self.fill_ns,
            "drain_ns": self.drain_ns,
            "speedup": self.speedup,
            "lane_ns": dict(self.lane_ns),
        }
