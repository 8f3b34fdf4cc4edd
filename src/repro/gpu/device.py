"""Device model and channel cost constants.

The paper's platform (Sec. VI-A): dual Xeon Gold 6226R (32 cores), RTX3090
(24 GB global memory, 82 SMs, kernels launched as 82 blocks x 1024 threads),
PCIe interconnect.  CUDA offers three CPU->GPU data paths (Sec. II-C):

* **DMA** (``cudaMemcpy``) — high bandwidth for bulk transfers, but each
  request pays a setup cost, so it is wrong for small reads.
* **Unified memory** — page-granular (4 KiB) demand migration with a device
  page cache; wasteful for fine-grained access and each fault stalls.
* **Zero-copy** — direct loads of CPU memory in 128 B cache lines; no setup
  cost, only moves what is touched, but every access crosses PCIe.

``DeviceConfig`` encodes those channels plus GPU global-memory bandwidth and
aggregate compute throughput for the GPU and the 32-thread CPU.  Absolute
values are *scaled analogs* — what the reproduction preserves is the
relative cost structure (global memory ~40x cheaper per byte than PCIe, UM
faults orders of magnitude above a zero-copy line, DMA amortizing only in
bulk), which is what produces the paper's system ranking.  Memory sizes are
scaled by the same ~1e4 factor as the datasets (see
:mod:`repro.graphs.datasets`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.graphs.datasets import DEVICE_BUFFER_BYTES, DEVICE_TOTAL_BYTES

__all__ = [
    "DeviceConfig",
    "ClusterConfig",
    "default_device",
    "BYTES_PER_NEIGHBOR",
    "INTERCONNECTS",
]

#: Neighbor-list entry width: the paper's CUDA kernels use int32 vertex ids.
BYTES_PER_NEIGHBOR = 4


@dataclass(frozen=True)
class DeviceConfig:
    """Cost/capacity model of the simulated CPU-GPU system.

    All times in nanoseconds, sizes in bytes, bandwidths in bytes/ns (= GB/s
    divided by ~1e9... conveniently GB/s == bytes/ns within 7%; we use exact
    bytes-per-nanosecond values).
    """

    # --- capacities ----------------------------------------------------
    #: device memory: the cache buffer plus the kernel's reserve
    #: (``repro.graphs.datasets.DEVICE_KERNEL_RESERVE_BYTES``)
    global_memory_bytes: int = DEVICE_TOTAL_BYTES
    #: budget available for cached graph data (paper: 24 GB - ~10 GB kernel)
    cache_buffer_bytes: int = DEVICE_BUFFER_BYTES

    # --- PCIe / zero-copy ----------------------------------------------
    pcie_bandwidth_bpns: float = 16.0  # ~16 GB/s effective PCIe 3.0 x16
    zero_copy_line_bytes: int = 128  # zero-copy moves 128 B cache lines
    zero_copy_line_overhead_ns: float = 2.0  # per-line issue overhead (amortized over warps)

    # --- peer interconnect (multi-GPU) -----------------------------------
    #: device-to-device reads of a remote shard's cached lists.  Defaults are
    #: NVLink-class: well above PCIe bandwidth, small per-line issue cost.
    #: A remote read still stalls the requesting kernel (same reasoning as
    #: zero-copy: fine-grained, latency-bound), so PEER traffic is priced as
    #: a stall, not overlapped.
    peer_bandwidth_bpns: float = 40.0
    peer_line_bytes: int = 128
    peer_line_overhead_ns: float = 1.5

    # --- unified memory -------------------------------------------------
    um_page_bytes: int = 4096
    um_fault_overhead_ns: float = 25_000.0  # GPU page-fault handling stall
    #: fraction of device memory usable as the UM page cache
    um_cache_fraction: float = 1.0

    # --- DMA -------------------------------------------------------------
    #: per-request engine setup; scaled with the ~1e4 data-size scaling so
    #: fixed costs keep their paper-relative weight
    dma_setup_ns: float = 1_000.0
    dma_bandwidth_bpns: float = 14.0  # pinned-memory DMA over PCIe

    # --- memories --------------------------------------------------------
    gpu_global_bandwidth_bpns: float = 700.0  # RTX3090-class HBM/GDDR6X
    cpu_dram_bandwidth_bpns: float = 100.0  # dual-socket DDR4 aggregate

    # --- compute ----------------------------------------------------------
    #: aggregate GPU throughput for intersection/compare ops (82 blocks x
    #: 1024 threads; tens of thousands of resident threads hide memory
    #: latency almost completely): ops per nanosecond
    gpu_compute_ops_per_ns: float = 60.0
    #: aggregate 32-thread CPU throughput for the same pointer-chasing,
    #: branchy inner loop — latency-bound with far less parallelism to hide
    #: it, hence the large gap to the GPU figure
    cpu_compute_ops_per_ns: float = 1.5
    #: 32-thread CPU throughput for the frequency-estimation walks: straight
    #: sequential list scans with trivial control flow, far friendlier to
    #: prefetchers and SIMD than the matching loops — hence the higher figure
    cpu_estimator_ops_per_ns: float = 6.0

    # --- derived helpers ---------------------------------------------------
    def zero_copy_lines(self, nbytes: np.ndarray) -> np.ndarray:
        """128 B lines a zero-copy read of each ``nbytes`` touches (ceil
        division, 0 for 0)."""
        return -(-nbytes // self.zero_copy_line_bytes)

    def zero_copy_time_ns(self, lines: int) -> float:
        moved = lines * self.zero_copy_line_bytes
        return moved / self.pcie_bandwidth_bpns + lines * self.zero_copy_line_overhead_ns

    def peer_lines(self, nbytes: np.ndarray) -> np.ndarray:
        """Interconnect lines a peer read of each ``nbytes`` touches (ceil
        division, 0 for 0)."""
        return -(-nbytes // self.peer_line_bytes)

    def peer_time_ns(self, lines: int) -> float:
        moved = lines * self.peer_line_bytes
        return moved / self.peer_bandwidth_bpns + lines * self.peer_line_overhead_ns

    def um_fault_time_ns(self, faults: int) -> float:
        moved = faults * self.um_page_bytes
        return faults * self.um_fault_overhead_ns + moved / self.pcie_bandwidth_bpns

    def dma_time_ns(self, nbytes: int, requests: int = 1) -> float:
        """Array-valued in ``nbytes``; nothing moved in no request is 0.0."""
        return requests * self.dma_setup_ns + nbytes / self.dma_bandwidth_bpns

    def gpu_read_time_ns(self, nbytes: int) -> float:
        return nbytes / self.gpu_global_bandwidth_bpns

    def cpu_read_time_ns(self, nbytes: int) -> float:
        return nbytes / self.cpu_dram_bandwidth_bpns

    def um_cache_pages(self) -> int:
        usable = int(self.global_memory_bytes * self.um_cache_fraction)
        return max(1, usable // self.um_page_bytes)


def default_device() -> DeviceConfig:
    """The scaled RTX3090-class device used by all paper experiments."""
    return DeviceConfig()


#: named interconnect presets: (peer_bandwidth_bpns, peer_line_overhead_ns).
#: ``nvlink`` is an NVLink3-class point-to-point link; ``pcie`` is P2P over
#: the shared PCIe root complex — barely better than host zero-copy, which is
#: why PCIe-only multi-GPU boxes scale poorly on fine-grained reads.
INTERCONNECTS: dict[str, tuple[float, float]] = {
    "nvlink": (40.0, 1.5),
    "pcie": (12.0, 2.5),
}


@dataclass(frozen=True)
class ClusterConfig:
    """A fleet of identical devices joined by a peer interconnect.

    ``num_devices`` simulated GPUs, each with its own ``base`` DeviceConfig
    (own global memory, cache buffer, and host PCIe link — multi-GPU hosts
    give every card its own x16 slot).  ``interconnect`` picks the peer-link
    cost preset applied on top of ``base``.  ``allreduce_latency_ns`` is the
    per-step software/launch latency of the ring all-reduce used to combine
    per-shard ΔM after matching — scaled by the same factor as
    ``dma_setup_ns`` so the launch-dominated collective keeps its real-world
    weight relative to the scaled-down batches.
    """

    num_devices: int = 1
    interconnect: str = "nvlink"
    base: DeviceConfig = DeviceConfig()
    allreduce_latency_ns: float = 150.0

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.interconnect not in INTERCONNECTS:
            raise ValueError(
                f"unknown interconnect {self.interconnect!r}; "
                f"choose from {sorted(INTERCONNECTS)}"
            )

    def device(self) -> DeviceConfig:
        """The per-shard DeviceConfig with the interconnect preset applied."""
        bw, overhead = INTERCONNECTS[self.interconnect]
        return replace(
            self.base, peer_bandwidth_bpns=bw, peer_line_overhead_ns=overhead
        )

    def allreduce_time_ns(self, nbytes: int) -> float:
        """Ring all-reduce of ``nbytes`` across the fleet: ``2(N-1)`` steps,
        each paying the step latency plus a ``nbytes/N`` payload transfer.
        Zero for a single device (nothing to combine)."""
        n = self.num_devices
        if n <= 1:
            return 0.0
        dev = self.device()
        steps = 2 * (n - 1)
        per_step_payload = max(1, nbytes // n)
        return steps * (
            self.allreduce_latency_ns + per_step_payload / dev.peer_bandwidth_bpns
        )

