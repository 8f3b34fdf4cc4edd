"""Simulated CPU–GPU memory hierarchy.

The paper's systems all run one and the same matching kernel and differ only
in *where neighbor lists live and how they travel* — GPU global memory, PCIe
zero-copy cache lines, unified-memory page faults, or bulk DMA.  This package
models exactly that: :class:`~repro.gpu.device.DeviceConfig` holds the
channel cost model (derived from the paper's RTX3090/PCIe platform, Sec. II-C
and VI-A), :class:`~repro.gpu.counters.AccessCounters` records the traffic an
actual matching run generates, and the view classes in
:mod:`repro.gpu.views` route every neighbor-list access of the executor
through the appropriate channel.
"""

from repro.gpu.device import ClusterConfig, DeviceConfig, default_device
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.clock import TimeBreakdown, simulated_time_ns
from repro.gpu.memory import UnifiedMemoryPager, HostMemoryLayout
from repro.gpu.transfer import DmaEngine
from repro.gpu.views import (
    GraphView,
    HostCPUView,
    ZeroCopyView,
    UnifiedMemoryView,
    FullDeviceView,
)

__all__ = [
    "DeviceConfig",
    "ClusterConfig",
    "default_device",
    "AccessCounters",
    "Channel",
    "TimeBreakdown",
    "simulated_time_ns",
    "UnifiedMemoryPager",
    "HostMemoryLayout",
    "DmaEngine",
    "GraphView",
    "HostCPUView",
    "ZeroCopyView",
    "UnifiedMemoryView",
    "FullDeviceView",
]
