"""Bulk DMA transfer engine (``cudaMemcpy`` analog).

DMA is the right channel for the two bulk movements in the evaluated
systems: GCSM's single packed-DCSR upload per batch (paper Sec. V-B pads the
three arrays into one allocation precisely so one DMA transaction suffices)
and VSGM's k-hop neighbor-list uploads (which dominate its runtime in
Fig. 13).  Each request pays :attr:`DeviceConfig.dma_setup_ns` before the
bandwidth term — the reason fine-grained DMA is never competitive
(Sec. II-C).
"""

from __future__ import annotations

from repro.gpu.counters import AccessCounters
from repro.gpu.device import DeviceConfig

__all__ = ["DmaEngine"]


class DmaEngine:
    """Records DMA transfers into counters and prices them."""

    def __init__(self, device: DeviceConfig, counters: AccessCounters) -> None:
        self.device = device
        self.counters = counters

    def transfer(self, nbytes: int) -> float:
        """Move ``nbytes`` host→device in one request; returns simulated ns."""
        self.counters.record_dma(int(nbytes), requests=1)
        return self.device.dma_time_ns(int(nbytes), requests=1)
