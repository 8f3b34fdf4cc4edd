"""The pipelined schedule: staged, overlapped execution of Fig. 3.

The serial schedule runs the five steps of every batch back to back.  The
paper's system (and GPU batch-dynamic matchers generally) instead overlap
host-side preparation with device-side matching: while the kernel matches
batch *k*, the host already reorganizes batch *k*'s lists and
updates/estimates/packs batch *k+1*.

:class:`PipelinedSchedule` is the engine's schedule plug for
``schedule="pipelined"``; it re-sequences the stage methods
:class:`~repro.core.engine.GCSMEngine` exposes (``stage_host`` /
``stage_match`` / ``stage_reorganize``), whatever match stage the placement
and fan-out provide, in two coupled ways:

* **Simulated time** — a :class:`~repro.gpu.clock.PipelineClock` places each
  batch's stage durations on FIFO CPU/GPU/PEER lanes and annotates the
  batch's :class:`~repro.gpu.clock.TimeBreakdown` with ``critical_path_ns``
  / ``fill_ns`` / ``drain_ns``.  The per-batch critical path sums to the
  schedule makespan, which is what the service layer charges a device for.
* **Wall clock** — the GPU match really runs on a
  :func:`repro.parallel.submit` worker thread against a
  :meth:`~repro.graphs.dynamic_graph.DynamicGraph.freeze` of the store
  (copy-on-write isolation), while the host thread runs reorganize and the
  next batch's CPU stages concurrently.

**Bit-parity contract.**  Per-batch ΔM, ``MatchStats``, access counters,
cache selection, estimator output, and the final store are identical to the
serial schedule on any stream, because

1. the frozen view the kernel reads *is* the store state the serial kernel
   would have read (captured after update/pack, before reorganize);
2. reorganize consumes only batch *k*'s touch-set, which the kernel never
   mutates; and
3. the estimator's RNG is consumed in the same order (all CPU stages stay
   serialized on the host thread).

Only the three pipeline fields of the breakdown differ from the serial
schedule (they are zero there); ``total_ns`` and every stage time are equal.
The differential stream fuzzer enforces this via the ``"Pipelined"`` system
specs in :mod:`repro.core.validation`.
"""

from __future__ import annotations

from repro.core.engine import BatchResult, GCSMEngine, SerialSchedule, StagedBatch
from repro.gpu.clock import PipelineClock
from repro.parallel import submit

__all__ = ["PipelinedSchedule"]


class PipelinedSchedule(SerialSchedule):
    """Cross-batch stage overlap (same results, different clock).

    ``threaded=False`` keeps execution single-threaded — the simulated-time
    pipeline model still applies, so results and annotated breakdowns are
    identical either way; only the harness wall clock changes.
    """

    def __init__(self, threaded: bool = True) -> None:
        self.threaded = threaded
        self.clock = PipelineClock()

    def _overlaps(self, engine: GCSMEngine) -> bool:
        # an explicit-weight overlay is mutated by the host stages while the
        # kernel would still be reading it; plain streams (lookups reduce to
        # the pure hash) are the case the overlap is safe — and built — for
        overlay = engine.attributes
        return self.threaded and not (overlay is not None and overlay.num_overrides)

    def run_device(self, engine: GCSMEngine, staged: StagedBatch) -> None:
        """Within one batch, reorganize overlaps the match (the kernel reads
        a frozen epoch); across calls the clock keeps modeling cross-batch
        overlap, because its lanes persist on the engine."""
        if not self._overlaps(engine):
            return super().run_device(engine, staged)
        with engine.graph.freeze() as frozen:
            task = submit(engine.stage_match, staged, frozen)
            staged.breakdown.reorg_ns = engine.stage_reorganize()
            staged.land(task.result())

    def finish(self, engine: GCSMEngine, staged: StagedBatch) -> BatchResult:
        self.clock.annotate(staged.breakdown)
        return engine.finish(staged)

    def run_stream(self, engine: GCSMEngine, batches) -> list[BatchResult]:
        """Software-pipelined stream execution.

        While the device lane matches batch *k* (on its worker thread,
        against the frozen epoch), the host thread reorganizes *k* and runs
        update/estimate/pack of *k+1* — the schedule the clock models.
        Results are collected in batch order, so the returned list is
        exactly what the serial schedule would have produced.  A fleet's
        shards and ownership heat are per-engine state the next batch's
        prepare would overwrite, so fleets overlap within each batch only.
        """
        if not self._overlaps(engine) or engine.fleet is not None:
            return super().run_stream(engine, batches)
        results: list[BatchResult] = []
        inflight = None

        def drain() -> None:
            nonlocal inflight
            if inflight is not None:
                task, frozen, staged = inflight
                inflight = None
                try:
                    staged.land(task.result())
                finally:
                    frozen.release()
                results.append(self.finish(engine, staged))

        for raw in batches:
            staged = engine.stage_host(raw)
            if staged.skipped:
                # certified ΔM = 0: nothing to ship to the device lane; the
                # in-flight batch drains first so results stay in batch order
                drain()
                results.append(self.finish(engine, staged))
                continue
            frozen = engine.graph.freeze()
            task = submit(engine.stage_match, staged, frozen)
            # host continues immediately: the freeze isolates the kernel
            staged.breakdown.reorg_ns = engine.stage_reorganize()
            drain()
            inflight = (task, frozen, staged)
        drain()
        return results
