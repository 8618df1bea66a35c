"""The SSI's delta ingest pipeline: decode, bounded fair queue, fold thread.

The only way a wire delta reaches a pane. A ``DELTA_BATCH`` payload is
decoded on the caller's thread, its entries wait in a
:class:`~repro.service.admission.FairQueue` keyed by subscription — a PDS
storm against one subscription cannot starve the others, and overflow
sheds with the same typed ``Overloaded`` as query admission — and a drain
loop folds them in batches on one dedicated thread, so the event loop never
multiplies a ciphertext. Every offered delta lands in exactly one of
``globalq.ingest.{folded,shed,rejected}`` (replays: ``globalq.delta.duplicates``).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.errors import NetError
from repro.net.codec import decode_delta_batch
from repro.service.admission import FairQueue, Overloaded
from repro.service.standing import StandingRegistry


class IngestPipeline:
    """``start`` / ``offer`` / ``drain`` / ``stop`` on the event-loop thread;
    only :meth:`StandingRegistry.ingest_many` runs on the fold thread."""

    def __init__(
        self,
        standing: StandingRegistry,
        registry: obs.MetricsRegistry,
        depth: int,
        batch_max: int,
        telemetry=None,
    ) -> None:
        self.standing = standing
        self.registry = registry
        self.batch_max = batch_max
        self.telemetry = telemetry
        self._queue = FairQueue(depth)
        #: Deltas queued or being folded right now.
        self._pending = 0
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None

    def start(self) -> None:
        # One dedicated fold thread: batch folds serialize through the
        # registry lock anyway, and a separate executor keeps a delta storm
        # from stealing the query-execution thread (and vice versa).
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ssi-ingest"
        )
        self._task = asyncio.ensure_future(self._drain_loop())

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        self._executor.shutdown(wait=True)
        self._executor = None

    def offer(self, payload: bytes) -> None:
        """Queue the deltas of one ``DELTA_BATCH`` payload.

        Fire-and-forget: nothing is replied. Any decode failure — not just
        :class:`ProtocolError` but anything a hostile payload can throw —
        counts the frame under ``globalq.delta.rejected`` (the delta
        family's tally) and ``service.delta.rejected`` (the service-level
        guard), so a poison frame can never tear down the caller's reader
        loop. Deltas past the queue bound are shed.
        """
        if self._task is None:
            raise NetError("ingest pipeline is not running")
        try:
            entries = decode_delta_batch(payload)
        except Exception:
            self.registry.counter("globalq.delta.rejected").inc()
            self.registry.counter("service.delta.rejected").inc()
            return
        self.registry.percentiles("globalq.ingest.frame_batch").observe(
            len(entries)
        )
        accepted = 0
        for sub_id, delta in entries:
            try:
                self._queue.push(sub_id, delta)
            except Overloaded as exc:
                self._account_shed(exc)
            else:
                accepted += 1
        if accepted:
            self._pending += accepted
            self._idle.clear()
            self._wake.set()
            self.registry.gauge("globalq.ingest.queue_depth").max(
                self._queue.size
            )

    async def drain(self) -> None:
        """Wait until every queued delta has folded (publication barrier)."""
        if self._pending:
            await self._idle.wait()

    def _account_shed(self, exc: Overloaded) -> None:
        self.registry.counter("globalq.ingest.shed").inc()
        obs.event("globalq.ingest.shed", queued=exc.queued, limit=exc.limit)
        if self.telemetry is not None:
            self.telemetry.recorder.trigger(
                "ingest_overloaded", queued=exc.queued, limit=exc.limit
            )

    async def _drain_loop(self) -> None:
        """Fold the queue in batches of ``batch_max`` on the fold thread.

        The fold itself (big-int multiplication, possibly sharded onto the
        worker pool) runs off the loop — the loop only pops the queue and
        does the accounting, so a delta storm cannot stall frame receive
        or query scheduling.
        """
        tracer = obs.get_tracer()
        if tracer is not None:
            tracer.label_current_track("ssi-ingest")
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._queue.size:
                batch = [
                    self._queue.pop()
                    for _ in range(min(self.batch_max, self._queue.size))
                ]
                started = time.perf_counter()
                try:
                    folded, rejected = await loop.run_in_executor(
                        self._executor, self.standing.ingest_many, batch
                    )
                except Exception:  # surface in metrics, never die
                    folded, rejected = 0, len(batch)
                    self.registry.counter("service.errors").inc()
                elapsed = time.perf_counter() - started
                self._pending -= len(batch)
                self._account(len(batch), folded, rejected, elapsed)
            if self._pending == 0:
                self._idle.set()

    def _account(
        self, batch: int, folded: int, rejected: int, elapsed: float
    ) -> None:
        self.registry.counter("globalq.ingest.deltas").inc(batch)
        if folded:
            self.registry.counter("globalq.ingest.folded").inc(folded)
        if rejected:
            self.registry.counter("globalq.ingest.rejected").inc(rejected)
        self.registry.percentiles("globalq.ingest.batch_size").observe(batch)
        self.registry.percentiles("globalq.ingest.fold_ms").observe(
            elapsed * 1000.0
        )
        if elapsed > 0:
            self.registry.gauge("globalq.ingest.deltas_per_s").set(
                round(batch / elapsed, 1)
            )
