"""Service-side telemetry: shed accounting, flight-recorder bundles,
the TELEMETRY wire endpoint, and the scheduler loop's track name."""

import asyncio
import json
import random

from repro.globalq.queries import AggregateQuery
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.net.bus import MessageBus
from repro.obs import check as obs_check
from repro.obs.telemetry import Telemetry
from repro.service import (
    FAMILY_SECURE_AGG,
    QueryDescriptor,
    ServiceConfig,
    ServicePopulation,
    SsiQueryService,
    top,
)
from repro.service.admission import Overloaded
from repro.workloads.people import CITIES, PersonRecord


def make_population(count: int = 32) -> ServicePopulation:
    rng = random.Random(23)
    nodes = [
        PdsNode(
            i,
            [
                PersonRecord(
                    {
                        "city": CITIES[rng.randrange(len(CITIES))],
                        "salary": float(1200 + rng.randrange(1800)),
                    }
                )
            ],
        )
        for i in range(count)
    ]
    return ServicePopulation(nodes, TokenFleet(0))


DESCRIPTOR = QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.sum("salary"))


class TestOverloadedBurst:
    """A forced shed burst leaves a validating bundle with queue depths."""

    def test_burst_dumps_a_bundle_with_queue_depths(self, tmp_path):
        asyncio.run(self._burst(tmp_path))

    async def _burst(self, tmp_path):
        with Telemetry(sample_rate=1.0, dump_dir=tmp_path) as bundle:
            service = SsiQueryService(
                make_population(),
                ServiceConfig(max_queue_depth=1, cache_capacity=0),
                telemetry=bundle,
            )
            service.start()
            try:
                outcomes = await asyncio.gather(
                    *(service.submit(DESCRIPTOR) for _ in range(6)),
                    return_exceptions=True,
                )
            finally:
                await service.stop()
            sheds = [o for o in outcomes if isinstance(o, Overloaded)]
            served = [o for o in outcomes if not isinstance(o, Exception)]
            assert sheds and served  # overload, not outage

            registry = service.registry.snapshot()
            assert registry["service.shed"] == len(sheds)
            assert registry[f"service.shed.{DESCRIPTOR.query_class}"] == len(
                sheds
            )
            assert registry["service.shed_queue_depth"] >= 1

            assert bundle.recorder.triggers == len(sheds)
            assert bundle.recorder.last_trigger["reason"] == "overloaded"
            assert bundle.recorder.dumps

            path = bundle.recorder.dumps[0]
            assert obs_check.check_file(path) == []
            lines = [
                json.loads(line) for line in path.read_text().splitlines()
            ]
            header = lines[0]
            assert header["reason"] == "overloaded"
            assert header["details"]["queue_depth"] >= 1
            assert header["details"]["query_class"] == DESCRIPTOR.query_class
            # The frozen metrics snapshot is the *service* registry: the
            # shedding queue depth rides inside the bundle.
            snapshot = lines[-1]["snapshot"]
            assert snapshot["service.shed_queue_depth"] >= 1
            # The always-keep channel captured each shed as an event.
            shed_events = [
                r
                for r in lines
                if r["type"] == "event" and r["name"] == "service.shed"
            ]
            assert shed_events
            assert all(
                e["attrs"]["queue_depth"] >= 1 for e in shed_events
            )

    def test_sheds_recorded_even_when_trace_unsampled(self):
        asyncio.run(self._unsampled())

    async def _unsampled(self):
        with Telemetry(sample_rate=0.0) as bundle:
            service = SsiQueryService(
                make_population(),
                ServiceConfig(max_queue_depth=1, cache_capacity=0),
                telemetry=bundle,
            )
            service.start()
            try:
                outcomes = await asyncio.gather(
                    *(service.submit(DESCRIPTOR) for _ in range(4)),
                    return_exceptions=True,
                )
            finally:
                await service.stop()
        sheds = [o for o in outcomes if isinstance(o, Overloaded)]
        assert sheds
        # Spans were sampled away, but the anomaly channel still fired.
        assert bundle.recorder.triggers == len(sheds)
        assert any(
            e["name"] == "service.shed" for e in bundle.tracer.events
        )


class TestTelemetryEndpoint:
    def test_wire_snapshot_and_dashboard_render(self):
        asyncio.run(self._round_trip())

    async def _round_trip(self):
        with Telemetry(sample_rate=1.0) as bundle:
            service = SsiQueryService(make_population(), telemetry=bundle)
            service.start()
            bus = MessageBus(rng=random.Random(9))
            server = asyncio.ensure_future(
                service.serve_endpoint(bus.register("ssi"))
            )
            try:
                await service.submit(DESCRIPTOR)
                snapshot = await top.fetch(bus.register("operator"))
            finally:
                server.cancel()
                await service.stop()
        assert snapshot["metrics"]["service.completed"] == 1
        assert snapshot["telemetry"]["sampler"]["rate"] == 1.0
        assert snapshot["telemetry"]["spans_recorded"] > 0
        rendered = top.render(snapshot)
        assert "SSI telemetry" in rendered
        assert "completed=1" in rendered
        assert "sampling: rate=1.0" in rendered

    def test_snapshot_without_bundle_omits_telemetry(self):
        asyncio.run(self._plain())

    async def _plain(self):
        service = SsiQueryService(make_population())
        service.start()
        try:
            await service.submit(DESCRIPTOR)
        finally:
            await service.stop()
        snapshot = service.telemetry_snapshot()
        assert snapshot["metrics"]["service.completed"] == 1
        assert "telemetry" not in snapshot
        # The dashboard renders a plain snapshot too.
        assert "completed=1" in top.render(snapshot)


class TestSchedulerTrack:
    def test_scheduler_loop_is_one_named_track(self):
        asyncio.run(self._run())

    async def _run(self):
        from repro.obs.export import chrome_trace

        with Telemetry(sample_rate=1.0) as bundle:
            service = SsiQueryService(
                make_population(),
                ServiceConfig(cache_capacity=0),
                telemetry=bundle,
            )
            service.start()
            try:
                await asyncio.gather(
                    *(service.submit(DESCRIPTOR) for _ in range(3))
                )
            finally:
                await service.stop()
        tracer = bundle.tracer
        # Every execution sits on the one scheduler loop's track.
        (track,) = {s.track for s in tracer.spans_named("service.query")}
        assert tracer.track_names[track] == "ssi-scheduler"
        assert list(tracer.track_names.values()).count("ssi-scheduler") == 1
        document = chrome_trace(tracer)
        thread_meta = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "ssi-scheduler" in thread_meta


class TestLatencySloPath:
    def test_completions_feed_the_slo_monitor(self):
        asyncio.run(self._run())

    async def _run(self):
        with Telemetry(
            sample_rate=1.0,
            slo_p99_ms={DESCRIPTOR.query_class: 0.000001},
            slo_window=2,
        ) as bundle:
            service = SsiQueryService(
                make_population(),
                ServiceConfig(cache_capacity=0),
                telemetry=bundle,
            )
            service.start()
            try:
                for _ in range(2):
                    await service.submit(DESCRIPTOR)
            finally:
                await service.stop()
        # An absurdly tight SLO guarantees the window breached.
        assert bundle.slo.breaches.get(DESCRIPTOR.query_class, 0) >= 1
        assert bundle.recorder.last_trigger["reason"] == "slo_breach"
