"""``python -m repro.service.top`` — a text dashboard over the TELEMETRY endpoint.

The :class:`~repro.service.server.SsiQueryService` answers ``TELEMETRY``
wire frames with a live snapshot (metrics registry + sampler + flight
recorder + SLO monitors). This module is the consumer: :func:`fetch`
requests one snapshot over a bus endpoint, :func:`render` turns it into
the classic ``top``-style text block.

Run standalone it demonstrates the loop end to end: a small traced
service is stood up on a simulated bus, queriers drive it, and the
dashboard is polled over the wire between bursts — the same frames a
separate operator process would send. Pass a path to a saved snapshot
JSON (e.g. captured by the E26 bench) to render it offline instead.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys

from repro.globalq.tokens import PdsNode, TokenFleet
from repro.net.bus import LinkProfile, MessageBus
from repro.net.codec import (
    KIND_QUERY,
    KIND_TELEMETRY,
    Frame,
    decode_json_payload,
    encode_json_payload,
)
from repro.obs.telemetry import Telemetry
from repro.service.descriptor import standard_mix
from repro.service.population import ServicePopulation
from repro.service.server import ServiceConfig, SsiQueryService
from repro.workloads.people import CITIES, PersonRecord

#: Registry keys rendered as headline scalars, in display order.
_HEADLINE = (
    "service.arrivals",
    "service.completed",
    "service.shed",
    "service.errors",
    "service.cache_hits_served",
    "service.queue_depth",
    "service.shed_queue_depth",
)


async def fetch(endpoint, service_addr: str = "ssi", timeout: float = 30.0) -> dict:
    """One TELEMETRY round trip over the bus; returns the decoded snapshot."""
    await endpoint.send(
        service_addr,
        Frame(
            KIND_TELEMETRY,
            endpoint.name,
            0,
            encode_json_payload({"request_id": f"{endpoint.name}/top"}),
        ),
    )
    while True:
        frame = await endpoint.recv(timeout=timeout)
        if frame.kind == KIND_TELEMETRY:
            return decode_json_payload(frame.payload)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def render(snapshot: dict) -> str:
    """The text dashboard for one telemetry snapshot."""
    metrics = snapshot.get("metrics", {})
    lines = ["== SSI telemetry ==", ""]

    headline = [
        f"{key.split('.', 1)[1]}={_fmt(metrics[key])}"
        for key in _HEADLINE
        if key in metrics
    ]
    if headline:
        lines.append("  " + "  ".join(headline))

    if "globalq.ingest.deltas" in metrics:
        fold = metrics.get("globalq.ingest.fold_ms") or {}
        batch = metrics.get("globalq.ingest.batch_size") or {}
        parts = [
            f"deltas={_fmt(metrics['globalq.ingest.deltas'])}",
            f"folded={_fmt(metrics.get('globalq.ingest.folded', 0))}",
            f"rate={_fmt(metrics.get('globalq.ingest.deltas_per_s', 0.0))}/s",
            f"fold_p50={fold.get('p50', 0.0):.1f}ms"
            if isinstance(fold, dict)
            else "",
            f"batch_avg={batch.get('mean', 0.0):.1f}"
            if isinstance(batch, dict)
            else "",
            f"shed={_fmt(metrics.get('globalq.ingest.shed', 0))}",
            f"rejected={_fmt(metrics.get('globalq.ingest.rejected', 0))}",
        ]
        lines.append("  ingest: " + "  ".join(p for p in parts if p))

    sheds = {
        key.rsplit(".", 1)[1]: value
        for key, value in metrics.items()
        if key.startswith("service.shed.")
    }
    if sheds:
        lines.append(
            "  rejects/class: "
            + "  ".join(f"{cls}={_fmt(n)}" for cls, n in sorted(sheds.items()))
        )

    latency = {
        key[len("service.latency_ms."):]: value
        for key, value in metrics.items()
        if key.startswith("service.latency_ms.") and isinstance(value, dict)
    }
    if "service.latency_ms" in metrics:
        latency["(all)"] = metrics["service.latency_ms"]
    if latency:
        lines.append("")
        lines.append(
            f"  {'class':<16} {'count':>7} {'p50_ms':>9} {'p99_ms':>9} "
            f"{'p999_ms':>9}"
        )
        for cls in sorted(latency):
            summary = latency[cls]
            lines.append(
                f"  {cls:<16} {summary.get('count', 0):>7} "
                f"{summary.get('p50', 0.0):>9.1f} "
                f"{summary.get('p99', 0.0):>9.1f} "
                f"{summary.get('p999', 0.0):>9.1f}"
            )

    telemetry = snapshot.get("telemetry")
    if telemetry:
        sampler = telemetry.get("sampler", {})
        recorder = telemetry.get("recorder", {})
        slo = telemetry.get("slo", {})
        lines.append("")
        lines.append(
            f"  sampling: rate={sampler.get('rate')} "
            f"kept={sampler.get('kept')}/{sampler.get('decisions')}  "
            f"spans={telemetry.get('spans_recorded')} "
            f"events={telemetry.get('events_recorded')} "
            f"dropped={telemetry.get('dropped_spans')}"
        )
        lines.append(
            f"  recorder: buffered={recorder.get('spans_buffered')}"
            f"/{recorder.get('capacity')} "
            f"triggers={recorder.get('triggers')} "
            f"dumps={len(recorder.get('dumps', []))}"
        )
        last = recorder.get("last_trigger")
        if last:
            lines.append(
                f"  last trigger: {last.get('reason')} {last.get('details')}"
            )
        breaches = slo.get("breaches", {})
        if breaches:
            lines.append(
                "  slo breaches: "
                + "  ".join(
                    f"{cls}={n}" for cls, n in sorted(breaches.items())
                )
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Standalone demo / offline rendering
# ----------------------------------------------------------------------
async def _demo(refreshes: int = 3) -> None:
    rng = random.Random(11)
    nodes = [
        PdsNode(
            i,
            [
                PersonRecord(
                    {
                        "city": CITIES[rng.randrange(len(CITIES))],
                        "salary": float(1500 + rng.randrange(3000)),
                    }
                )
            ],
        )
        for i in range(24)
    ]
    population = ServicePopulation(nodes, TokenFleet(0))
    bus = MessageBus(
        rng=random.Random(3), default_link=LinkProfile(latency_ms=2.0)
    )
    with Telemetry(sample_rate=1.0) as telemetry:
        service = SsiQueryService(
            population,
            ServiceConfig(max_queue_depth=8),
            telemetry=telemetry,
        )
        service.start()
        server = asyncio.ensure_future(
            service.serve_endpoint(bus.register("ssi"))
        )
        client = bus.register("operator")
        querier = bus.register("querier-0")
        descriptors = standard_mix().descriptors()
        try:
            for refresh in range(refreshes):
                for seq, descriptor in enumerate(descriptors):
                    body = dict(
                        descriptor.to_dict(),
                        request_id=f"querier-0/{refresh}/{seq}",
                    )
                    await querier.send(
                        "ssi",
                        Frame(
                            KIND_QUERY,
                            "querier-0",
                            seq,
                            encode_json_payload(body),
                        ),
                    )
                for _ in descriptors:
                    await querier.recv(timeout=60.0)
                snapshot = await fetch(client)
                print(render(snapshot))
                print()
        finally:
            server.cancel()
            await service.stop()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        snapshot = json.loads(open(argv[0]).read())
        print(render(snapshot))
        return 0
    asyncio.run(_demo())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
