"""The SSI as a long-lived query service, end to end over the bus.

Everything the service PR adds, in one run: PDS endpoints registered on a
:class:`NodeRuntime` whose churn flips feed straight into the service's
population (bus connectivity *is* membership), two queriers submitting
``QUERY`` frames over the simulated network, admission control shedding a
burst with typed ``REJECT`` frames, the version-exact result cache serving
hits until a churn flip or a citizen's ``forget()`` invalidates them — and
every computed answer re-verified bit-identically against the one-shot
batch driver on the snapshot/seed the service recorded.

Run with:  python examples/service_demo.py
"""

import asyncio
import random

from repro.net.bus import LinkProfile, MessageBus
from repro.net.codec import (
    KIND_REJECT,
    KIND_RESULT,
    Frame,
    KIND_QUERY,
    decode_json_payload,
    encode_json_payload,
)
from repro.net.runtime import ChurnModel, NodeRuntime
from repro.globalq.queries import AggregateQuery
from repro.service import (
    QueryDescriptor,
    ServiceConfig,
    ServicePopulation,
    SsiQueryService,
    run_query,
    standard_mix,
)
from repro.globalq.protocol import PdsNode, TokenFleet
from repro.workloads.people import CITIES, PersonRecord

NUM_PDS = 60


def build_population(runtime: NodeRuntime) -> ServicePopulation:
    """One PDS per runtime endpoint; churn flips follow the bus."""
    rng = random.Random(17)
    nodes = []
    for i in range(NUM_PDS):
        runtime.register_node(f"pds-{i}")
        nodes.append(
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
        )
    population = ServicePopulation(nodes, TokenFleet(0))
    population.bind_runtime(
        runtime,
        lambda name: int(name[4:]) if name.startswith("pds-") else None,
    )
    return population


async def querier(
    bus, name: str, requests, replies: list, sequential: bool = False
) -> None:
    """Submit descriptors as QUERY frames; collect RESULT/REJECT replies.

    ``sequential`` waits for each answer before the next request (a polite
    closed-loop client); the default fires the whole batch open-loop.
    """
    endpoint = bus.register(name)
    for seq, descriptor in enumerate(requests):
        body = dict(descriptor.to_dict(), request_id=f"{name}/{seq}")
        await endpoint.send(
            "ssi", Frame(KIND_QUERY, name, seq, encode_json_payload(body))
        )
        if sequential:
            frame = await endpoint.recv(timeout=30.0)
            replies.append((frame.kind, decode_json_payload(frame.payload)))
    if not sequential:
        for _ in requests:
            frame = await endpoint.recv(timeout=30.0)
            replies.append((frame.kind, decode_json_payload(frame.payload)))


async def main() -> None:
    bus = MessageBus(
        rng=random.Random(2), default_link=LinkProfile(latency_ms=5.0)
    )
    runtime = NodeRuntime(
        bus,
        churn=ChurnModel(offline_fraction=0.15, mean_online=10.0),
        rng=random.Random(9),
    )
    population = build_population(runtime)
    service = SsiQueryService(
        population,
        ServiceConfig(
            max_queue_depth=4,
            cache_capacity=8,
            record_snapshots=True,
        ),
    )
    ssi_endpoint = bus.register("ssi")

    print(f"== SSI query service over {NUM_PDS} churning PDSs ==")
    service.start()
    server = asyncio.ensure_future(service.serve_endpoint(ssi_endpoint))
    runtime.start_churn()

    mix = standard_mix()
    # Alice walks the four query classes twice: recomputations on the
    # first pass, cache hits on the second — until churn invalidates.
    walk = mix.descriptors() * 2
    replies_a: list = []
    await querier(bus, "alice", walk, replies_a, sequential=True)

    print("\n-- alice: the four [TNP14] classes, twice --")
    for kind, body in replies_a:
        assert kind == KIND_RESULT
        first = next(iter(sorted(body["result"].items())))
        print(
            f"  {body['request_id']}: v{body['version']} "
            f"{'cache-hit ' if body['cached'] else 'computed  '}"
            f"{body['latency_ms']:7.1f} ms   {first[0]}={first[1]:g}"
        )

    # Mallory hammers a burst of distinct queries (salary floors dodge the
    # cache): the bounded queues shed the overflow with typed REJECTs.
    burst = [
        QueryDescriptor(
            "secure-agg",
            AggregateQuery.count(where=(("salary", ">", float(floor)),)),
        )
        for floor in range(1500, 4500, 250)
    ]
    replies_b: list = []
    await querier(bus, "mallory", burst, replies_b)
    rejected = [b for k, b in replies_b if k == KIND_REJECT]
    answered = [b for k, b in replies_b if k == KIND_RESULT]
    print(
        f"\n-- mallory's burst of {len(burst)}: {len(answered)} answered, "
        f"{len(rejected)} shed (queue limit "
        f"{service.config.max_queue_depth}) --"
    )

    # A citizen exercises the right to be forgotten: the cache entry for
    # every aggregate dies with the deletion, the next query recomputes.
    await runtime.stop_churn()  # everyone reconnects: deltas are exact
    before = await service.submit(mix.descriptors()[0])
    removed = population.forget(7)
    after = await service.submit(mix.descriptors()[0])
    print(
        f"\n-- forget(): pds 7 deleted {removed} record(s); "
        f"SUM(salary) {before.result['*']:g} -> {after.result['*']:g} "
        f"(v{before.version} -> v{after.version}, recomputed="
        f"{not after.cached}) --"
    )

    # Every computed answer reproduces bit-identically from its recorded
    # (descriptor, snapshot, seed) triple through the one-shot driver.
    for served in (before, after):
        reference = run_query(
            served.descriptor,
            served.snapshot.nodes,
            population.fleet,
            served.seed,
            service.config.domain,
        )
        assert reference.result == served.result
    print("   bit-identity vs the batch driver: verified")

    server.cancel()
    try:
        await server
    except asyncio.CancelledError:
        pass
    await service.stop()

    snapshot = service.metrics_snapshot()
    latency = snapshot["service.latency_ms"]
    print("\n-- service accounting (repro.obs) --")
    print(
        f"  completed={snapshot['service.completed']} "
        f"shed={snapshot.get('service.shed', 0)} "
        f"cache hits={snapshot['service.cache.hits']} "
        f"invalidations={snapshot['service.cache.invalidations']} "
        f"churn flips={population.churn_events}"
    )
    print(
        f"  latency ms: p50={latency['p50']:.1f} "
        f"p99={latency['p99']:.1f} p999={latency['p999']:.1f}"
    )
    await bus.close()


if __name__ == "__main__":
    asyncio.run(main())
