"""The only module of the benchmark that imports the system under test.

Everything the workloads, the stage replay and the layer probes need from
``repro`` is wrapped here in benchmark vocabulary (requests are plain dicts,
ciphertexts are palette indices, results are plain Python values), so a
change to the system's import paths touches this one file. The surface
used is public: wire frames on a ``MessageBus``, ``SsiQueryService`` /
``ServiceConfig``, ``run_query``, ``EmbeddedDatabase``, the Paillier key
pair, and — for the per-layer probes only — the public classes of the
layer being timed.
"""

from __future__ import annotations

import asyncio
import random

from repro.crypto.paillier import generate_keypair
from repro.globalq.continuous import (
    DeltaBatcher,
    EncryptedDelta,
    StandingView,
    WindowSpec,
    update_from_wire,
)
from repro.globalq.parallel import ShardedCollector, WorkerPool
from repro.globalq.queries import AggregateQuery
from repro.hardware.flash import FlashGeometry
from repro.hardware.profiles import HardwareProfile, smart_usb_token
from repro.hardware.token import SecurePortableToken
from repro.net.bus import MessageBus
from repro.net.codec import (
    KIND_DELTA_BATCH,
    KIND_QUERY,
    KIND_RESULT,
    KIND_SUBSCRIBE,
    KIND_UPDATE,
    Frame,
    decode_delta_batch,
    decode_frame,
    decode_json_payload,
    encode_delta_batch,
    encode_frame,
    encode_json_payload,
)
from repro.obs.metrics import MetricsRegistry
from repro.relational.planner import Query
from repro.relational.query import EmbeddedDatabase
from repro.service import (
    AdmissionController,
    CacheEntry,
    QueryDescriptor,
    ResultCache,
    ServiceConfig,
    SsiQueryService,
    StandingRegistry,
    run_query,
    slim_population,
    standard_mix,
)
from repro.service.descriptor import FAMILY_SECURE_AGG
from repro.workloads import tpcd

SSI = "ssi"
QUERIER = "querier"
PDS = "pds"


async def _stop_server(server: asyncio.Task, service, bus) -> None:
    server.cancel()
    try:
        await server
    except asyncio.CancelledError:
        pass
    await service.stop()
    await bus.close()


# ----------------------------------------------------------------------
# Query path: QUERY -> admission -> snapshot -> collect -> RESULT
# ----------------------------------------------------------------------
def query_requests() -> list[dict]:
    """The four ``standard_mix()`` classes as wire request bodies."""
    return [d.to_dict() for d in standard_mix().descriptors()]


def query_frame(request_id: int, request: dict) -> Frame:
    body = dict(request, request_id=request_id)
    return Frame(KIND_QUERY, QUERIER, request_id, encode_json_payload(body))


def result_frame(request_id: int, body: dict) -> Frame:
    """A RESULT frame carrying ``body`` (a decoded RESULT payload)."""
    return Frame(KIND_RESULT, SSI, request_id, encode_json_payload(body))


def frame_to_bytes(frame: Frame) -> bytes:
    return encode_frame(frame)


def frame_body(data: bytes) -> dict:
    """Decode frame bytes down to the JSON control payload."""
    return decode_json_payload(decode_frame(data).payload)


def descriptor_of(request: dict) -> QueryDescriptor:
    return QueryDescriptor.from_dict(request)


class QueryService:
    """A live ``SsiQueryService`` on a bus with one querier endpoint.

    ``workers > 1`` is the sharded configuration: collection fans out over
    a persistent ``WorkerPool`` of that width. The result cache is off, so
    every admitted query executes.
    """

    def __init__(self, population: int, workers: int = 1) -> None:
        self.population = slim_population(population)
        self.workers = workers
        self.pool: WorkerPool | None = None

    async def start(self) -> None:
        if self.workers > 1:
            self.pool = WorkerPool(self.workers)
        self.config = ServiceConfig(
            cache_capacity=0, workers=self.workers, pool=self.pool
        )
        self.bus = MessageBus()
        self._ssi = self.bus.register(SSI)
        self._querier = self.bus.register(QUERIER)
        self.service = SsiQueryService(self.population, self.config)
        self.service.start()
        self._server = asyncio.ensure_future(
            self.service.serve_endpoint(self._ssi)
        )

    async def stop(self) -> None:
        await _stop_server(self._server, self.service, self.bus)
        if self.pool is not None:
            self.pool.close()

    async def send(self, request_id: int, request: dict) -> None:
        await self._querier.send(SSI, query_frame(request_id, request))

    async def recv(self) -> tuple[bool, dict]:
        """Next reply: (is a RESULT, decoded body)."""
        frame = await self._querier.recv()
        return frame.kind == KIND_RESULT, decode_json_payload(frame.payload)

    @property
    def wire_bytes(self) -> int:
        """Frame bytes sent on the bus so far, both directions."""
        return self.bus.metrics.bytes_sent

    def snapshot(self):
        return self.population.snapshot()

    def run_direct(self, descriptor, snapshot, seed: int, sharded: bool = False):
        """``run_query`` on ``snapshot``, bypassing the service.

        The reference every served answer is compared with (workers=1),
        and — with ``sharded`` — the same job over the service's pool.
        """
        extra = ()
        if sharded:
            extra = (self.workers, self.config.shard_size, self.pool)
        return run_query(
            descriptor, snapshot.nodes, self.population.fleet, seed,
            self.config.domain, *extra,
        ).result

    # -- layer probes ---------------------------------------------------
    def collect_once(self) -> int:
        """One inline ``ShardedCollector.collect`` over the population;
        returns the PDS count."""
        nodes = list(self.population.snapshot().nodes)
        ShardedCollector(workers=1).collect(
            nodes, AggregateQuery.sum("salary"), self.population.fleet
        )
        return len(nodes)

    def symmetric_cipher(self):
        """The fleet's payload cipher (``encrypt``/``decrypt`` of bytes)."""
        return self.population.fleet.payload_cipher(seed=1)

    def result_cache(self):
        """A fresh enabled cache plus one (descriptor, entry) to store."""
        cache = ResultCache(32, self.population)
        descriptor = standard_mix().descriptors()[0]
        entry = CacheEntry(version=self.population.version, result={"*": 1.0}, seed=0)
        return cache, descriptor, entry


def admission_controller(depth: int):
    return AdmissionController(depth)


async def bus_hop_seconds(hops: int) -> float:
    """Idle send -> recv round on a fresh bus; seconds per hop."""
    bus = MessageBus()
    bus.register("a")
    receiver = bus.register("b")
    sender = bus.endpoint("a")
    frame = Frame(KIND_QUERY, "a", 1, b"{}")
    loop = asyncio.get_running_loop()
    started = loop.time()
    for _ in range(hops):
        await sender.send("b", frame)
        await receiver.recv()
    elapsed = loop.time() - started
    await bus.close()
    return elapsed / hops


# ----------------------------------------------------------------------
# Delta path: DELTA_BATCH -> decode -> queue -> fold -> seal -> UPDATE
# ----------------------------------------------------------------------
WINDOW = WindowSpec(width=4, slide=2)
_SUM = QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.sum("salary"))


class DeltaService:
    """A live service with one wire-fed standing SUM subscription.

    Ciphertexts come from a palette of (plaintext, ciphertext) pairs made
    once at set-up, so the generator never encrypts inside the timed phase
    and every window's expected plaintext is known to the caller.
    """

    def __init__(
        self, key_bits: int, key_seed: int, palette_seed: int, palette: int
    ) -> None:
        self.public, self.private = generate_keypair(
            key_bits, random.Random(key_seed)
        )
        self.blinding = self.public.blinding_pool(seed=palette_seed)
        rng = random.Random(palette_seed)
        self.plaintexts = [rng.randrange(-50, 51) for _ in range(palette)]
        self.ciphertexts = [
            self.public.encrypt(m, pool=self.blinding)
            for m in self.plaintexts
        ]
        self.view = StandingView(self.private, _SUM.query)

    async def start(self) -> None:
        self.bus = MessageBus()
        self._ssi = self.bus.register(SSI)
        self._querier = self.bus.register(QUERIER)
        self._pds = self.bus.register(PDS)
        self.service = SsiQueryService(slim_population(64), ServiceConfig())
        self.service.start()
        self._server = asyncio.ensure_future(
            self.service.serve_endpoint(self._ssi)
        )
        request = dict(
            _SUM.to_dict(),
            request_id=1,
            window=WINDOW.to_dict(),
            public_n=f"{self.public.n:x}",
            start=0,
            local_source=False,
        )
        await self._querier.send(
            SSI,
            Frame(KIND_SUBSCRIBE, QUERIER, 1, encode_json_payload(request)),
        )
        ack = await self._querier.recv()
        if ack.kind != KIND_SUBSCRIBE:
            raise RuntimeError(f"subscribe refused: {ack.payload!r}")
        self.sub_id = decode_json_payload(ack.payload)["subscription"]

    async def stop(self) -> None:
        await _stop_server(self._server, self.service, self.bus)

    @property
    def ingest_queue_depth(self) -> int:
        return self.service.config.ingest_queue_depth

    def deltas(self, rows) -> list:
        """``(pds, seq, timestamp, value index, count index)`` rows as
        batch entries for this subscription."""
        ciphers = self.ciphertexts
        return [
            (
                self.sub_id,
                EncryptedDelta(pds, seq, timestamp, ciphers[v], ciphers[c]),
            )
            for pds, seq, timestamp, v, c in rows
        ]

    def batch_frame(self, seq: int, rows) -> Frame:
        return Frame(
            KIND_DELTA_BATCH, PDS, seq, encode_delta_batch(self.deltas(rows))
        )

    async def send(self, frame: Frame) -> None:
        await self._pds.send(SSI, frame)
        # An uncontended bus send never yields; let delivery and the
        # ingest worker interleave with the generator, as a network would.
        await asyncio.sleep(0)

    async def received(self) -> None:
        """Wait until the service has taken every sent frame off the bus."""
        while self.bus.metrics.inflight or self._ssi.pending:
            await asyncio.sleep(0.001)

    async def seal(self, now: int) -> int:
        """Advance simulated time to ``now``; UPDATE frames go to the
        querier. Returns how many were published."""
        return await self.service.publish_windows(now, endpoint=self._ssi)

    async def recv_update(self) -> bytes:
        """The next UPDATE frame's payload."""
        frame = await self._querier.recv()
        if frame.kind != KIND_UPDATE:
            raise RuntimeError(f"expected UPDATE, got {frame.kind_name}")
        return frame.payload

    def decrypt(self, update) -> tuple[int, int, int, int]:
        """The querier's decryption: running (sum, count) and the window's
        net (sum, count)."""
        window = self.view.ingest(update)
        return (
            window.total, window.count,
            window.window_total, window.window_count,
        )

    @property
    def wire_bytes(self) -> int:
        return self.bus.metrics.bytes_sent

    def ingest_counts(self) -> dict:
        counter = self.service.registry.counter
        return {
            name: int(counter(f"globalq.ingest.{name}").value)
            for name in ("folded", "shed", "rejected")
        }

    def ingest_telemetry(self) -> tuple[float, float]:
        """(p50 fold-batch ms, max queue depth) from ``metrics_snapshot``."""
        snapshot = self.service.metrics_snapshot()
        return (
            snapshot["globalq.ingest.fold_ms"]["p50"],
            snapshot["globalq.ingest.queue_depth"],
        )

    # -- stage replay / layer probes -----------------------------------
    def standing_registry(self, start: int):
        """A direct ``StandingRegistry`` holding the same subscription from
        simulated time ``start``; its sub id equals the live one (both are
        the first subscription of their registry)."""
        registry = StandingRegistry(
            slim_population(64), registry=MetricsRegistry()
        )
        registry.subscribe(
            _SUM, WINDOW, self.public, start=start, local_source=False
        )
        return registry

    def update_frame(self, update) -> Frame:
        """The UPDATE frame ``publish_windows`` sends for ``update``."""
        fields = {
            "subscription": self.sub_id,
            "index": update.index,
            "window_start": update.window_start,
            "window_end": update.window_end,
            "deltas": update.deltas,
            "version": update.version,
        }
        for name in ("live_value", "live_count", "window_value", "window_count"):
            fields[name] = f"{getattr(update, name):x}"
        return Frame(
            KIND_UPDATE, SSI, update.index, encode_json_payload(fields)
        )

    def batcher(self):
        return DeltaBatcher(self.public.n, WINDOW)


def frame_payload(data: bytes) -> bytes:
    return decode_frame(data).payload


def batch_entries(payload: bytes) -> list:
    """A DELTA_BATCH payload's ``(subscription, delta)`` entries."""
    return decode_delta_batch(payload)


def update_of(payload: bytes):
    """Decode an UPDATE payload into a ``WindowUpdate``."""
    return update_from_wire(decode_json_payload(payload))


# ----------------------------------------------------------------------
# Token path: the embedded engine of one secure token
# ----------------------------------------------------------------------
SEGMENTS = tuple(tpcd.MKT_SEGMENTS)
_WIDE = [
    ("CUSTOMER", "Name"),
    ("ORDER", "ORDkey"),
    ("LINEITEM", "LINkey"),
    ("LINEITEM", "Price"),
    ("SUPPLIER", "Name"),
]


class TokenEngine:
    """The E25 token (64 KB RAM arena, 1 KB pages) hosting the TPCD-like
    schema with its two Tselect indexes; every call returns
    ``(result, ExecutionStats | None)``."""

    #: Seed of the generated dataset (the E4/E25 one); ops are what the
    #: benchmark seed varies, the hosted data is configuration.
    DATA_SEED = 31

    def __init__(self, lineitems: int) -> None:
        base = smart_usb_token()
        profile = HardwareProfile(
            name="bench-token",
            ram_bytes=64 * 1024,
            cpu_mhz=base.cpu_mhz,
            flash_geometry=FlashGeometry(
                page_size=1024, pages_per_block=32, num_blocks=8192
            ),
            flash_cost=base.flash_cost,
            tamper_resistant=True,
        )
        self.data = tpcd.generate(lineitems, seed=self.DATA_SEED)
        self.db = EmbeddedDatabase(
            SecurePortableToken(profile=profile),
            tpcd.tpcd_schema(),
            tpcd.ROOT_TABLE,
        )
        tpcd.load(self.db, self.data)
        self.db.create_tselect("CUSTOMER", "Mktsegment")
        self.db.create_tselect("SUPPLIER", "Name")

    def spj_narrow(self, segment: str, supplier: str):
        return self.db.query(tpcd.household_supplier_query(segment, supplier))

    def spj_wide(self, segment: str):
        return self.db.query(
            Query.build(
                filters=[("CUSTOMER", "Mktsegment", segment)],
                projection=_WIDE,
            )
        )

    def aggregate(self, segment: str):
        return self.db.aggregate(
            [("CUSTOMER", "Mktsegment", segment)],
            ("AVG", "LINEITEM", "Price"),
            group_by=("SUPPLIER", "Name"),
        )

    def scan(self, quantity: int):
        return self.db.lookup("LINEITEM", "Quantity", quantity), None

    def insert_batch(self, rows):
        for row in rows:
            self.db.insert("LINEITEM", row)
        self.db.flush()
        return len(rows), None

    def flash_counters(self) -> tuple[int, int, float]:
        """(page reads, page programs, cost-model microseconds) so far."""
        flash = self.db.token.flash
        return (
            flash.stats.page_reads,
            flash.stats.page_programs,
            flash.stats.time_us(flash.cost_model),
        )
