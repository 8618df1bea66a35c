"""Standing-query registry: the SSI side of encrypted delta-maintenance.

:class:`StandingRegistry` plugs :mod:`repro.globalq.continuous` into the
live service stack. It listens on the same synchronous
:class:`~repro.service.population.ServicePopulation` event chain as the
result cache, so every churn flip, ``forget()`` and record update becomes
an encrypted delta *in the same call that bumped the version* — folded
into every matching subscription's window state before any concurrent
query can observe the new membership. Coherence with the recollection path
is kept by raising the cache's per-descriptor version floor
(:meth:`ResultCache.note_delta`) as each delta folds.

Time is simulated (:class:`SimClock`): the driver — bench E27, the stateful
tests, or a wire server loop — stamps deltas with ``clock.now`` and calls
:meth:`advance` to seal panes, collecting one
:class:`~repro.globalq.continuous.WindowUpdate` per boundary. Each sealed
window runs under a ``globalq.window`` span and the ``globalq.delta.*``
metrics family counts emitted/folded/duplicate deltas, their ciphertext
bytes, and sealed windows.

Subscriptions come in two flavours:

* **local** — the registry owns a :class:`DeltaEmitter` and computes deltas
  from the population's plaintext nodes (the in-process simulation, where
  the registry plays every PDS's token);
* **wire-fed** — deltas arrive in ``DELTA_BATCH`` frames from real PDS
  endpoints (:meth:`ingest_many`); the registry only folds ciphertexts and
  cannot see plaintext at all, which is the deployment story.

Either way a delta reaches its pane through :meth:`StandingRegistry._fold_group`:
bootstrap, population event and wire batch differ only in the group's size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import obs
from repro.crypto.paillier import PaillierPublicKey
from repro.errors import ProtocolError, QueryError
from repro.globalq.continuous import (
    DEFAULT_FOLD_SHARD_SIZE,
    DeltaEmitter,
    EncryptedDelta,
    FoldEngine,
    StandingQuery,
    WindowSpec,
    WindowUpdate,
    recollect,
    stamp_version,
)
from repro.service.cache import ResultCache
from repro.service.descriptor import FAMILY_SECURE_AGG, QueryDescriptor
from repro.service.population import ServicePopulation


class SimClock:
    """Monotone simulated time the delta/window machinery runs on."""

    def __init__(self, now: int = 0) -> None:
        self.now = now

    def advance(self, to: int) -> None:
        if to < self.now:
            raise ProtocolError(f"clock moved backwards: {to} < {self.now}")
        self.now = to


@dataclass
class StandingSubscription:
    """One registered standing query and its delta-stream accounting."""

    sub_id: int
    descriptor: QueryDescriptor
    spec: WindowSpec
    standing: StandingQuery
    #: Local subscriptions compute their own deltas; wire-fed ones are None.
    emitter: DeltaEmitter | None
    #: Cache key (canonical descriptor) whose floor delta folds raise.
    key: str = ""
    #: Wire subscriber address UPDATE frames go to (None = in-process).
    requester: str | None = None
    #: Updates published at sealed boundaries, oldest first (the in-process
    #: consumer pops these; the wire path also sends them as frames).
    updates: list[WindowUpdate] = field(default_factory=list)
    deltas_emitted: int = 0
    delta_bytes: int = 0
    start: int = 0
    #: Sharded fold engine for batch ingest (None = plain serial fold).
    engine: FoldEngine | None = None


class StandingRegistry:
    """All standing subscriptions of one service instance."""

    def __init__(
        self,
        population: ServicePopulation,
        cache: ResultCache | None = None,
        registry: obs.MetricsRegistry | None = None,
        clock: SimClock | None = None,
        fold_pool=None,
        fold_shard_size: int | None = None,
    ) -> None:
        self.population = population
        self.cache = cache
        self.registry = registry or obs.MetricsRegistry()
        self.clock = clock or SimClock()
        #: Persistent :class:`~repro.globalq.parallel.WorkerPool` batch
        #: folds shard onto (None = inline). Shard geometry never depends
        #: on the pool, so attaching one cannot change a ciphertext.
        self.fold_pool = fold_pool
        self.fold_shard_size = fold_shard_size
        self._subs: dict[int, StandingSubscription] = {}
        self._next_id = 1
        #: Batch ingest runs on an executor thread while population events
        #: fold synchronously on the caller's thread — one reentrant lock
        #: serializes every fold/advance so pane state never tears.
        self._lock = threading.RLock()
        population.add_listener(self._on_population_event)

    def __len__(self) -> int:
        return len(self._subs)

    def subscription(self, sub_id: int) -> StandingSubscription:
        try:
            return self._subs[sub_id]
        except KeyError:
            raise ProtocolError(f"unknown subscription {sub_id}") from None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @staticmethod
    def _validate(descriptor: QueryDescriptor) -> None:
        if descriptor.family != FAMILY_SECURE_AGG:
            raise QueryError(
                "standing queries run the secure-aggregation family "
                f"(got {descriptor.family!r})"
            )
        if descriptor.query.group_by is not None:
            raise QueryError(
                "delta maintenance serves scalar aggregates (no GROUP BY)"
            )
        if descriptor.noise_mode != "none":
            raise QueryError("standing queries take no noise parameters")

    def subscribe(
        self,
        descriptor: QueryDescriptor,
        spec: WindowSpec,
        public: PaillierPublicKey,
        start: int | None = None,
        requester: str | None = None,
        emitter_seed: int = 0,
        local_source: bool = True,
    ) -> StandingSubscription:
        """Register a standing query; bootstraps from the online population.

        The bootstrap is itself a delta stream: one ``Enc(contribution)``
        per online PDS at ``start`` (their previous contribution was 0),
        folded as one pane product, so the very first sealed window already
        equals full recollection. Wire-fed subscriptions
        (``local_source=False``) skip it — their PDSs push their own
        bootstrap deltas in ``DELTA_BATCH`` frames.
        """
        self._validate(descriptor)
        if start is None:
            start = self.clock.now
        standing = StandingQuery(
            query=descriptor.query,
            spec=spec,
            public_n=public.n,
            start=start,
        )
        emitter = None
        if local_source:
            emitter = DeltaEmitter(
                public, descriptor.query, seed=emitter_seed
            )
        sub = StandingSubscription(
            sub_id=self._next_id,
            descriptor=descriptor,
            spec=spec,
            standing=standing,
            emitter=emitter,
            key=descriptor.canonical(),
            requester=requester,
            start=start,
            engine=FoldEngine(
                public.n * public.n,
                pool=self.fold_pool,
                shard_size=self.fold_shard_size or DEFAULT_FOLD_SHARD_SIZE,
            ),
        )
        self._next_id += 1
        self._subs[sub.sub_id] = sub
        if emitter is not None:
            with obs.span(
                "globalq.subscribe",
                subscription=sub.sub_id,
                population=len(self.population),
                start=start,
            ), self._lock:
                deltas = [
                    emitter.refresh(node, True, start)
                    for node in self.population.online_nodes()
                ]
                self._fold_group(
                    sub, [d for d in deltas if d is not None], None
                )
        self.registry.gauge("globalq.delta.subscriptions").set(len(self._subs))
        return sub

    def unsubscribe(self, sub_id: int) -> None:
        self._subs.pop(sub_id, None)
        self.registry.gauge("globalq.delta.subscriptions").set(len(self._subs))

    # ------------------------------------------------------------------
    # The delta stream
    # ------------------------------------------------------------------
    def _fold_group(
        self,
        sub: StandingSubscription,
        deltas: list[EncryptedDelta],
        floor: int | None,
    ) -> tuple[int, int]:
        """Fold one subscription's deltas as a group (caller holds the lock).

        The single fold-and-account path: admission (replay rejection,
        pane assignment) stays serial, each pane's ciphertext product goes
        through the subscription's sharded
        :class:`~repro.globalq.continuous.FoldEngine`. Deltas for a sealed
        pane are dropped and counted instead of raising, so one late delta
        cannot sink its batchmates. A fold raises the cache's version floor
        for the descriptor to ``floor`` (None at subscribe time: no cached
        answer predates the group). Returns ``(folded, rejected)``;
        replays count in neither (``globalq.delta.duplicates`` has them).
        """
        state = sub.standing.state
        fresh = [d for d in deltas if d.timestamp >= state.advanced_to]
        rejected = len(deltas) - len(fresh)
        if not fresh:
            return 0, rejected
        duplicates_before = state.duplicates
        folded = sub.standing.fold_many(fresh, engine=sub.engine)
        size = sum(d.ciphertext_bytes(state.n_squared) for d in fresh)
        sub.deltas_emitted += len(fresh)
        sub.delta_bytes += size
        self.registry.counter("globalq.delta.emitted").inc(len(fresh))
        self.registry.counter("globalq.delta.bytes").inc(size)
        if folded:
            self.registry.counter("globalq.delta.folded").inc(folded)
        duplicates = state.duplicates - duplicates_before
        if duplicates:
            self.registry.counter("globalq.delta.duplicates").inc(duplicates)
        if folded and floor is not None and self.cache is not None:
            self.cache.note_delta(sub.key, floor)
        return folded, rejected

    def _on_population_event(
        self, event: str, pds_id: int, version: int
    ) -> None:
        """Churn/forget/update -> one delta per affected local subscription.

        Runs synchronously inside :meth:`ServicePopulation._notify`, i.e.
        atomically with the version bump and the cache purge — the property
        the coherence regression pins.
        """
        if not self._subs:
            return
        with self._lock:
            node = self.population.node(pds_id)
            online = self.population.is_online(pds_id)
            for sub in self._subs.values():
                if sub.emitter is None:
                    continue
                delta = sub.emitter.refresh(node, online, self.clock.now)
                if delta is not None:
                    self._fold_group(sub, [delta], version)

    def ingest_many(self, entries) -> tuple[int, int]:
        """Fold a batch of wire-fed ``(subscription_id, delta)`` pairs.

        A drained ingest-queue batch, grouped per subscription; entries
        for unknown subscriptions are dropped and counted like late ones.
        A wire delta outruns the service's membership mirror — no local
        population event accompanies it — so the cache floor is raised
        *above* the current version: recollection answers for the
        descriptor stop being cacheable until the population itself moves.
        Returns ``(folded, rejected)`` summed over the groups.
        """
        with self._lock:
            groups: dict[int, list[EncryptedDelta]] = {}
            rejected = 0
            for sub_id, delta in entries:
                if sub_id not in self._subs:
                    rejected += 1
                    continue
                groups.setdefault(sub_id, []).append(delta)
            folded = 0
            for sub_id, deltas in groups.items():
                group_folded, group_rejected = self._fold_group(
                    self._subs[sub_id], deltas, self.population.version + 1
                )
                folded += group_folded
                rejected += group_rejected
            return folded, rejected

    # ------------------------------------------------------------------
    # Window sealing
    # ------------------------------------------------------------------
    def advance(self, now: int) -> dict[int, list[WindowUpdate]]:
        """Move simulated time; seal every crossed boundary per subscription.

        Returns the newly published updates keyed by subscription id (also
        appended to each subscription's ``updates`` list), each stamped
        with the publication-time population version.
        """
        with self._lock:
            return self._advance_locked(now)

    def _advance_locked(self, now: int) -> dict[int, list[WindowUpdate]]:
        self.clock.advance(now)
        version = self.population.version
        published: dict[int, list[WindowUpdate]] = {}
        for sub in self._subs.values():
            updates = sub.standing.advance(now)
            if not updates:
                continue
            stamped = []
            for update in updates:
                update = stamp_version(update, version)
                with obs.span(
                    "globalq.window",
                    subscription=sub.sub_id,
                    index=update.index,
                    window_start=update.window_start,
                    window_end=update.window_end,
                    deltas=update.deltas,
                ):
                    obs.event(
                        "globalq.window.sealed",
                        subscription=sub.sub_id,
                        index=update.index,
                        version=version,
                    )
                stamped.append(update)
                self.registry.counter("globalq.delta.windows").inc()
            sub.updates.extend(stamped)
            published[sub.sub_id] = stamped
        return published

    # ------------------------------------------------------------------
    # The differential reference
    # ------------------------------------------------------------------
    def reference(self, sub_id: int) -> tuple[int, int]:
        """Plaintext full recollection for one subscription, right now."""
        sub = self.subscription(sub_id)
        return recollect(
            self.population.online_nodes(), sub.descriptor.query
        )


__all__ = [
    "SimClock",
    "StandingRegistry",
    "StandingSubscription",
]
