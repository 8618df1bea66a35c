"""Standing queries: encrypted delta-maintenance for live aggregates.

Every protocol in this package so far answers a query by *recollection*:
the SSI gathers one fresh ciphertext per online PDS, folds, and the querier
decrypts. For a standing query refreshed every few seconds over a million
PDSs that cost model is wrong by orders of magnitude — almost nothing
changed between refreshes. Paillier additivity offers the right one: when a
PDS's contribution moves from ``old`` to ``new`` it pushes a single
encrypted **delta** ``Enc(new) · Enc(-old) = Enc(new - old)`` (the
retraction ``Enc(-old)`` is the plaintext negation ``n - old``, folded
before the ciphertext leaves the token), and the SSI *multiplies* deltas
into a running ciphertext without ever decrypting. Traffic becomes
O(changes), not O(population) — the approach of Taelman et al.'s
privacy-preserving aggregation for decentralized environments (PAPERS.md),
applied to the [TNP14] architecture.

Windowing reuses the ``repro.timeseries`` summary recipe on ciphertexts:
simulated time is cut into **panes** (one pane per slide interval), each
pane accumulates the deltas that arrived during it, and at a boundary the
pane is sealed — a tumbling window is one pane, a sliding window is the
homomorphic product of the last ``width // slide`` sealed panes, exactly
how a page summary folds into a range aggregate. The querier-side
:class:`StandingView` closes the loop by decrypting each
:class:`WindowUpdate` and appending it to a
:class:`~repro.timeseries.series.TimeSeriesStore`.

Exactness is the contract: after any interleaving of insert / update /
``forget()`` / churn, decrypting the folded state equals a full plaintext
recollection over the current membership — bit-exactly, because every
value is an integer and Paillier arithmetic is exact (asserted by the
stateful tests and at every window boundary of bench E27).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, replace

from repro import obs
from repro.crypto.fastexp import BlindingPool
from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.errors import ProtocolError, QueryError
from repro.globalq.parallel import run_shards
from repro.globalq.queries import AggregateQuery, local_contributions
from repro.obs import telemetry

#: ``Enc(0)`` with blinding 1 — the multiplicative identity of the fold.
CIPHER_IDENTITY = 1


# ---------------------------------------------------------------------------
# Window algebra
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WindowSpec:
    """Tumbling or sliding window over simulated time.

    ``width`` is the window length; ``slide`` (default ``width``, i.e.
    tumbling) is how often a window closes and must divide ``width``. The
    pane width equals the slide, so every delta lands in exactly one pane
    and a window is the product of ``width // slide`` consecutive panes.
    """

    width: int
    slide: int | None = None

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise QueryError("window width must be positive")
        slide = self.slide
        if slide is not None:
            if slide <= 0:
                raise QueryError("window slide must be positive")
            if slide > self.width:
                raise QueryError("window slide must be <= width")
            if self.width % slide:
                raise QueryError("window slide must divide width")

    @property
    def pane_width(self) -> int:
        return self.slide if self.slide is not None else self.width

    @property
    def panes_per_window(self) -> int:
        return self.width // self.pane_width

    @property
    def tumbling(self) -> bool:
        return self.panes_per_window == 1

    def to_dict(self) -> dict:
        return {"width": self.width, "slide": self.pane_width}

    @classmethod
    def from_dict(cls, data: dict) -> "WindowSpec":
        if not isinstance(data, dict):
            raise QueryError("malformed window spec: not an object")
        try:
            slide = data.get("slide")
            return cls(
                width=int(data["width"]),
                slide=None if slide is None else int(slide),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"malformed window spec: {exc}") from exc


@dataclass(frozen=True)
class EncryptedDelta:
    """One PDS's encrypted contribution change.

    ``value_cipher`` encrypts the signed change of the PDS's value sum,
    ``count_cipher`` the signed change of its matching-record count —
    together they update the (sum, count) pair every SQL aggregate reduces
    to. ``seq`` is the per-(PDS, subscription) sequence number: the SSI
    folds each sequence at most once, so a replayed or duplicated delta
    cannot double-count (the PR 6 replay rule, applied to the delta
    stream).
    """

    pds_id: int
    seq: int
    timestamp: int
    value_cipher: int
    count_cipher: int

    def ciphertext_bytes(self, n_squared: int) -> int:
        """Wire size of the two ciphertexts under modulus ``n²``."""
        return 2 * ((n_squared.bit_length() + 7) // 8)


@dataclass(frozen=True)
class WindowUpdate:
    """What the SSI publishes at one window boundary.

    ``live_*`` is the folded total of *every* delta with
    ``timestamp < window_end`` — decrypting it must equal full recollection
    at the boundary. ``window_*`` is the net change inside
    ``[window_start, window_end)`` (the pane product), which can decrypt
    negative under forgets. All four are ciphertexts: the SSI computed them
    without decrypting anything.
    """

    window_start: int
    window_end: int
    #: 1-based boundary index since the subscription started.
    index: int
    live_value: int
    live_count: int
    window_value: int
    window_count: int
    #: Deltas folded into the window's panes.
    deltas: int
    #: Population version at publication (stamped by the registry).
    version: int = -1


# ---------------------------------------------------------------------------
# PDS side: the delta source
# ---------------------------------------------------------------------------
def contribution_of(records, query: AggregateQuery) -> tuple[int, int]:
    """The ``(value sum, matching count)`` pair one PDS contributes.

    Values must be integer-valued (the ``slim_population`` convention):
    integers keep Paillier folds and plaintext recollection bit-identical,
    which is the whole equality guarantee.
    """
    total = 0
    count = 0
    for _, value in local_contributions(list(records), query):
        as_int = int(value)
        if as_int != value:
            raise QueryError(
                "delta maintenance needs integer-encoded values "
                f"(got {value!r})"
            )
        total += as_int
        count += 1
    return total, count


class DeltaEmitter:
    """Turns one population's data-change events into encrypted deltas.

    Tracks, per PDS, the ``(value, count)`` pair last contributed to the
    subscription. :meth:`refresh` diffs the PDS's current state against it
    and emits ``Enc(new) · Enc(-old)`` — two fresh pool-blinded encryptions
    folded *before* leaving the token, so the SSI sees one
    non-deterministic ciphertext pair per change and nothing about the
    operands. An offline or forgotten PDS contributes ``(0, 0)``; flipping
    online re-contributes, so churn is just more deltas.
    """

    def __init__(
        self,
        public: PaillierPublicKey,
        query: AggregateQuery,
        seed: int = 0,
        pool: BlindingPool | None = None,
    ) -> None:
        if query.group_by is not None:
            raise QueryError(
                "delta maintenance serves scalar aggregates (no GROUP BY)"
            )
        self.public = public
        self.query = query
        self.pool = pool if pool is not None else public.blinding_pool(seed)
        self._contributed: dict[int, tuple[int, int]] = {}
        self._seq: dict[int, int] = {}
        self.emitted = 0

    def _delta_cipher(self, new: int, old: int) -> int:
        """``Enc(new) · Enc(-old)``: the retraction is ``n - old``."""
        cipher = self.public.encrypt(new, pool=self.pool)
        if old:
            # encrypt() reduces mod n, so -old encrypts as n - old: the
            # plaintext negation decrypt_signed undoes at the querier.
            retraction = self.public.encrypt(-old, pool=self.pool)
            cipher = self.public.add(cipher, retraction)
        return cipher

    def refresh(
        self, node, online: bool, timestamp: int
    ) -> EncryptedDelta | None:
        """The delta moving ``node`` to its current contribution, or None.

        ``node`` duck-types :class:`~repro.globalq.protocol.PdsNode`
        (``pds_id`` + ``records``). Returns None when nothing this
        subscription can see changed — the common case under churn of
        non-matching PDSs, and what keeps steady-state traffic
        proportional to *relevant* changes.
        """
        if online:
            new = contribution_of(node.records, self.query)
        else:
            new = (0, 0)
        old = self._contributed.get(node.pds_id, (0, 0))
        if new == old:
            return None
        self._contributed[node.pds_id] = new
        seq = self._seq.get(node.pds_id, 0) + 1
        self._seq[node.pds_id] = seq
        self.emitted += 1
        return EncryptedDelta(
            pds_id=node.pds_id,
            seq=seq,
            timestamp=timestamp,
            value_cipher=self._delta_cipher(new[0], old[0]),
            count_cipher=self._delta_cipher(new[1], old[1]),
        )


class DeltaBatcher:
    """PDS-side coalescing of deltas before they hit the wire.

    A busy PDS can change the same subscription's contribution many times
    within one pane; shipping each change as its own frame makes the SSI
    pay one fold (two ~|n²|-bit modmuls) per change. Additivity says the
    changes compose: ``Enc(d1) · Enc(d2) = Enc(d1 + d2)``, so the batcher
    multiplies successive deltas for the same ``(subscription, PDS)``
    within a pane into one, carrying the *highest* sequence number seen
    (the SSI's replay rule folds each sequence at most once, and skipping
    intermediates is exactly what coalescing means). Coalescing never
    crosses a pane boundary — each pane's product must stay bit-identical
    to the uncoalesced fold, which is only guaranteed when merged deltas
    land in the same pane.

    :meth:`flush` drains the pending map in deterministic insertion order
    as ``(subscription_id, delta)`` pairs ready for
    :func:`repro.net.codec.encode_delta_batch`. Replayed or duplicated
    sequence numbers are dropped at :meth:`add` — folding one into a
    pending product would double-count before the SSI ever saw it.

    Deltas must arrive in per-stream timestamp order (what a monotone
    emitter clock guarantees): then each stream's per-pane max sequence
    numbers are increasing in insertion order, and the SSI's replay rule
    accepts every flushed entry.
    """

    def __init__(self, public_n: int, spec: WindowSpec, start: int = 0) -> None:
        self.n_squared = public_n * public_n
        self.spec = spec
        self.start = start
        self._pending: dict[tuple, EncryptedDelta] = {}
        self._last_seq: dict[tuple, int] = {}
        self.added = 0
        self.coalesced = 0
        self.duplicates = 0
        self.flushed_batches = 0
        self.flushed_deltas = 0

    @property
    def pending(self) -> int:
        return len(self._pending)

    def add(self, subscription_id: int, delta: EncryptedDelta) -> bool:
        """Queue one delta; False iff it replayed a known sequence."""
        stream = (subscription_id, delta.pds_id)
        if delta.seq <= self._last_seq.get(stream, 0):
            self.duplicates += 1
            return False
        self._last_seq[stream] = delta.seq
        pane = (delta.timestamp - self.start) // self.spec.pane_width
        key = (subscription_id, delta.pds_id, pane)
        pending = self._pending.get(key)
        if pending is None:
            self._pending[key] = delta
        else:
            self._pending[key] = EncryptedDelta(
                pds_id=delta.pds_id,
                seq=delta.seq,
                timestamp=max(pending.timestamp, delta.timestamp),
                value_cipher=pending.value_cipher
                * delta.value_cipher
                % self.n_squared,
                count_cipher=pending.count_cipher
                * delta.count_cipher
                % self.n_squared,
            )
            self.coalesced += 1
        self.added += 1
        return True

    def flush(self) -> list[tuple[int, EncryptedDelta]]:
        """Drain pending deltas as batch entries (insertion order)."""
        out = [(key[0], delta) for key, delta in self._pending.items()]
        self._pending.clear()
        if out:
            self.flushed_batches += 1
            self.flushed_deltas += len(out)
        return out


# ---------------------------------------------------------------------------
# SSI side: the fold
# ---------------------------------------------------------------------------
#: Deltas per fold shard. Like :data:`repro.globalq.parallel.DEFAULT_SHARD_SIZE`
#: it is fixed — never derived from the worker count — so shard geometry
#: (and hence per-shard products) cannot depend on how many workers run.
DEFAULT_FOLD_SHARD_SIZE = 256


@dataclass(frozen=True)
class FoldShardTask:
    """One shard of a pane product: plain ints, picklable."""

    shard_index: int
    n_squared: int
    value_ciphers: tuple
    count_ciphers: tuple
    #: Distributed trace context of the submitting span (or None).
    trace: object = None


def fold_shard(task: FoldShardTask):
    """Fold one shard's ciphertext product — the unit both paths run.

    Returns the ``(value_product, count_product)`` pair, wrapped in a
    :class:`~repro.obs.telemetry.TracedResult` when the task's trace
    context asked this worker process to record its execution span.
    """
    with telemetry.remote_recording(
        task.trace, f"worker-{os.getpid()}"
    ) as recording:
        with obs.span(
            "globalq.fold.shard.exec",
            shard=task.shard_index,
            deltas=len(task.value_ciphers),
        ):
            value = CIPHER_IDENTITY
            count = CIPHER_IDENTITY
            for cipher in task.value_ciphers:
                value = value * cipher % task.n_squared
            for cipher in task.count_ciphers:
                count = count * cipher % task.n_squared
            result = (value, count)
    if recording is not None:
        return recording.wrap(result)
    return result


class FoldEngine:
    """Sharded, optionally pooled computation of a pane product.

    Partitions a group of admitted deltas by the **seed-independent key**
    ``pds_id % num_shards`` where ``num_shards`` follows only the group
    size and ``shard_size`` — never the worker count — then folds each
    shard's product (inline, or on a persistent
    :class:`~repro.globalq.parallel.WorkerPool`) and merges the shard
    products in shard order. Because ciphertext multiplication mod ``n²``
    is commutative and associative, the merged product is bit-identical
    to the serial fold at every ``(workers, shard_size)`` point — the
    recollection exactness contract of PR 6, applied to the delta stream.
    """

    def __init__(
        self,
        n_squared: int,
        pool=None,
        shard_size: int = DEFAULT_FOLD_SHARD_SIZE,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.n_squared = n_squared
        self.pool = pool
        self.shard_size = shard_size
        self.shards_folded = 0

    def partition(self, deltas) -> list[list[EncryptedDelta]]:
        """Shard buckets; geometry depends on group size and shard_size only."""
        num_shards = max(1, -(-len(deltas) // self.shard_size))
        buckets: list[list[EncryptedDelta]] = [[] for _ in range(num_shards)]
        for delta in deltas:
            buckets[delta.pds_id % num_shards].append(delta)
        return buckets

    def product(self, deltas) -> tuple[int, int]:
        """The group's ``(value, count)`` ciphertext product."""
        buckets = self.partition(deltas)
        trace = telemetry.propagated()
        tasks = [
            FoldShardTask(
                shard_index=index,
                n_squared=self.n_squared,
                value_ciphers=tuple(d.value_cipher for d in bucket),
                count_ciphers=tuple(d.count_cipher for d in bucket),
                trace=trace,
            )
            for index, bucket in enumerate(buckets)
        ]
        value = CIPHER_IDENTITY
        count = CIPHER_IDENTITY
        # A single shard has nothing to overlap with: it stays in-process.
        for shard_value, shard_count in run_shards(
            fold_shard, tasks, "globalq.fold.shard",
            lambda task: {"deltas": len(task.value_ciphers)},
            1, self.pool if len(tasks) > 1 else None,
        ):
            value = value * shard_value % self.n_squared
            count = count * shard_count % self.n_squared
            self.shards_folded += 1
        return value, count


class StandingAggregate:
    """The SSI's window state: sealed panes plus a live running fold.

    All arithmetic is ciphertext multiplication mod ``n²`` — the SSI holds
    no key. ``live_value``/``live_count`` fold every pane sealed so far;
    open panes accumulate in-flight deltas until :meth:`advance` crosses
    their boundary. Per-PDS sequence numbers de-duplicate the stream, and a
    delta timestamped before the last boundary is a protocol error (the
    registry's clock is monotone, so one can only arrive through replay or
    reordering across a seal — either way folding it would corrupt the
    already-published window).
    """

    def __init__(self, public_n: int, spec: WindowSpec, start: int = 0) -> None:
        self.n_squared = public_n * public_n
        self.spec = spec
        self.start = start
        self.live_value = CIPHER_IDENTITY
        self.live_count = CIPHER_IDENTITY
        self.advanced_to = start
        self.deltas_folded = 0
        self.duplicates = 0
        self._open: dict[int, list] = {}  # pane index -> [value, count, n]
        self._sealed: deque = deque(maxlen=spec.panes_per_window)
        self._next_boundary = 1
        self._last_seq: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _admit(self, delta: EncryptedDelta) -> int | None:
        """Replay/lateness gate: the delta's pane index, or None if a dup."""
        if delta.timestamp < self.advanced_to:
            raise ProtocolError(
                f"late delta at t={delta.timestamp} (sealed through "
                f"{self.advanced_to})"
            )
        if delta.seq <= self._last_seq.get(delta.pds_id, 0):
            self.duplicates += 1
            return None
        self._last_seq[delta.pds_id] = delta.seq
        return (delta.timestamp - self.start) // self.spec.pane_width

    def _fold_into(self, pane: int, value: int, count: int, n: int) -> None:
        acc = self._open.get(pane)
        if acc is None:
            acc = self._open[pane] = [CIPHER_IDENTITY, CIPHER_IDENTITY, 0]
        acc[0] = acc[0] * value % self.n_squared
        acc[1] = acc[1] * count % self.n_squared
        acc[2] += n
        self.deltas_folded += n

    def fold(self, delta: EncryptedDelta) -> bool:
        """Multiply one delta into its pane; False iff a known duplicate."""
        pane = self._admit(delta)
        if pane is None:
            return False
        self._fold_into(pane, delta.value_cipher, delta.count_cipher, 1)
        return True

    def fold_many(self, deltas, engine: "FoldEngine | None" = None) -> int:
        """Fold a batch of deltas; returns how many were accepted.

        Admission (lateness check, replay rejection, pane assignment) is
        serial — cheap integer work that must see sequence numbers in
        arrival order. The expensive part, the ciphertext product of each
        pane's group, goes through ``engine`` when one is supplied
        (sharded, possibly parallel) or a plain serial product otherwise.
        Both compute the same product bit-exactly, so batch size, shard
        size, and worker count can never change a sealed window.
        """
        deltas = list(deltas)
        # Lateness is checked for the whole batch *before* any sequence
        # number is recorded: fold_many either raises with state untouched
        # or runs to completion — callers can retry or shed a rejected
        # batch without stranding half-admitted deltas.
        for delta in deltas:
            if delta.timestamp < self.advanced_to:
                raise ProtocolError(
                    f"late delta at t={delta.timestamp} (sealed through "
                    f"{self.advanced_to})"
                )
        admitted: dict[int, list[EncryptedDelta]] = {}
        for delta in deltas:
            pane = self._admit(delta)
            if pane is not None:
                admitted.setdefault(pane, []).append(delta)
        accepted = 0
        for pane, group in admitted.items():
            if engine is not None and len(group) > 1:
                value, count = engine.product(group)
            else:
                value = CIPHER_IDENTITY
                count = CIPHER_IDENTITY
                for delta in group:
                    value = value * delta.value_cipher % self.n_squared
                    count = count * delta.count_cipher % self.n_squared
            self._fold_into(pane, value, count, len(group))
            accepted += len(group)
        return accepted

    def current(self) -> tuple[int, int]:
        """The instantaneous ``(value, count)`` fold, open panes included.

        Decrypting this pair must always equal plaintext recollection over
        the current membership — the invariant the stateful tests assert
        after every single event.
        """
        value, count = self.live_value, self.live_count
        for acc in self._open.values():
            value = value * acc[0] % self.n_squared
            count = count * acc[1] % self.n_squared
        return value, count

    def advance(self, now: int) -> list[WindowUpdate]:
        """Seal every pane boundary ``<= now``; one update per boundary."""
        if now < self.advanced_to:
            raise ProtocolError(
                f"clock moved backwards: {now} < {self.advanced_to}"
            )
        updates: list[WindowUpdate] = []
        pane_width = self.spec.pane_width
        while True:
            boundary = self.start + self._next_boundary * pane_width
            if boundary > now:
                break
            sealed = self._open.pop(
                self._next_boundary - 1, [CIPHER_IDENTITY, CIPHER_IDENTITY, 0]
            )
            self.live_value = self.live_value * sealed[0] % self.n_squared
            self.live_count = self.live_count * sealed[1] % self.n_squared
            self._sealed.append(sealed)
            window_value = CIPHER_IDENTITY
            window_count = CIPHER_IDENTITY
            deltas = 0
            for pane in self._sealed:
                window_value = window_value * pane[0] % self.n_squared
                window_count = window_count * pane[1] % self.n_squared
                deltas += pane[2]
            updates.append(
                WindowUpdate(
                    window_start=max(self.start, boundary - self.spec.width),
                    window_end=boundary,
                    index=self._next_boundary,
                    live_value=self.live_value,
                    live_count=self.live_count,
                    window_value=window_value,
                    window_count=window_count,
                    deltas=deltas,
                )
            )
            self.advanced_to = boundary
            self._next_boundary += 1
        return updates


class StandingQuery:
    """One registered standing query: the aggregate plus its window state."""

    def __init__(
        self,
        query: AggregateQuery,
        spec: WindowSpec,
        public_n: int,
        start: int = 0,
    ) -> None:
        if query.group_by is not None:
            raise QueryError(
                "delta maintenance serves scalar aggregates (no GROUP BY)"
            )
        self.query = query
        self.spec = spec
        self.public_n = public_n
        self.state = StandingAggregate(public_n, spec, start=start)

    def fold(self, delta: EncryptedDelta) -> bool:
        return self.state.fold(delta)

    def fold_many(self, deltas, engine: FoldEngine | None = None) -> int:
        return self.state.fold_many(deltas, engine=engine)

    def advance(self, now: int) -> list[WindowUpdate]:
        return self.state.advance(now)

    def current(self) -> tuple[int, int]:
        return self.state.current()


# ---------------------------------------------------------------------------
# Querier side: decryption + the timeseries hook
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LiveWindow:
    """One decrypted :class:`WindowUpdate` at the querier."""

    window_start: int
    window_end: int
    index: int
    #: Plaintext running (sum, count) at the boundary.
    total: int
    count: int
    #: Net (sum, count) change inside the window — negative under forgets.
    window_total: int
    window_count: int
    #: The finalized aggregate (None for SUM/AVG over an empty population).
    value: float | None


class StandingView:
    """The querier's live view: decrypts updates, keeps window history.

    The only key holder in the protocol. Each ingested update is decrypted
    with the signed convention (retractions live in the upper half of
    ``Z_n``) and, when a ``series`` store is attached, appended as a
    ``(window_end, aggregate)`` point — the standing query becomes an
    embedded time series the querier can range-aggregate like any sensor
    log.
    """

    def __init__(
        self,
        private: PaillierPrivateKey,
        query: AggregateQuery,
        series=None,
    ) -> None:
        self.private = private
        self.query = query
        self.series = series
        self.windows: list[LiveWindow] = []

    def _finalize(self, total: int, count: int) -> float | None:
        if self.query.aggregate == "COUNT":
            return float(count)
        if count == 0:
            return None
        if self.query.aggregate == "SUM":
            return float(total)
        return total / count  # AVG

    def ingest(self, update: WindowUpdate) -> LiveWindow:
        total = self.private.decrypt_signed(update.live_value)
        count = self.private.decrypt_signed(update.live_count)
        window = LiveWindow(
            window_start=update.window_start,
            window_end=update.window_end,
            index=update.index,
            total=total,
            count=count,
            window_total=self.private.decrypt_signed(update.window_value),
            window_count=self.private.decrypt_signed(update.window_count),
            value=self._finalize(total, count),
        )
        self.windows.append(window)
        if self.series is not None and window.value is not None:
            self.series.append(window.window_end, window.value)
        return window


# ---------------------------------------------------------------------------
# The differential reference
# ---------------------------------------------------------------------------
def recollect(nodes, query: AggregateQuery) -> tuple[int, int]:
    """Full plaintext recollection: the pair a fresh batch run would fold.

    The ground truth every folded state is compared against — over the
    *online* nodes only, exactly what :meth:`ServicePopulation.snapshot`
    would hand a one-shot execution.
    """
    total = 0
    count = 0
    for node in nodes:
        value, matched = contribution_of(node.records, query)
        total += value
        count += matched
    return total, count


def stamp_version(update: WindowUpdate, version: int) -> WindowUpdate:
    """The update with its publication-time population version filled in."""
    return replace(update, version=version)


def update_from_wire(payload: dict) -> WindowUpdate:
    """Rebuild a :class:`WindowUpdate` from an ``UPDATE`` frame's JSON
    payload (ciphertexts travel hex-encoded in the control plane)."""
    try:
        return WindowUpdate(
            window_start=int(payload["window_start"]),
            window_end=int(payload["window_end"]),
            index=int(payload["index"]),
            live_value=int(payload["live_value"], 16),
            live_count=int(payload["live_count"], 16),
            window_value=int(payload["window_value"], 16),
            window_count=int(payload["window_count"], 16),
            deltas=int(payload["deltas"]),
            version=int(payload.get("version", -1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed window update: {exc}") from exc


__all__ = [
    "CIPHER_IDENTITY",
    "DEFAULT_FOLD_SHARD_SIZE",
    "DeltaBatcher",
    "DeltaEmitter",
    "EncryptedDelta",
    "FoldEngine",
    "FoldShardTask",
    "LiveWindow",
    "StandingAggregate",
    "StandingQuery",
    "StandingView",
    "WindowSpec",
    "WindowUpdate",
    "contribution_of",
    "fold_shard",
    "recollect",
    "stamp_version",
    "update_from_wire",
]
