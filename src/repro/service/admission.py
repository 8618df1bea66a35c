"""Admission control: bounded queues, typed shedding, per-key fairness.

An always-on SSI cannot let offered load queue without bound — queue depth
is latency, and a mailbox that grows forever is how p999 dies. Both things
the service queues — admitted queries waiting for the scheduler loop, decoded
deltas waiting for the fold thread — sit in one structure,
:class:`FairQueue`: a FIFO per key (query class, subscription id) under one
*global* bound. An arrival past the bound is shed with a typed
:class:`Overloaded` carrying the observed depth, so clients (and the load
generator) can tell "rejected by policy" from a failure. Keys are served
round-robin — the key served last goes to the back of the rotation — so a
burst on one key cannot starve the others.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.errors import NetError


class Overloaded(NetError):
    """The service shed this arrival at admission (queues full)."""

    def __init__(self, query_class, queued: int, limit: int) -> None:
        super().__init__(
            f"overloaded: {queued} queued >= limit {limit} "
            f"(rejecting {query_class})"
        )
        self.query_class = query_class
        self.queued = queued
        self.limit = limit


class FairQueue:
    """Bounded per-key FIFO queues drained round-robin across keys. Not
    thread-safe: each user calls it from one thread (the event loop)."""

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("queue limit must be >= 0")
        self.limit = limit
        #: Items queued across all keys.
        self.size = 0
        # Rotation order: the front key is served next.
        self._queues: OrderedDict[object, deque] = OrderedDict()

    def push(self, key, item) -> None:
        """Queue ``item`` under ``key`` or raise :class:`Overloaded`."""
        if self.size >= self.limit:
            raise Overloaded(key, self.size, self.limit)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        queue.append(item)
        self.size += 1

    def pop(self):
        """``(key, oldest item)`` of the key at the front of the rotation."""
        key, queue = self._queues.popitem(last=False)
        item = queue.popleft()
        self.size -= 1
        if queue:
            self._queues[key] = queue  # back of the rotation
        return key, item

    def drain(self) -> list:
        """Remove and return every queued item."""
        items = [item for queue in self._queues.values() for item in queue]
        self._queues.clear()
        self.size = 0
        return items


@dataclass
class AdmissionStats:
    admitted: int = 0
    shed: int = 0
    admitted_by_class: dict = field(default_factory=dict)
    shed_by_class: dict = field(default_factory=dict)
    queue_depth_high_water: int = 0


class AdmissionController:
    """The query scheduler's waiting room: a :class:`FairQueue` keyed by
    query class, with per-class accounting and an awaitable dequeue.

    ``max_queue_depth`` bounds admitted-but-waiting queries summed over the
    classes; the service's one scheduler loop dequeues them, so the order
    tickets leave is the order queries execute.
    """

    def __init__(self, max_queue_depth: int) -> None:
        self._queue = FairQueue(max_queue_depth)
        self.stats = AdmissionStats()
        self._available = asyncio.Event()

    @property
    def depth(self) -> int:
        return self._queue.size

    def submit(self, query_class: str, ticket) -> None:
        """Admit ``ticket`` or raise :class:`Overloaded` (shed)."""
        stats = self.stats
        try:
            self._queue.push(query_class, ticket)
        except Overloaded:
            stats.shed += 1
            by = stats.shed_by_class
            by[query_class] = by.get(query_class, 0) + 1
            raise
        stats.admitted += 1
        by = stats.admitted_by_class
        by[query_class] = by.get(query_class, 0) + 1
        if self._queue.size > stats.queue_depth_high_water:
            stats.queue_depth_high_water = self._queue.size
        self._available.set()

    async def next_ticket(self):
        """The next ticket, fair across classes; waits when all are empty."""
        while not self._queue.size:
            self._available.clear()
            await self._available.wait()
        return self._queue.pop()[1]

    def drain(self) -> list:
        """Remove and return every queued ticket (service shutdown)."""
        return self._queue.drain()
