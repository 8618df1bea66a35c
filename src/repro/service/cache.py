"""Churn-aware aggregate-result cache: version-exact, never stale.

The cache is keyed by the canonical query descriptor and carries the
population version each entry was computed at. Invalidation is *exact*: the
cache subscribes to :class:`~repro.service.population.ServicePopulation`
events, and every churn flip or ``forget()`` purges all entries of older
versions in the same synchronous call that bumped the version — there is no
TTL, no grace window, no "eventually". A hit is only ever served when the
entry's version equals the population's current version, so a served
aggregate is always the one a fresh batch run over the current membership
would produce (asserted bit-identically by the tests and bench E24).

Standing subscriptions (PR 10) add a second coherence axis. An execution
runs off the event loop, so a ``forget()`` can land *between* the scheduler's
dequeue-time cache re-check and its ``put()`` — the version comparison
alone would let that interleaving insert (or serve) an entry for a state a
subscriber has already seen a delta supersede. Two mechanisms close it:

* every ``get``/``put`` and the event purge hold one lock, so the
  check-then-act pairs are atomic against the listener chain that folds
  deltas and bumps the version;
* :meth:`note_delta` records, per descriptor, the version floor implied by
  the subscription's delta sequence; entries below the floor are refused
  on both paths (counted as ``coherence_refusals``). A floor *above* the
  current version marks a descriptor whose delta stream outruns the local
  membership mirror (wire-fed subscriptions): its results are not cached
  at all until the population catches up.

Capacity is a plain LRU bound; ``capacity=0`` disables caching entirely
(the admission/scheduling layers work unchanged).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.service.descriptor import QueryDescriptor
from repro.service.population import PopulationSnapshot, ServicePopulation


@dataclass
class ResultCacheStats:
    """Counters the service exports through ``repro.obs``."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Entries purged because churn/forget moved the population version.
    invalidations: int = 0
    #: Results not cached because their snapshot was already outdated when
    #: the query finished (they were still correct *for their snapshot*).
    stale_results_dropped: int = 0
    #: Entries refused because a standing subscription's delta floor
    #: superseded them (serve or insert attempts below the floor).
    coherence_refusals: int = 0


@dataclass
class CacheEntry:
    """One cached aggregate plus everything needed to reproduce it."""

    version: int
    result: dict[str, float]
    seed: int
    #: The snapshot the result was computed over (kept only when the
    #: service records snapshots, for bit-identical re-verification).
    snapshot: PopulationSnapshot | None = None
    stats: dict = field(default_factory=dict)


class ResultCache:
    """LRU of aggregate results, invalidated exactly on population events."""

    def __init__(
        self, capacity: int, population: ServicePopulation
    ) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.population = population
        self.stats = ResultCacheStats()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        #: Per-descriptor minimum version a served entry must reflect
        #: (raised by standing-subscription deltas, never lowered).
        self._floors: dict[str, int] = {}
        self._lock = threading.Lock()
        population.add_listener(self._on_population_event)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    # ------------------------------------------------------------------
    def get(
        self, descriptor: QueryDescriptor, recheck: bool = False
    ) -> CacheEntry | None:
        """The current-version entry for ``descriptor``, or None (miss).

        ``recheck`` marks the scheduler's second look on behalf of an
        arrival whose miss is already counted: a second miss is not counted
        and a hit takes the first one back, so every arrival ends up as
        exactly one hit or one miss.
        """
        if not self.enabled:
            return None
        key = descriptor.canonical()
        with self._lock:
            entry = self._current_entry(key)
            if entry is not None:
                self.stats.hits += 1
                if recheck:
                    self.stats.misses -= 1
            elif not recheck:
                self.stats.misses += 1
            return entry

    def _current_entry(self, key: str) -> CacheEntry | None:
        """``key``'s entry if it may be served right now (lock held)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.version != self.population.version:
            # Defensive: the event listener purges synchronously, so
            # this only triggers if someone mutated the population
            # without notifying — still never serve it.
            del self._entries[key]
            self.stats.invalidations += 1
            return None
        if entry.version < self._floors.get(key, 0):
            # A subscriber already folded a delta this entry predates.
            del self._entries[key]
            self.stats.coherence_refusals += 1
            return None
        self._entries.move_to_end(key)
        return entry

    def put(
        self,
        descriptor: QueryDescriptor,
        entry: CacheEntry,
    ) -> bool:
        """Insert a freshly computed result; refuses outdated snapshots.

        Returns False (and counts it) when the population moved on — or a
        standing subscription's delta floor did — while the query was
        executing: the caller still serves the result, it just must not be
        replayed to later queriers.
        """
        if not self.enabled:
            return False
        key = descriptor.canonical()
        with self._lock:
            if entry.version != self.population.version:
                self.stats.stale_results_dropped += 1
                return False
            if entry.version < self._floors.get(key, 0):
                self.stats.coherence_refusals += 1
                return False
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return True

    # ------------------------------------------------------------------
    def note_delta(self, key: str, version: int) -> None:
        """Raise ``key``'s version floor: a subscriber saw a delta at it.

        Called by the standing registry in the same synchronous listener
        chain that folds the delta. Any cached entry predating ``version``
        is purged immediately; later ``get``/``put`` attempts below the
        floor are refused even if the entry's version matches the
        population (the wire-fed case, where deltas arrive without a local
        membership event).
        """
        with self._lock:
            if version <= self._floors.get(key, 0):
                return
            self._floors[key] = version
            entry = self._entries.get(key)
            if entry is not None and entry.version < version:
                del self._entries[key]
                self.stats.coherence_refusals += 1

    def _on_population_event(
        self, event: str, pds_id: int, version: int
    ) -> None:
        """Exact invalidation: every pre-event entry dies with the event."""
        with self._lock:
            if not self._entries:
                return
            purged = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += purged
