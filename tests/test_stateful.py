"""Model-based (stateful) property tests for the storage engines.

Hypothesis drives long random operation sequences against a Python-dict /
set model; any divergence is shrunk to a minimal failing trace. These catch
ordering/interleaving bugs that example-based tests structurally miss.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.globalq.tokens import TokenFleet
from repro.hardware.flash import BlockAllocator, FlashGeometry, NandFlash
from repro.hardware.ram import RamArena
from repro.keyvalue.kv import LogKeyValueStore
from repro.pds.datamodel import PersonalDocument
from repro.pds.sync import ReplicaState, badge_sync

KEYS = [b"alpha", b"beta", b"gamma", b"delta"]


def _allocator() -> BlockAllocator:
    flash = NandFlash(
        FlashGeometry(page_size=128, pages_per_block=8, num_blocks=4096)
    )
    return BlockAllocator(flash)


class KvMachine(RuleBasedStateMachine):
    """The KV store must behave exactly like a dict, always."""

    def __init__(self) -> None:
        super().__init__()
        self.store = LogKeyValueStore(_allocator(), bits_per_key=10.0)
        self.model: dict[bytes, bytes] = {}

    @rule(key=st.sampled_from(KEYS), value=st.binary(min_size=1, max_size=12))
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.store.flush()

    @rule()
    def compact(self):
        self.store = self.store.compact(
            RamArena(64 * 1024), sort_buffer_bytes=512
        )
        # After compaction the new store replaces the old generation.

    @invariant()
    def gets_match_model(self):
        for key in KEYS:
            assert self.store.get(key) == self.model.get(key)

    @invariant()
    def items_match_model(self):
        assert self.store.items() == self.model


KvMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestKvStateful = KvMachine.TestCase


class SyncMachine(RuleBasedStateMachine):
    """Badge sync must be idempotent, monotone and convergent."""

    def __init__(self) -> None:
        super().__init__()
        self.fleet = TokenFleet(seed=1)
        self.replicas = [ReplicaState(f"r{i}") for i in range(3)]
        self.model: set[tuple[str, int]] = set()
        self._counter = 0

    @rule(
        replica=st.integers(0, 2),
        source=st.sampled_from(["doctor", "nurse", "patient"]),
    )
    def author(self, replica, source):
        stamped = self.replicas[replica].add_local(
            f"{source}@r{replica}",
            PersonalDocument(kind="medical", text=f"note-{self._counter}"),
        )
        self._counter += 1
        self.model.add(stamped.key())

    @rule(left=st.integers(0, 2), right=st.integers(0, 2))
    def sync(self, left, right):
        if left == right:
            return
        badge_sync(self.fleet, self.replicas[left], self.replicas[right])

    @invariant()
    def replicas_never_invent_documents(self):
        for replica in self.replicas:
            held = {stamped.key() for stamped in replica.documents()}
            assert held <= self.model

    @invariant()
    def per_source_counters_are_dense(self):
        """A replica holding (s, n) holds every (s, m) for m < n... only at
        the source replica; couriers carry whole suffixes, so what each
        replica holds per source is always a prefix-contiguous range."""
        for replica in self.replicas:
            per_source: dict[str, list[int]] = {}
            for stamped in replica.documents():
                per_source.setdefault(stamped.source, []).append(
                    stamped.counter
                )
            for counters in per_source.values():
                counters.sort()
                assert counters == list(range(len(counters)))

    def teardown(self):
        # Final convergence check: a full round of syncs equalizes all.
        for left in range(3):
            for right in range(left + 1, 3):
                badge_sync(self.fleet, self.replicas[left], self.replicas[right])
        badge_sync(self.fleet, self.replicas[0], self.replicas[1])
        keys = [
            {stamped.key() for stamped in replica.documents()}
            for replica in self.replicas
        ]
        assert keys[0] == keys[1] == keys[2] == self.model


SyncMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestSyncStateful = SyncMachine.TestCase


class RamMachine(RuleBasedStateMachine):
    """The RAM arena's accounting can never drift or go negative."""

    handles = Bundle("handles")

    def __init__(self) -> None:
        super().__init__()
        self.ram = RamArena(10_000)
        self.model: dict[int, int] = {}

    @rule(target=handles, size=st.integers(0, 2000))
    def allocate(self, size):
        from repro.errors import RamBudgetExceeded

        try:
            handle = self.ram.allocate(size, tag="stateful")
        except RamBudgetExceeded:
            assert sum(self.model.values()) + size > 10_000
            return None
        self.model[handle] = size
        return handle

    @rule(handle=handles)
    def free(self, handle):
        if handle is None or handle not in self.model:
            return
        self.ram.free(handle)
        del self.model[handle]

    @rule(handle=handles, new_size=st.integers(0, 2000))
    def resize(self, handle, new_size):
        from repro.errors import RamBudgetExceeded

        if handle is None or handle not in self.model:
            return
        try:
            self.ram.resize(handle, new_size)
        except RamBudgetExceeded:
            grow = new_size - self.model[handle]
            assert sum(self.model.values()) + grow > 10_000
            return
        self.model[handle] = new_size

    @invariant()
    def in_use_matches_model(self):
        assert self.ram.in_use == sum(self.model.values())
        assert 0 <= self.ram.in_use <= 10_000
        assert self.ram.high_water >= self.ram.in_use


RamMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestRamStateful = RamMachine.TestCase
