"""Admission control: typed shedding, bounded depth, class fairness."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetError
from repro.globalq.continuous import EncryptedDelta
from repro.net.codec import encode_delta_batch
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionController, Overloaded
from repro.service.ingest import IngestPipeline


def run(coro):
    return asyncio.run(coro)


class TestShedding:
    def test_rejects_beyond_depth_with_typed_error(self):
        async def scenario():
            ctrl = AdmissionController(max_queue_depth=2)
            ctrl.submit("a", "t1")
            ctrl.submit("b", "t2")
            with pytest.raises(Overloaded) as excinfo:
                ctrl.submit("a", "t3")
            return excinfo.value, ctrl

        exc, ctrl = run(scenario())
        assert isinstance(exc, NetError)  # catchable as the net family
        assert exc.query_class == "a"
        assert exc.queued == 2
        assert exc.limit == 2
        assert ctrl.stats.admitted == 2
        assert ctrl.stats.shed == 1
        assert ctrl.stats.shed_by_class == {"a": 1}

    def test_depth_is_summed_across_classes(self):
        async def scenario():
            ctrl = AdmissionController(max_queue_depth=3)
            for i, cls in enumerate(["a", "b", "c"]):
                ctrl.submit(cls, i)
            with pytest.raises(Overloaded):
                ctrl.submit("d", 99)
            return ctrl

        ctrl = run(scenario())
        assert ctrl.depth == 3
        assert ctrl.stats.queue_depth_high_water == 3

    def test_zero_depth_sheds_everything(self):
        async def scenario():
            ctrl = AdmissionController(max_queue_depth=0)
            with pytest.raises(Overloaded):
                ctrl.submit("a", 1)

        run(scenario())


class TestFairness:
    def test_round_robin_across_classes(self):
        async def scenario():
            ctrl = AdmissionController(max_queue_depth=16)
            # A burst of class a, then one each of b and c.
            for i in range(4):
                ctrl.submit("a", ("a", i))
            ctrl.submit("b", ("b", 0))
            ctrl.submit("c", ("c", 0))
            return [await ctrl.next_ticket() for _ in range(6)]

        order = run(scenario())
        # b and c are each served before a's burst drains.
        assert order.index(("b", 0)) < order.index(("a", 2))
        assert order.index(("c", 0)) < order.index(("a", 3))
        # FIFO within a class.
        a_order = [t for t in order if t[0] == "a"]
        assert a_order == [("a", i) for i in range(4)]

    def test_waits_for_submission(self):
        async def scenario():
            ctrl = AdmissionController(max_queue_depth=4)
            waiter = asyncio.ensure_future(ctrl.next_ticket())
            await asyncio.sleep(0)
            assert not waiter.done()
            ctrl.submit("a", "late")
            return await waiter

        assert run(scenario()) == "late"

    def test_drain_empties_all_queues(self):
        async def scenario():
            ctrl = AdmissionController(max_queue_depth=8)
            for i in range(3):
                ctrl.submit("a", i)
            ctrl.submit("b", 9)
            drained = ctrl.drain()
            return ctrl, drained

        ctrl, drained = run(scenario())
        assert sorted(drained, key=str) == [0, 1, 2, 9]
        assert ctrl.depth == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=-1)


class AdmissionUser:
    """The query scheduler's use of the fair queue: submit / next_ticket."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.ctrl = AdmissionController(limit)

    async def push(self, key, item) -> bool:
        try:
            self.ctrl.submit(key, item)
        except Overloaded as exc:
            assert (exc.query_class, exc.limit) == (key, self.limit)
            return False
        return True

    async def pop(self, count: int) -> list:
        return [
            await self.ctrl.next_ticket()
            for _ in range(min(count, self.ctrl.depth))
        ]

    async def close(self) -> int:
        """The deepest the queue ever got."""
        return self.ctrl.stats.queue_depth_high_water


class IngestUser:
    """The delta pipeline's use of it: offer / drain loop / fold batches.

    Deltas are fire-and-forget, so a pop is a full drain and what was
    popped is read off the batches the fold thread was handed.
    """

    def __init__(self, limit: int) -> None:
        self.folded: list = []
        self.registry = MetricsRegistry()
        self.pipeline = IngestPipeline(
            self, self.registry, depth=limit, batch_max=3
        )
        self.pipeline.start()

    def ingest_many(self, batch):  # the StandingRegistry seam
        self.folded.extend((key, delta.seq) for key, delta in batch)
        return len(batch), 0

    async def push(self, key, item) -> bool:
        shed = self.registry.counter("globalq.ingest.shed")
        before = shed.value
        delta = EncryptedDelta(item, item, 0, 1, 1)
        self.pipeline.offer(encode_delta_batch([(key, delta)]))
        return shed.value == before

    async def pop(self, count: int) -> list:
        await self.pipeline.drain()
        popped = [item for _key, item in self.folded]
        self.folded.clear()
        return popped

    async def close(self) -> int:
        await self.pipeline.stop()
        return self.registry.gauge("globalq.ingest.queue_depth").value


KEYS = st.integers(0, 4)


class TestSharedFairQueue:
    @pytest.mark.parametrize("user", [AdmissionUser, IngestUser])
    @given(
        limit=st.integers(1, 12),
        rounds=st.lists(
            st.tuples(st.lists(KEYS, max_size=20), st.integers(0, 20)),
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounded_fifo_per_key_and_round_robin(self, user, limit, rounds):
        """Both users of the one queue: the global bound is never exceeded
        (the overflow is shed), items of a key leave in arrival order, and
        a non-empty key is served within #keys pops."""

        async def scenario():
            driver = user(limit)
            waiting: dict = {}  # key -> queued items, oldest first
            waited: dict = {}  # key -> pops since it last was served
            item = 0
            for pushes, pops in rounds:
                for key in pushes:
                    item += 1
                    queued = sum(len(q) for q in waiting.values())
                    accepted = await driver.push(key, item)
                    assert accepted == (queued < limit)
                    if accepted:
                        waiting.setdefault(key, []).append(item)
                for popped in await driver.pop(pops):
                    (served,) = [
                        key for key, q in waiting.items() if q and q[0] == popped
                    ]
                    waiting[served].pop(0)
                    for key, queue in waiting.items():
                        if key == served or not queue:
                            waited[key] = 0
                        else:
                            waited[key] = waited.get(key, 0) + 1
                            assert waited[key] < len(waiting)
            assert await driver.close() <= limit

        run(scenario())
