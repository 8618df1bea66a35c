"""Message bus tests: link models, loss/offline drops, backpressure,
mailbox timeouts — all via ``asyncio.run`` (no async test plugin needed)."""

import asyncio
import random

import pytest

from repro.errors import NetTimeout, ProtocolError
from repro.net.bus import LinkProfile, MessageBus
from repro.net.codec import KIND_ACK, KIND_CONTRIB, Frame
from repro.net.metrics import LatencyStats, NetMetrics


class TestLinkProfile:
    def test_defaults_valid(self):
        profile = LinkProfile()
        assert profile.loss == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 1.0},
            {"loss": -0.1},
            {"latency_ms": -1.0},
            {"jitter_ms": -1.0},
            {"bandwidth_bps": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LinkProfile(**kwargs)

    def test_delay_without_jitter_is_latency(self):
        profile = LinkProfile(latency_ms=7.0)
        assert profile.delay_ms(100, random.Random(0)) == 7.0

    def test_jitter_bounded(self):
        profile = LinkProfile(latency_ms=5.0, jitter_ms=3.0)
        rng = random.Random(1)
        for _ in range(50):
            assert 5.0 <= profile.delay_ms(10, rng) <= 8.0

    def test_bandwidth_adds_serialization_delay(self):
        profile = LinkProfile(latency_ms=0.0, bandwidth_bps=8000.0)
        # 1000 bytes at 8 kbit/s = 1 second = 1000 ms.
        assert profile.delay_ms(1000, random.Random(0)) == pytest.approx(1000.0)


def run(coro):
    return asyncio.run(coro)


def make_bus(**kwargs) -> MessageBus:
    return MessageBus(rng=random.Random(0), **kwargs)


class TestMessageBus:
    def test_register_twice_rejected(self):
        async def body():
            bus = make_bus()
            bus.register("a")
            with pytest.raises(ValueError):
                bus.register("a")

        run(body())

    def test_unknown_receiver_rejected(self):
        async def body():
            bus = make_bus()
            bus.register("a")
            with pytest.raises(ProtocolError, match="unknown endpoint"):
                await bus.send("a", "ghost", Frame(KIND_ACK, "a", 0))

        run(body())

    def test_send_and_receive(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            b = bus.register("b")
            frame = Frame(KIND_CONTRIB, "a", 3, b"payload")
            assert await a.send("b", frame)
            received = await b.recv(timeout=1.0)
            assert received == frame
            await bus.close()

        run(body())

    def test_loss_drops_frames(self):
        async def body():
            bus = make_bus(default_link=LinkProfile(loss=0.999))
            a = bus.register("a")
            bus.register("b")
            accepted = [
                await a.send("b", Frame(KIND_ACK, "a", i)) for i in range(50)
            ]
            assert not all(accepted)
            assert bus.metrics.drops["loss"] > 0
            await bus.close()

        run(body())

    def test_offline_receiver_drops(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            bus.register("b")
            bus.set_offline("b", True)
            assert not await a.send("b", Frame(KIND_ACK, "a", 0))
            assert bus.metrics.drops["offline"] == 1
            bus.set_offline("b", False)
            assert bus.is_online("b")
            assert await a.send("b", Frame(KIND_ACK, "a", 1))
            await bus.close()

        run(body())

    def test_offline_sender_drops(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            bus.register("b")
            bus.set_offline("a", True)
            assert not await a.send("b", Frame(KIND_ACK, "a", 0))
            await bus.close()

        run(body())

    def test_per_link_override(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            bus.register("b")
            lossy = LinkProfile(loss=0.999)
            bus.set_link("a", "b", lossy)
            assert bus.link_for("a", "b") is lossy
            assert bus.link_for("b", "a") is bus.default_link
            sent = [
                await a.send("b", Frame(KIND_ACK, "a", i)) for i in range(50)
            ]
            assert not all(sent)
            await bus.close()

        run(body())

    def test_metrics_account_sends_and_deliveries(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            b = bus.register("b")
            await a.send("b", Frame(KIND_CONTRIB, "a", 0, b"xyz"))
            await b.recv(timeout=1.0)
            metrics = bus.metrics
            assert metrics.frames_sent == 1
            assert metrics.frames_delivered == 1
            assert metrics.sent_by_kind["CONTRIB"] == 1
            assert metrics.comm.messages == 1
            assert metrics.comm.by_edge[("a", "b")] == metrics.comm.bytes > 0
            assert metrics.inflight == 0
            await bus.close()

        run(body())

    def test_backpressure_blocks_sender(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            bus.register("b", queue_size=1)  # capacity 1 + slack
            blocked = asyncio.Event()

            async def flood():
                for i in range(200):
                    await a.send("b", Frame(KIND_ACK, "a", i))
                blocked.set()

            task = asyncio.ensure_future(flood())
            await asyncio.sleep(0.05)
            # The receiver never drains, so the flood cannot complete.
            assert not blocked.is_set()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await bus.close()

        run(body())


class TestEndpoint:
    def test_recv_timeout(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            with pytest.raises(NetTimeout):
                await a.recv(timeout=0.01)

        run(body())

    def test_try_recv_nonblocking(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            b = bus.register("b")
            assert b.try_recv() is None
            frame = Frame(KIND_ACK, "a", 9)
            await a.send("b", frame)
            await asyncio.sleep(0.01)  # let the delivery task run
            assert b.pending == 1
            assert b.try_recv() == frame
            assert b.try_recv() is None
            await bus.close()

        run(body())

    def test_recv_match_discards_stale(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            b = bus.register("b")
            for seq in (1, 2, 3):
                await a.send("b", Frame(KIND_ACK, "a", seq))
            frame = await b.recv_match(lambda f: f.seq == 3, timeout=1.0)
            assert frame.seq == 3
            assert b.pending == 0  # 1 and 2 were discarded on the way
            await bus.close()

        run(body())

    def test_recv_match_timeout(self):
        async def body():
            bus = make_bus()
            a = bus.register("a")
            b = bus.register("b")
            await a.send("b", Frame(KIND_ACK, "a", 1))
            with pytest.raises(NetTimeout):
                await b.recv_match(lambda f: f.seq == 99, timeout=0.02)
            await bus.close()

        run(body())


class TestNetMetrics:
    def test_latency_stats(self):
        stats = LatencyStats()
        assert stats.mean_ms == 0.0
        stats.add(10.0)
        stats.add(20.0)
        assert stats.mean_ms == 15.0
        assert stats.max_ms == 20.0

    def test_phase_latency_attribution(self):
        metrics = NetMetrics()
        metrics.set_phase("collection")
        metrics.on_send("CONTRIB", 10)
        metrics.on_deliver("a", "b", 10, 5.0)
        metrics.set_phase("aggregation")
        metrics.on_send("CLAIM", 4)
        metrics.on_deliver("t", "ssi", 4, 7.0)
        assert metrics.latency_by_phase["collection"].mean_ms == 5.0
        assert metrics.latency_by_phase["aggregation"].mean_ms == 7.0

    def test_merge_channel_stats(self):
        from repro.net.metrics import CommStats

        metrics = NetMetrics()
        stats = CommStats()
        stats.record("x", "y", 100)
        metrics.merge_channel_stats(stats)
        metrics.merge_channel_stats(stats)
        assert metrics.comm.bytes == 200
        assert metrics.comm.by_edge[("x", "y")] == 200

    def test_summary_keys(self):
        summary = NetMetrics().summary()
        assert summary["frames_sent"] == 0
        assert summary["drop_reasons"] == {}
