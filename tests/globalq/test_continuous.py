"""Standing queries: delta-fold exactness against full recollection.

The contract under test is the delta-maintenance invariant: after *any*
interleaving of insert / update / forget / churn events, decrypting the
SSI's folded ciphertext state equals a full plaintext recollection over the
current online membership — exactly, because contributions are integers and
Paillier arithmetic is exact. The stateful machine drives random
interleavings (the satellite-4 coverage task); the example tests pin window
algebra, replay rejection and the wire codec.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.crypto.paillier import generate_keypair
from repro.errors import ProtocolError, QueryError
from repro.globalq.continuous import (
    CIPHER_IDENTITY,
    DeltaEmitter,
    StandingQuery,
    StandingView,
    WindowSpec,
    contribution_of,
    recollect,
    update_from_wire,
)
from repro.globalq.queries import AggregateQuery
from repro.net.codec import (
    decode_delta,
    decode_delta_batch,
    encode_delta,
    encode_delta_batch,
)
from repro.net.messages import EncryptedDelta
from repro.service.population import slim_population
from repro.service.standing import StandingRegistry
from repro.workloads.people import PersonRecord

# One small key for the whole module: 128 bits keeps exponentiations cheap
# while exercising the full signed range logic.
PUBLIC, PRIVATE = generate_keypair(bits=128, rng=random.Random(42))

SUM_SALARY = AggregateQuery.sum("salary")


def decrypt_pair(pair):
    return PRIVATE.decrypt_signed(pair[0]), PRIVATE.decrypt_signed(pair[1])


class TestWindowSpec:
    def test_tumbling_defaults(self):
        spec = WindowSpec(width=10)
        assert spec.pane_width == 10
        assert spec.panes_per_window == 1
        assert spec.tumbling

    def test_sliding_panes(self):
        spec = WindowSpec(width=20, slide=5)
        assert spec.pane_width == 5
        assert spec.panes_per_window == 4
        assert not spec.tumbling

    def test_slide_must_divide_width(self):
        with pytest.raises(QueryError):
            WindowSpec(width=10, slide=3)

    def test_slide_must_not_exceed_width(self):
        with pytest.raises(QueryError):
            WindowSpec(width=5, slide=10)

    def test_round_trips_through_dict(self):
        spec = WindowSpec(width=12, slide=4)
        assert WindowSpec.from_dict(spec.to_dict()) == spec

    def test_wire_form_may_omit_slide(self):
        """Regression: a tumbling SUBSCRIBE sends only ``width``."""
        assert WindowSpec.from_dict({"width": 3}) == WindowSpec(width=3)
        assert WindowSpec.from_dict({"width": 3, "slide": None}) == (
            WindowSpec(width=3)
        )

    def test_malformed_wire_forms_rejected(self):
        for data in ({}, {"width": "wide"}, {"width": 4, "slide": "x"}, [1]):
            with pytest.raises(QueryError, match="malformed window spec"):
                WindowSpec.from_dict(data)


class TestContributions:
    def test_count_and_sum(self):
        records = [
            PersonRecord({"city": "Paris", "salary": 1200.0}),
            PersonRecord({"city": "Oslo", "salary": 800.0}),
        ]
        assert contribution_of(records, SUM_SALARY) == (2000, 2)
        assert contribution_of(records, AggregateQuery.count()) == (2, 2)

    def test_where_filters_locally(self):
        records = [
            PersonRecord({"city": "Paris", "salary": 100.0}),
            PersonRecord({"city": "Oslo", "salary": 70.0}),
        ]
        query = AggregateQuery.sum("salary", where=(("city", "Paris"),))
        assert contribution_of(records, query) == (100, 1)

    def test_non_integer_values_are_rejected(self):
        records = [PersonRecord({"salary": 99.5})]
        with pytest.raises(QueryError):
            contribution_of(records, SUM_SALARY)

    def test_group_by_is_rejected(self):
        with pytest.raises(QueryError):
            DeltaEmitter(PUBLIC, AggregateQuery.count(group_by="city"))


class TestDeltaFold:
    def test_bootstrap_then_forget_round_trips(self):
        emitter = DeltaEmitter(PUBLIC, SUM_SALARY, seed=3)
        standing = StandingQuery(SUM_SALARY, WindowSpec(width=4), PUBLIC.n)
        nodes = slim_population(10)
        for node in nodes.online_nodes():
            standing.fold(emitter.refresh(node, True, 0))
        assert decrypt_pair(standing.current()) == recollect(
            nodes.online_nodes(), SUM_SALARY
        )
        # forget() retracts: the delta stream must go negative and match.
        nodes.forget(3)
        delta = emitter.refresh(nodes.node(3), True, 1)
        standing.fold(delta)
        assert decrypt_pair(standing.current()) == recollect(
            nodes.online_nodes(), SUM_SALARY
        )

    def test_duplicate_sequence_is_folded_once(self):
        emitter = DeltaEmitter(PUBLIC, SUM_SALARY, seed=5)
        standing = StandingQuery(SUM_SALARY, WindowSpec(width=4), PUBLIC.n)
        pop = slim_population(3)
        deltas = [emitter.refresh(n, True, 0) for n in pop.online_nodes()]
        for delta in deltas:
            assert standing.fold(delta) is True
        for delta in deltas:  # replay the whole stream
            assert standing.fold(delta) is False
        assert standing.state.duplicates == 3
        assert decrypt_pair(standing.current()) == recollect(
            pop.online_nodes(), SUM_SALARY
        )

    def test_late_delta_is_a_protocol_error(self):
        standing = StandingQuery(SUM_SALARY, WindowSpec(width=2), PUBLIC.n)
        standing.advance(4)  # seals through t=4
        late = EncryptedDelta(0, 1, 3, CIPHER_IDENTITY, CIPHER_IDENTITY)
        with pytest.raises(ProtocolError):
            standing.fold(late)

    def test_sliding_window_is_the_pane_product(self):
        """width=4/slide=2: each boundary's window covers the last 2 panes."""
        emitter = DeltaEmitter(PUBLIC, SUM_SALARY, seed=9)
        standing = StandingQuery(
            SUM_SALARY, WindowSpec(width=4, slide=2), PUBLIC.n
        )
        pop = slim_population(6)
        pane_net = {}  # pane index -> plaintext net change
        previous = recollect(pop.online_nodes(), SUM_SALARY)

        def apply_event(t, pds_id):
            pop.forget(pds_id)
            delta = emitter.refresh(pop.node(pds_id), True, t)
            if delta is not None:
                standing.fold(delta)

        for node in pop.online_nodes():  # bootstrap in pane 0
            standing.fold(emitter.refresh(node, True, 0))
        pane_net[0] = recollect(pop.online_nodes(), SUM_SALARY)
        apply_event(2, 0)  # pane 1
        apply_event(3, 1)  # pane 1
        state_at_4 = recollect(pop.online_nodes(), SUM_SALARY)
        updates = standing.advance(4)
        assert [u.window_end for u in updates] == [2, 4]
        final = updates[-1]
        # live at t=4 == recollection of everything folded before t=4.
        assert decrypt_pair((final.live_value, final.live_count)) == state_at_4
        # the sliding window [0, 4) covers both panes = the full net change.
        assert decrypt_pair(
            (final.window_value, final.window_count)
        ) == state_at_4
        del previous, pane_net

    def test_updates_carry_negative_window_net_change(self):
        emitter = DeltaEmitter(PUBLIC, SUM_SALARY, seed=11)
        standing = StandingQuery(SUM_SALARY, WindowSpec(width=2), PUBLIC.n)
        pop = slim_population(4)
        for node in pop.online_nodes():
            standing.fold(emitter.refresh(node, True, 0))
        (first,) = standing.advance(2)
        before = recollect(pop.online_nodes(), SUM_SALARY)
        pop.forget(2)  # only a retraction in the second window
        standing.fold(emitter.refresh(pop.node(2), True, 2))
        (second,) = standing.advance(4)
        window_total, window_count = decrypt_pair(
            (second.window_value, second.window_count)
        )
        after = recollect(pop.online_nodes(), SUM_SALARY)
        assert window_total == after[0] - before[0] < 0
        assert window_count == after[1] - before[1] == -1
        assert decrypt_pair((second.live_value, second.live_count)) == after
        assert first.index == 1 and second.index == 2


class TestStandingView:
    def test_view_decrypts_and_feeds_a_timeseries(self):
        from repro.hardware.flash import (
            BlockAllocator,
            FlashGeometry,
            NandFlash,
        )
        from repro.timeseries.series import TimeSeriesStore

        allocator = BlockAllocator(
            NandFlash(
                FlashGeometry(page_size=256, pages_per_block=8, num_blocks=64)
            )
        )
        series = TimeSeriesStore(allocator, name="standing")
        query = AggregateQuery.avg("salary")
        emitter = DeltaEmitter(PUBLIC, query, seed=13)
        standing = StandingQuery(query, WindowSpec(width=2), PUBLIC.n)
        view = StandingView(PRIVATE, query, series=series)
        pop = slim_population(8)
        for node in pop.online_nodes():
            standing.fold(emitter.refresh(node, True, 0))
        for update in standing.advance(6):
            view.ingest(update)
        total, count = recollect(pop.online_nodes(), query)
        expected = total / count
        assert [w.value for w in view.windows] == [expected] * 3
        # The standing query is now an embedded time series.
        assert series.range_aggregate(0, 10, "AVG") == expected
        assert series.count == 3


class TestDeltaCodec:
    def test_round_trip(self):
        emitter = DeltaEmitter(PUBLIC, SUM_SALARY, seed=17)
        pop = slim_population(1)
        delta = emitter.refresh(pop.node(0), True, 7)
        encoded = encode_delta(12, delta)
        assert decode_delta(encoded) == (12, delta)
        # On the wire a lone delta is a one-entry DELTA_BATCH payload.
        batch = encode_delta_batch([(12, delta)])
        assert batch.endswith(encoded)
        assert decode_delta_batch(batch) == [(12, delta)]

    def test_truncated_payload_raises(self):
        emitter = DeltaEmitter(PUBLIC, SUM_SALARY, seed=19)
        pop = slim_population(1)
        delta = emitter.refresh(pop.node(0), True, 0)
        with pytest.raises(ProtocolError):
            decode_delta(encode_delta(1, delta)[:-3])
        with pytest.raises(ProtocolError):
            decode_delta_batch(encode_delta_batch([(1, delta)])[:-3])

    def test_update_payload_round_trips(self):
        emitter = DeltaEmitter(PUBLIC, SUM_SALARY, seed=23)
        standing = StandingQuery(SUM_SALARY, WindowSpec(width=2), PUBLIC.n)
        pop = slim_population(3)
        for node in pop.online_nodes():
            standing.fold(emitter.refresh(node, True, 0))
        (update,) = standing.advance(2)
        payload = {
            "window_start": update.window_start,
            "window_end": update.window_end,
            "index": update.index,
            "live_value": f"{update.live_value:x}",
            "live_count": f"{update.live_count:x}",
            "window_value": f"{update.window_value:x}",
            "window_count": f"{update.window_count:x}",
            "deltas": update.deltas,
            "version": update.version,
        }
        assert update_from_wire(payload) == update
        with pytest.raises(ProtocolError):
            update_from_wire({"window_start": 0})


# ---------------------------------------------------------------------------
# Satellite 4: random insert/update/forget/churn interleavings
# ---------------------------------------------------------------------------
class StandingMachine(RuleBasedStateMachine):
    """Folded ciphertext state == plaintext recollection, after every event.

    Drives a real :class:`ServicePopulation` + :class:`StandingRegistry`
    (two live subscriptions: a filtered SUM and a global COUNT) through
    random mutations and clock advances; the invariant decrypts the folded
    state after *every* rule and compares against full recollection.
    """

    def __init__(self) -> None:
        super().__init__()
        self.population = slim_population(8, seed=31)
        self.registry = StandingRegistry(self.population)
        from repro.service.descriptor import (
            FAMILY_SECURE_AGG,
            QueryDescriptor,
        )

        self.subs = [
            self.registry.subscribe(
                QueryDescriptor(FAMILY_SECURE_AGG, SUM_SALARY),
                WindowSpec(width=4, slide=2),
                PUBLIC,
            ),
            self.registry.subscribe(
                QueryDescriptor(FAMILY_SECURE_AGG, AggregateQuery.count()),
                WindowSpec(width=3),
                PUBLIC,
            ),
        ]
        self.time = 0
        # live totals already verified per subscription, to check window
        # net changes telescope correctly.
        self._last_live = {sub.sub_id: None for sub in self.subs}

    @rule(pds=st.integers(0, 7))
    def forget(self, pds):
        self.population.forget(pds)

    @rule(pds=st.integers(0, 7))
    def flip(self, pds):
        self.population.set_online(
            pds, not self.population.is_online(pds)
        )

    @rule(pds=st.integers(0, 7), salary=st.integers(0, 5000), extra=st.booleans())
    def update(self, pds, salary, extra):
        records = [PersonRecord({"city": "Paris", "salary": float(salary)})]
        if extra:
            records.append(
                PersonRecord({"city": "Oslo", "salary": float(salary // 2)})
            )
        self.population.update_records(pds, records)

    @rule(step=st.integers(1, 3))
    def tick(self, step):
        self.time += step
        published = self.registry.advance(self.time)
        for sub in self.subs:
            for update in published.get(sub.sub_id, []):
                live = decrypt_pair((update.live_value, update.live_count))
                window = decrypt_pair(
                    (update.window_value, update.window_count)
                )
                previous = self._last_live[sub.sub_id]
                if sub.spec.tumbling and previous is not None:
                    # Tumbling windows telescope: net change == live delta.
                    assert window == (
                        live[0] - previous[0],
                        live[1] - previous[1],
                    )
                self._last_live[sub.sub_id] = live

    @invariant()
    def folded_state_equals_recollection(self):
        for sub in self.subs:
            got = decrypt_pair(sub.standing.current())
            want = recollect(
                self.population.online_nodes(), sub.descriptor.query
            )
            assert got == want

    @invariant()
    def no_duplicate_folds(self):
        for sub in self.subs:
            assert sub.standing.state.duplicates == 0


StandingMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestStandingStateful = StandingMachine.TestCase
