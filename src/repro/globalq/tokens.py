"""The token side of the [TNP14] protocols: keys, PDS nodes, aggregators.

Everything here runs inside a citizen's secure token: the key material
the whole fleet shares (:class:`TokenFleet`), the PDSs of one collection
shard filtering, planning fakes and encrypting (:func:`seal_shard`, with
:class:`PdsNode` the one-citizen view of it), and a connected token
decrypting and folding one partition (:class:`TrustedAggregator`). Both
hot paths work a whole shard or partition per call, in columns: one
:meth:`~repro.crypto.symmetric.NondeterministicCipher.seal_batch` per
shard, one :meth:`~repro.crypto.symmetric.NondeterministicCipher.open_batch`
per partition. The collection executor (:mod:`repro.globalq.parallel`)
rebuilds the fleet from its seed inside worker processes; the protocol
driver (:mod:`repro.globalq.protocol`) runs them inline.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from repro.crypto.symmetric import DeterministicCipher, NondeterministicCipher
from repro.errors import ProtocolError
from repro.globalq.queries import (
    AggregateQuery,
    NoisePlan,
    local_contributions,
    plan_fakes,
)
from repro.net.messages import (
    FLAG_FAKE,
    PAYLOAD_HEADER,
    Accumulator,
    AggregationOutcome,
    ContributionBag,
    EncryptedContribution,
)
from repro.workloads.people import PersonRecord


class TokenFleet:
    """Key material shared by every genuine token of the population.

    The tutorial's trust model: tokens are mutually trusted, certified
    hardware, so they can share symmetric keys that the SSI never sees.
    """

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        master = rng.getrandbits(256).to_bytes(32, "little")
        #: Key-derivation seed: a fleet rebuilt from the same seed (e.g.
        #: inside a collection worker process) holds identical keys.
        self.seed = seed
        self.deterministic = DeterministicCipher(master + b"group")
        #: Keyed once: every :meth:`payload_cipher` shares these HMAC states.
        self._payload = NondeterministicCipher(master + b"payload")
        self._rng = rng

    def payload_cipher(self, seed: int | None = None) -> NondeterministicCipher:
        """A non-deterministic cipher bound to the fleet payload key.

        For single messages (PDS-to-PDS sharing, sync, the apps): ``seed``
        pins the nonce stream — ``payload_cipher(s).encrypt`` is what
        :func:`seal_shard` produces for a PDS whose cipher seed is ``s`` —
        and when absent the fleet's own rng supplies it. Only the nonce
        source is per call; the key schedule was paid in ``__init__``.
        Collection and aggregation do not call this: they seal and open
        whole shards and partitions on the keyed cipher itself.
        """
        if seed is None:
            seed = self._rng.getrandbits(64)
        return self._payload.with_nonces(random.Random(seed))

    def group_tagger(self):
        """A memoising ``group -> deterministic tag`` function.

        A query has few distinct groups and a shard many contributions, so
        each caller (one collection shard) computes every SIV once.
        """
        encrypt = self.deterministic.encrypt
        return functools.cache(lambda group: encrypt(group.encode("utf-8")))


def seal_shard(
    pds_ids,
    records,
    query: AggregateQuery,
    fleet: TokenFleet,
    rng: random.Random,
    noise: NoisePlan | None = None,
    with_group_tag: bool = False,
    bucketizer=None,
) -> ContributionBag:
    """The PDS tokens of one shard, in columns: ``records[i]`` is PDS
    ``pds_ids[i]``'s.

    Per PDS, in order: (1) filter its records, (2) plan fakes from ``rng``,
    (3) draw its cipher-nonce seed from ``rng``, (4) pack its real tuples
    then its fakes, in sequence order. The fixed draw order is the whole
    determinism contract. Then one batch seal encrypts the shard, each PDS
    under its own nonce stream, and a group's tag and bucket are computed
    once per shard.
    """
    pack = PAYLOAD_HEADER.pack
    draw = rng.getrandbits
    plaintexts: list[bytes] = []
    groups: list[str] = []
    seeds: list[int] = []
    counts: list[int] = []
    tuple_counts: list[int] = []
    fake_counts: list[int] = []
    for pds_id, own in zip(pds_ids, records):
        real = local_contributions(own, query)
        fakes = plan_fakes(real, noise, rng) if noise is not None else ()
        seed = draw(64)
        count = len(real) + len(fakes)
        tuple_counts.append(count)
        fake_counts.append(len(fakes))
        if not count:
            continue  # nothing to seal: its nonce stream is never drawn
        seeds.append(seed)
        counts.append(count)
        for sequence, (group, value) in enumerate(real):
            plaintexts.append(pack(pds_id, sequence, 0, value) + group.encode())
            groups.append(group)
        for sequence, (group, value) in enumerate(fakes, len(real)):
            plaintexts.append(
                pack(pds_id, sequence, FLAG_FAKE, value) + group.encode()
            )
            groups.append(group)
    return ContributionBag(
        list(pds_ids),
        tuple_counts,
        fake_counts,
        fleet._payload.seal_batch(plaintexts, seeds, counts),
        list(map(fleet.group_tagger(), groups)) if with_group_tag else None,
        list(map(functools.cache(bucketizer), groups))
        if bucketizer is not None
        else None,
    )


@dataclass
class PdsNode:
    """One citizen's PDS as seen by the global layer."""

    pds_id: int
    records: list[PersonRecord]

    def contributions(
        self,
        query: AggregateQuery,
        fleet: TokenFleet,
        rng: random.Random | None = None,
        **options,
    ) -> list[EncryptedContribution]:
        """This PDS's encrypted tuples (and fakes): a one-node shard's view.

        ``rng`` is the stream the fake plan and cipher seed draw from
        (default ``Random(pds_id)``); ``options`` are :func:`seal_shard`'s.
        """
        return seal_shard(
            (self.pds_id,), (self.records,), query, fleet,
            rng or random.Random(self.pds_id), **options,
        ).contributions()


class TrustedAggregator:
    """A connected token decrypting and folding one partition."""

    def __init__(self, fleet: TokenFleet) -> None:
        self.fleet = fleet

    def aggregate(self, blobs: list[bytes]) -> AggregationOutcome:
        """Open ``blobs`` in one batch and fold what authenticates.

        A blob failing authentication is counted and discarded; a second
        blob of the same ``(pds_id, sequence)`` is skipped (replay inside
        the partition); a fake is counted and dropped. An authentic but
        malformed payload raises :class:`~repro.errors.ProtocolError`.
        """
        unpack = PAYLOAD_HEADER.unpack_from
        header = PAYLOAD_HEADER.size
        accumulator = Accumulator()
        sums, counts = accumulator.sums, accumulator.counts
        real = fakes = failures = 0
        seen: set[tuple[int, int]] = set()
        for plain in self.fleet._payload.open_batch(blobs):
            if plain is None:
                failures += 1  # forged or corrupted: detected, discarded
                continue
            if len(plain) < header:
                raise ProtocolError("contribution payload too short")
            pds_id, sequence, flags, value = unpack(plain)
            try:
                group = plain[header:].decode()
            except UnicodeDecodeError as exc:
                raise ProtocolError(
                    "contribution group is not valid UTF-8"
                ) from exc
            identity = (pds_id, sequence)
            if identity in seen:
                continue  # replay inside this partition: skip silently
            seen.add(identity)
            if flags & FLAG_FAKE:
                fakes += 1
                continue
            real += 1
            sums[group] = sums.get(group, 0.0) + value
            counts[group] = counts.get(group, 0) + 1
        return AggregationOutcome(
            accumulator=accumulator,
            real_tuples=real,
            fake_tuples=fakes,
            integrity_failures=failures,
            seen_pds_sequences=seen,
        )
