"""The token side of the [TNP14] protocols: keys, PDS nodes, aggregators.

Everything here runs inside a citizen's secure token: the key material
the whole fleet shares (:class:`TokenFleet`), a PDS encrypting its
filtered tuples and planned fakes (:class:`PdsNode`,
:func:`encrypt_contributions`), and a connected token decrypting and
folding one partition (:class:`TrustedAggregator`). The collection
executor (:mod:`repro.globalq.parallel`) rebuilds these from a fleet seed
inside worker processes; the protocol driver
(:mod:`repro.globalq.protocol`) runs them inline.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from repro.crypto.symmetric import DeterministicCipher, NondeterministicCipher
from repro.errors import IntegrityError
from repro.globalq.queries import AggregateQuery, local_contributions
from repro.net.messages import (
    Accumulator,
    AggregationOutcome,
    EncryptedContribution,
    pack_fields,
    unpack_fields,
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

        ``seed`` pins the nonce stream (sharded collection derives one seed
        per PDS so results do not depend on worker scheduling, and
        decrypt-only holders pass a constant); when absent the fleet's own
        rng supplies it. Only the nonce source is per call — the key
        schedule was paid in ``__init__``.
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


def encrypt_contributions(
    pds_id: int,
    real: list[tuple[str, float]],
    fakes: list[tuple[str, float]],
    cipher: NondeterministicCipher,
    tag_of=None,
    bucketizer=None,
) -> list[EncryptedContribution]:
    """One PDS's ``real`` tuples then its ``fakes``, in sequence order."""
    encrypt = cipher.encrypt
    out = []
    sequence = 0
    for batch, fake in ((real, False), (fakes, True)):
        for group, value in batch:
            out.append(
                EncryptedContribution(
                    encrypt(pack_fields(pds_id, sequence, group, value, fake)),
                    tag_of(group) if tag_of is not None else None,
                    bucketizer(group) if bucketizer is not None else None,
                )
            )
            sequence += 1
    return out


@dataclass
class PdsNode:
    """One citizen's PDS as seen by the global layer."""

    pds_id: int
    records: list[PersonRecord]

    def contributions(
        self,
        query: AggregateQuery,
        fleet: TokenFleet,
        with_group_tag: bool = False,
        bucketizer=None,
        fakes: list[tuple[str, float]] | None = None,
        cipher_seed: int | None = None,
    ) -> list[EncryptedContribution]:
        """Encrypt this PDS's (filtered) tuples, plus any planned fakes."""
        return encrypt_contributions(
            self.pds_id,
            local_contributions(self.records, query),
            fakes or (),
            fleet.payload_cipher(cipher_seed),
            fleet.group_tagger() if with_group_tag else None,
            bucketizer,
        )


class TrustedAggregator:
    """A connected token decrypting and folding one partition."""

    def __init__(self, fleet: TokenFleet) -> None:
        self.fleet = fleet
        # Decrypt-only: a fixed nonce seed keeps the fleet's shared rng
        # untouched, so concurrent served queries cannot perturb it.
        self._cipher = fleet.payload_cipher(seed=0)

    def aggregate(
        self, partition: list[EncryptedContribution]
    ) -> AggregationOutcome:
        accumulator = Accumulator()
        real = fakes = failures = 0
        seen: set[tuple[int, int]] = set()
        decrypt = self._cipher.decrypt
        for contribution in partition:
            try:
                pds_id, sequence, group, value, fake = unpack_fields(
                    decrypt(contribution.blob)
                )
            except IntegrityError:
                failures += 1  # forged or corrupted: detected, discarded
                continue
            identity = (pds_id, sequence)
            if identity in seen:
                continue  # replay inside this partition: skip silently
            seen.add(identity)
            if fake:
                fakes += 1
                continue
            real += 1
            accumulator.add(group, value)
        return AggregationOutcome(
            accumulator=accumulator,
            real_tuples=real,
            fake_tuples=fakes,
            integrity_failures=failures,
            seen_pds_sequences=seen,
        )
