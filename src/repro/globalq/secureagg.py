"""Secure-aggregation protocol: non-deterministic encryption, zero leak.

First of the [TNP14] families: contributions carry *only* a
non-deterministically encrypted blob, so the SSI learns nothing — not even
whether two tuples share a group. The price is that the SSI cannot partition
usefully: it cuts the bag into fixed-size **random** partitions, every
partition may contain every group, and each aggregator token must decrypt
its whole partition and ship a per-group partial to the querier.

Leak profile: none (ciphertext count and sizes only).
Cost profile: every tuple symmetric-decrypted once by some token; partial
results of size O(#groups) per partition.
"""

from __future__ import annotations

import math

from repro.globalq.protocol import ProtocolFamily
from repro.globalq.ssi import SupportingServerInfrastructure
from repro.globalq.tokens import TokenFleet
from repro.net.messages import Partition


class SecureAggregationProtocol(ProtocolFamily):
    """The non-deterministic-encryption family: blobs only, random partitions."""

    name = "secure-aggregation"

    def __init__(
        self, fleet: TokenFleet, partition_size: int | None = None, **driver
    ) -> None:
        super().__init__(fleet, **driver)
        self.partition_size = partition_size

    def partition(self, ssi: SupportingServerInfrastructure) -> list[Partition]:
        # Fixed-size random partitions: the best a blind SSI can do.
        size = self.partition_size or max(
            1, int(math.sqrt(max(1, len(ssi.blobs))))
        )
        return ssi.partition_random(size)
