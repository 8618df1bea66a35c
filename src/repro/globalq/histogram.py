"""Histogram-based protocol: equi-depth bucketization à la Hacigümüş.

Third [TNP14] family, following [HILM02]/[HIM04]: the group domain is cut
into **equi-depth buckets** using a public (approximate) frequency prior —
each bucket covers about the same *mass*, not the same number of values.
A contribution exposes only its cleartext ``bucket_id``; the SSI partitions
by bucket, and one trusted token per bucket decrypts and aggregates its
partition exactly.

Leak profile: the bucket histogram — by equi-depth construction close to
flat, hence far less informative than per-group frequencies (E8 quantifies
the attacker's loss). Cost profile: like the noise family without fakes, but
partials carry every group of the bucket.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.globalq.protocol import ProtocolFamily
from repro.globalq.ssi import SupportingServerInfrastructure
from repro.globalq.tokens import TokenFleet
from repro.net.messages import EncryptedContribution


class EquiDepthBucketizer:
    """Public mapping ``group value -> bucket id`` built from a prior.

    ``prior`` maps each domain value to its (approximate, public) frequency;
    buckets are filled greedily in domain order until each holds roughly
    ``1/num_buckets`` of the mass.
    """

    def __init__(self, prior: dict[str, float], num_buckets: int) -> None:
        if num_buckets < 1:
            raise ProtocolError("need at least one bucket")
        if not prior:
            raise ProtocolError("empty prior distribution")
        total = sum(prior.values())
        if total <= 0:
            raise ProtocolError("prior has no mass")
        target = total / num_buckets
        self.assignment: dict[str, int] = {}
        bucket, mass = 0, 0.0
        for value in sorted(prior):
            self.assignment[value] = bucket
            mass += prior[value]
            if mass >= target and bucket < num_buckets - 1:
                bucket += 1
                mass = 0.0
        self.num_buckets = bucket + 1

    def __call__(self, group: str) -> int:
        try:
            return self.assignment[group]
        except KeyError:
            # Unknown values go to the last bucket (public convention).
            return self.num_buckets - 1

    def bucket_of(self, group: str) -> int:
        return self(group)


class HistogramProtocol(ProtocolFamily):
    """The equi-depth bucket family: one partition per cleartext bucket id."""

    name = "histogram-based"

    def __init__(
        self, fleet: TokenFleet, bucketizer: EquiDepthBucketizer, **driver
    ) -> None:
        super().__init__(fleet, **driver)
        self.bucketizer = bucketizer

    def collection_options(self) -> dict:
        # The bucketizer ships to collection workers whole — it is a plain
        # public mapping.
        return {"bucketizer": self.bucketizer}

    def wire_form(self, contribution: EncryptedContribution) -> bytes:
        return contribution.blob + b"\x00" * 4  # the cleartext bucket id

    def partition(
        self, ssi: SupportingServerInfrastructure
    ) -> list[list[EncryptedContribution]]:
        by_bucket = ssi.partition_by_bucket()
        return [by_bucket[bucket] for bucket in sorted(by_bucket)]
