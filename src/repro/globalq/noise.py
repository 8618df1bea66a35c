"""Noise-based protocols: deterministic tags + fake tuples.

Second [TNP14] family: each contribution carries a *deterministic*
encryption of its group value, so the SSI can partition by group — one
partition per group, minimal token work, tiny partials. The leak is the
group-frequency histogram, which :mod:`repro.globalq.attacks` exploits; the
countermeasure is **fake tuples** (flagged inside the authenticated blob, so
aggregating tokens drop them after decryption):

* :data:`WHITE_NOISE` — each PDS adds ``ratio`` fakes per real tuple with
  groups drawn uniformly from the public domain;
* :data:`COMPLEMENTARY_NOISE` — fakes are drawn from the *complement* of the
  PDS's own groups, pushing every tag's frequency toward uniform faster for
  the same bandwidth.

The modes, the plan (:class:`~repro.globalq.queries.NoisePlan`) and the
draw of one PDS's fakes (:func:`~repro.globalq.queries.plan_fakes`) live
next to the real tuples in :mod:`repro.globalq.queries`, below the
collection executor that runs them.
"""

from __future__ import annotations

from repro.globalq.protocol import ProtocolFamily
from repro.globalq.queries import NoisePlan
from repro.globalq.ssi import SupportingServerInfrastructure
from repro.globalq.tokens import TokenFleet
from repro.net.messages import ContributionBag, Partition


class NoiseProtocol(ProtocolFamily):
    """The deterministic-encryption + fake-tuples family: one partition per tag."""

    name = "noise-based"

    def __init__(
        self, fleet: TokenFleet, noise: NoisePlan | None = None, **driver
    ) -> None:
        super().__init__(fleet, **driver)
        self.noise = noise or NoisePlan()

    @property
    def label(self) -> str:
        return f"{self.name}:{self.noise.mode}"

    def collection_options(self) -> dict:
        # Fakes draw from the per-shard seeds, like the cipher nonces.
        return {"with_group_tag": True, "noise": self.noise}

    def wire_bytes(self, bag: ContributionBag) -> int:
        return super().wire_bytes(bag) + sum(map(len, bag.tags))

    def partition(self, ssi: SupportingServerInfrastructure) -> list[Partition]:
        by_tag = ssi.partition_by_group_tag()
        return [by_tag[tag] for tag in sorted(by_tag)]
