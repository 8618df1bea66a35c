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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.globalq.messages import EncryptedContribution
from repro.globalq.protocol import ProtocolFamily, TokenFleet
from repro.globalq.ssi import SupportingServerInfrastructure

WHITE_NOISE = "white"
COMPLEMENTARY_NOISE = "complementary"
NO_NOISE = "none"


@dataclass(frozen=True)
class NoisePlan:
    """How much fake traffic each PDS adds, and how it picks fake groups."""

    mode: str = NO_NOISE
    ratio: float = 0.0  # fake tuples per real tuple
    domain: tuple[str, ...] = ()  # public group domain fakes draw from

    def __post_init__(self) -> None:
        if self.mode not in (NO_NOISE, WHITE_NOISE, COMPLEMENTARY_NOISE):
            raise ProtocolError(f"unknown noise mode {self.mode!r}")
        if self.mode != NO_NOISE and self.ratio > 0 and not self.domain:
            raise ProtocolError("noise needs a public group domain")


def plan_fakes(
    real: list[tuple[str, float]],
    plan: NoisePlan,
    rng: random.Random,
) -> list[tuple[str, float]]:
    """The fake ``(group, value)`` tuples one PDS will inject."""
    if plan.mode == NO_NOISE or plan.ratio <= 0 or not real:
        return []
    count = int(len(real) * plan.ratio + rng.random())  # stochastic rounding
    own_groups = {group for group, _ in real}
    if plan.mode == COMPLEMENTARY_NOISE:
        pool = [g for g in plan.domain if g not in own_groups] or list(plan.domain)
    else:
        pool = list(plan.domain)
    return [
        (pool[rng.randrange(len(pool))], 0.0) for _ in range(count)
    ]


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

    def wire_form(self, contribution: EncryptedContribution) -> bytes:
        return contribution.blob + (contribution.group_tag or b"")

    def partition(
        self, ssi: SupportingServerInfrastructure
    ) -> list[list[EncryptedContribution]]:
        by_tag = ssi.partition_by_group_tag()
        return [by_tag[tag] for tag in sorted(by_tag)]
