"""The Supporting Server Infrastructure (SSI): powerful but untrusted.

The asymmetric architecture's second half: an always-available cloud that
stores, partitions and routes encrypted contributions, but is never allowed
plaintext. Two behaviours from the tutorial's threat-model slide:

* **honest-but-curious** — follows the protocol, records everything it sees
  (:attr:`observations`) for offline inference (fed to
  :mod:`repro.globalq.attacks`);
* **weakly malicious** (covert adversary) — may drop, duplicate or forge
  contributions, but wants to avoid detection; the knobs below set how
  aggressively it cheats, and :mod:`repro.globalq.verification` measures how
  reliably it gets caught.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.globalq.messages import EncryptedContribution


@dataclass(frozen=True)
class SsiBehavior:
    """How the SSI deviates from the protocol (all zeros = semi-honest)."""

    drop_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    forge_count: int = 0


HONEST = SsiBehavior()


@dataclass
class SsiObservations:
    """Everything an honest-but-curious SSI can write down."""

    total_contributions: int = 0
    group_tag_counts: Counter = field(default_factory=Counter)
    bucket_counts: Counter = field(default_factory=Counter)
    blob_bytes: int = 0


class SupportingServerInfrastructure:
    """Stores contributions, partitions them, optionally cheats."""

    def __init__(
        self,
        behavior: SsiBehavior = HONEST,
        rng: random.Random | None = None,
    ) -> None:
        self.behavior = behavior
        self.rng = rng or random.Random(0)
        self.stored: list[EncryptedContribution] = []
        self.observations = SsiObservations()
        self._forged = False

    # ------------------------------------------------------------------
    # Collection (with covert attacks applied on the way in)
    # ------------------------------------------------------------------
    def collect(self, contributions: list[EncryptedContribution]) -> None:
        for contribution in contributions:
            if self.rng.random() < self.behavior.drop_fraction:
                continue  # silently discard
            self._store(contribution)
            if self.rng.random() < self.behavior.duplicate_fraction:
                self._store(contribution)  # replay

    def _ensure_forgeries(self) -> None:
        """Inject ``forge_count`` fabricated blobs once, before partitioning."""
        if self._forged:
            return
        self._forged = True
        for _ in range(self.behavior.forge_count):
            self._store(self._forge())

    def _store(self, contribution: EncryptedContribution) -> None:
        self.stored.append(contribution)
        obs = self.observations
        obs.total_contributions += 1
        obs.blob_bytes += len(contribution.blob)
        if contribution.group_tag is not None:
            obs.group_tag_counts[contribution.group_tag] += 1
        if contribution.bucket_id is not None:
            obs.bucket_counts[contribution.bucket_id] += 1

    def _forge(self) -> EncryptedContribution:
        """A forged blob: without keys it cannot authenticate (detection!)."""
        blob = self.rng.getrandbits(8 * 64).to_bytes(64, "little")
        template = self.rng.choice(self.stored) if self.stored else None
        return EncryptedContribution(
            blob=blob,
            group_tag=template.group_tag if template else None,
            bucket_id=template.bucket_id if template else None,
        )

    # ------------------------------------------------------------------
    # Partitioning services (all operate on ciphertext metadata only)
    # ------------------------------------------------------------------
    def partition_random(
        self, partition_size: int
    ) -> list[list[EncryptedContribution]]:
        """Fixed-size random partitions (all the SSI can do without tags)."""
        self._ensure_forgeries()
        if partition_size < 1:
            raise ValueError("partition size must be >= 1")
        shuffled = list(self.stored)
        self.rng.shuffle(shuffled)
        return [
            shuffled[start : start + partition_size]
            for start in range(0, len(shuffled), partition_size)
        ]

    def partition_by_group_tag(self) -> dict[bytes, list[EncryptedContribution]]:
        """Group by deterministic tag (noise-based family)."""
        self._ensure_forgeries()
        partitions: dict[bytes, list[EncryptedContribution]] = {}
        for contribution in self.stored:
            if contribution.group_tag is None:
                raise ValueError("contribution has no group tag to partition on")
            partitions.setdefault(contribution.group_tag, []).append(contribution)
        return partitions

    def partition_by_bucket(self) -> dict[int, list[EncryptedContribution]]:
        """Group by cleartext histogram bucket (histogram family)."""
        self._ensure_forgeries()
        partitions: dict[int, list[EncryptedContribution]] = {}
        for contribution in self.stored:
            if contribution.bucket_id is None:
                raise ValueError("contribution has no bucket id to partition on")
            partitions.setdefault(contribution.bucket_id, []).append(contribution)
        return partitions
