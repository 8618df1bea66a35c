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

from repro.net.messages import ContributionBag, Partition


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
    """Stores contributions, partitions them, optionally cheats.

    What it stores is three parallel columns — ``blobs``, ``tags`` and
    ``buckets``, with ``None`` where a contribution exposes no tag or
    bucket — appended a bag at a time.
    """

    def __init__(
        self,
        behavior: SsiBehavior = HONEST,
        rng: random.Random | None = None,
    ) -> None:
        self.behavior = behavior
        self.rng = rng or random.Random(0)
        self.blobs: list[bytes] = []
        self.tags: list[bytes | None] = []
        self.buckets: list[int | None] = []
        self.observations = SsiObservations()
        self._forged = False

    # ------------------------------------------------------------------
    # Collection (with covert attacks applied on the way in)
    # ------------------------------------------------------------------
    def collect(self, bag: ContributionBag) -> None:
        """Store ``bag``, dropping and replaying per contribution.

        Each contribution costs one drop draw and, when kept, one replay
        draw from the SSI's rng — also when honest, since the partition
        shuffle that follows reads the same stream.
        """
        behavior = self.behavior
        columns = (bag.blobs, bag.tags, bag.buckets)
        if behavior.drop_fraction <= 0 and behavior.duplicate_fraction <= 0:
            # Nothing is dropped or replayed, so only the stream position
            # matters: ``random()`` takes two 32-bit Mersenne Twister
            # words, so two draws per contribution are 128 bits each.
            self.rng.getrandbits(128 * len(bag.blobs))
            self._store(*columns)
            return
        random_ = self.rng.random
        kept = []
        for index in range(len(bag.blobs)):
            if random_() < behavior.drop_fraction:
                continue  # silently discard
            kept.append(index)
            if random_() < behavior.duplicate_fraction:
                kept.append(index)  # replay
        self._store(
            *(
                None if column is None else [column[i] for i in kept]
                for column in columns
            )
        )

    def _ensure_forgeries(self) -> None:
        """Inject ``forge_count`` fabricated blobs once, before partitioning."""
        if self._forged:
            return
        self._forged = True
        for _ in range(self.behavior.forge_count):
            self._store(*self._forge())

    def _store(self, blobs: list, tags: list | None, buckets: list | None) -> None:
        """Append columns; an absent tag or bucket column stores ``None``s."""
        obs = self.observations
        obs.total_contributions += len(blobs)
        obs.blob_bytes += sum(map(len, blobs))
        self.blobs.extend(blobs)
        for stored, column, counter in (
            (self.tags, tags, obs.group_tag_counts),
            (self.buckets, buckets, obs.bucket_counts),
        ):
            if column is None:
                stored.extend([None] * len(blobs))
                continue
            stored.extend(column)
            counter.update(column)
            counter.pop(None, None)  # loose contributions may lack one

    def _forge(self) -> tuple[list, list, list]:
        """A forged blob: without keys it cannot authenticate (detection!)."""
        blob = self.rng.getrandbits(8 * 64).to_bytes(64, "little")
        if not self.blobs:
            return [blob], [None], [None]
        # ``choice`` over the indices draws exactly as over the contributions.
        template = self.rng.choice(range(len(self.blobs)))
        return [blob], [self.tags[template]], [self.buckets[template]]

    # ------------------------------------------------------------------
    # Partitioning services (all operate on ciphertext metadata only)
    # ------------------------------------------------------------------
    def partition_random(self, partition_size: int) -> list[Partition]:
        """Fixed-size random partitions (all the SSI can do without tags)."""
        self._ensure_forgeries()
        if partition_size < 1:
            raise ValueError("partition size must be >= 1")
        shuffled = list(self.blobs)
        self.rng.shuffle(shuffled)
        return [
            Partition(shuffled[start : start + partition_size])
            for start in range(0, len(shuffled), partition_size)
        ]

    def partition_by_group_tag(self) -> dict[bytes, Partition]:
        """Group by deterministic tag (noise-based family)."""
        return {
            tag: Partition(blobs, group_tag=tag)
            for tag, blobs in self._grouped(self.tags, "group tag").items()
        }

    def partition_by_bucket(self) -> dict[int, Partition]:
        """Group by cleartext histogram bucket (histogram family)."""
        return {
            bucket: Partition(blobs, bucket_id=bucket)
            for bucket, blobs in self._grouped(self.buckets, "bucket id").items()
        }

    def _grouped(self, keys: list, what: str) -> dict:
        """The stored blobs grouped by ``keys``, each group in stored order."""
        self._ensure_forgeries()
        if None in keys:
            raise ValueError(f"contribution has no {what} to partition on")
        groups: dict = {}
        for key, blob in zip(keys, self.blobs):
            groups.setdefault(key, []).append(blob)
        return groups
