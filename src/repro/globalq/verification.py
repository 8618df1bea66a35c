"""Detection primitives against a weakly malicious SSI ([ANP13] spirit).

The covert adversary drops, replays or forges contributions but fears being
caught. Three complementary defences, each exercised by E9:

* **forgery** — blobs are authenticated with the fleet key; a forged blob
  fails decryption inside the first token that touches it (counted as an
  ``integrity_failure`` in every protocol report);
* **replay** — ``(pds_id, sequence)`` pairs are unique by construction;
  collisions across partitions surface at the querier merge
  (``duplicates_detected``);
* **omission** — no single token sees the whole bag, so drops are caught by
  a *participation audit*: the querier samples ``k`` registered PDSs and
  checks their contributions arrived; an SSI dropping a fraction ``f``
  survives with probability ``(1 - f)^k``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.messages import AggregationOutcome


@dataclass
class AuditResult:
    """Outcome of a participation audit."""

    sampled: int
    missing: list[int]

    @property
    def cheating_detected(self) -> bool:
        return bool(self.missing)


def participating_pds_ids(outcomes: list[AggregationOutcome]) -> set[int]:
    """Distinct PDS ids whose contributions actually reached a token."""
    seen: set[int] = set()
    for outcome in outcomes:
        seen.update(pds_id for pds_id, _ in outcome.seen_pds_sequences)
    return seen


def participation_audit(
    expected_ids: set[int],
    outcomes: list[AggregationOutcome],
    sample_size: int,
    rng: random.Random,
) -> AuditResult:
    """Sample ``sample_size`` expected participants; report the absent ones.

    ``expected_ids`` should be restricted to PDSs known to have contributed
    (e.g. all registered ones for a COUNT(*) census); sampling a PDS whose
    WHERE matched nothing would be a false alarm.
    """
    present = participating_pds_ids(outcomes)
    population = sorted(expected_ids)
    if not population:
        return AuditResult(sampled=0, missing=[])
    sample_size = min(sample_size, len(population))
    sampled = rng.sample(population, sample_size)
    missing = sorted(pds_id for pds_id in sampled if pds_id not in present)
    return AuditResult(sampled=sample_size, missing=missing)


def detection_probability(drop_fraction: float, sample_size: int) -> float:
    """Analytic P[audit catches an SSI dropping ``drop_fraction``]."""
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError("drop fraction must be in [0, 1]")
    if sample_size < 0:
        raise ValueError("sample size must be non-negative")
    return 1.0 - (1.0 - drop_fraction) ** sample_size
