"""Secure sum: the first primitive of the Clifton data-mining toolkit.

Two implementations, with very different cost profiles (bench E7):

* :func:`ring_secure_sum` — the [CKV+02] masked ring: the coordinator adds a
  uniform random mask, each site adds its value, the coordinator unmasks.
  One message per site, zero modular exponentiation. Secure against a single
  honest-but-curious site (colluding neighbours can cancel a site out —
  that is the toolkit's stated limitation, tested explicitly).
* :func:`paillier_secure_sum` — each site encrypts under the querier's
  Paillier key, an untrusted aggregator multiplies ciphertexts, the querier
  decrypts once. Collusion-resistant without a ring, but each site pays HE.

``paillier_secure_sum(..., workers=k)`` switches the collection phase to
the sharded batched path of :mod:`repro.globalq.parallel`: shards of sites
encrypt through seeded blinding-factor pools (amortizing the ``r^n mod n²``
cost) and each shard folds its ciphertexts into one partial homomorphic
aggregate that the SSI merges — the E23 scaling configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.globalq.parallel import (
    DEFAULT_SHARD_SIZE,
    WorkerPool,
    collect_encrypted_sum,
)
from repro.smc.parties import CryptoOps
from repro.net.metrics import Channel

DEFAULT_MODULUS = 1 << 64


@dataclass
class SumResult:
    """Protocol outcome plus its cost profile."""

    total: int
    crypto: CryptoOps


def ring_secure_sum(
    values: list[int],
    channel: Channel,
    rng: random.Random,
    modulus: int = DEFAULT_MODULUS,
) -> SumResult:
    """[CKV+02] masked ring sum of one value per site."""
    if not values:
        raise ValueError("no sites")
    if any(value < 0 or value >= modulus for value in values):
        raise ValueError("site values must lie in [0, modulus)")
    mask = rng.randrange(modulus)
    running = (mask + values[0]) % modulus
    for site in range(1, len(values)):
        running = channel.send(f"site-{site - 1}", f"site-{site}", running)
        running = (running + values[site]) % modulus
    running = channel.send(f"site-{len(values) - 1}", "site-0", running)
    return SumResult(total=(running - mask) % modulus, crypto=CryptoOps())


def collude_against_site(
    values: list[int],
    target: int,
    modulus: int = DEFAULT_MODULUS,
) -> int:
    """What the target's ring neighbours learn by colluding.

    Site ``target-1`` saw the running total before the target; site
    ``target+1`` received it after. Their difference is exactly the
    target's private value — the toolkit's honest-majority caveat.
    """
    if not 0 < target < len(values) - 1:
        raise ValueError("target needs both ring neighbours")
    before = sum(values[: target]) % modulus  # mask cancels in the difference
    after = sum(values[: target + 1]) % modulus
    return (after - before) % modulus


def paillier_secure_sum(
    values: list[int],
    public: PaillierPublicKey,
    private: PaillierPrivateKey,
    channel: Channel,
    rng: random.Random | None = None,
    workers: int | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    base_seed: int = 0,
    pool: WorkerPool | None = None,
) -> SumResult:
    """HE sum through an untrusted aggregator (no ring, no collusion issue).

    ``workers=None`` is the scalar path: one full ``r^n mod n²`` per site.
    An integer routes collection through sharded batched encryption
    (``workers=1`` serial shards, ``>1`` a process pool); each shard ships
    one partial homomorphic aggregate, merged by the untrusted SSI. The
    decrypted total is exact on both paths. ``pool`` reuses a persistent
    :class:`~repro.globalq.parallel.WorkerPool` across calls instead of
    spawning workers per sum.
    """
    if not values:
        raise ValueError("no sites")
    crypto = CryptoOps()
    if workers is None and pool is not None:
        workers = pool.workers
    if workers is None:
        if rng is None:
            raise ValueError("the scalar path needs an rng")
        ciphertexts = []
        for site, value in enumerate(values):
            ciphertext = public.encrypt(value, rng)
            crypto.modexps += 1  # r^n mod n^2 dominates each encryption
            ciphertexts.append(
                channel.send(f"site-{site}", "aggregator", ciphertext)
            )
        combined = ciphertexts[0]
        for ciphertext in ciphertexts[1:]:
            combined = public.add(combined, ciphertext)
    else:
        shards = collect_encrypted_sum(
            values, public, workers=workers, shard_size=shard_size,
            base_seed=base_seed, pool=pool,
        )
        combined = 1
        for shard in shards:
            crypto.modexps += shard.modexps
            # Per-site traffic reached the shard aggregator as ciphertexts;
            # the partial homomorphic aggregates then converge on the SSI.
            first_site = shard.shard_index * shard_size
            for offset, size in enumerate(shard.ciphertext_bytes):
                channel.stats.record(
                    f"site-{first_site + offset}",
                    f"shard-{shard.shard_index}",
                    size,
                )
            channel.send(f"shard-{shard.shard_index}", "ssi", shard.partial)
            combined = public.add(combined, shard.partial)
    channel.send("aggregator" if workers is None else "ssi", "querier", combined)
    crypto.modexps += 1  # the single decryption
    return SumResult(total=private.decrypt(combined), crypto=crypto)
