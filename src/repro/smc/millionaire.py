"""Yao's millionaires' protocol (FOCS 1982) — the cost-of-genericity exhibit.

The tutorial's Part III dismisses fully generic SMC because even the
founding example scales with the *size of the values compared*: Alice must
perform one RSA decryption per possible value of the domain. We implement
the original protocol faithfully so the E7 bench can plot exactly that.

Setting: Alice's wealth ``i`` and Bob's wealth ``j`` both lie in
``1..domain``. Outcome: both learn whether ``i >= j`` and nothing else
(under honest-but-curious behaviour and idealized primitives).

Protocol:

1. Alice owns an RSA key pair; Bob knows the public key.
2. Bob picks random ``x``, sends ``m = E(x) - j + 1``.
3. Alice computes ``y_u = D(m + u - 1)`` for every ``u`` in ``1..domain``
   (**domain decryptions** — the exponential bottleneck).
4. Alice picks a random prime ``p`` and reduces ``z_u = y_u mod p``,
   retrying ``p`` until all ``z_u`` are pairwise distant by at least 2.
5. Alice sends ``p`` and the sequence ``z_1..z_i, z_{i+1}+1..z_domain+1``.
6. Bob looks at entry ``j``: it equals ``x mod p`` iff ``j <= i``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.primes import generate_prime
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.smc.parties import CryptoOps
from repro.net.metrics import Channel


@dataclass
class MillionaireResult:
    """Outcome and cost of one protocol run."""

    alice_at_least_bob: bool
    decryptions: int
    crypto: CryptoOps
    prime_retries: int


def _distinct_and_separated(values: list[int], p: int) -> bool:
    """All values pairwise different and never adjacent (mod p)."""
    seen = set()
    for value in values:
        if value in seen or (value + 1) % p in seen or (value - 1) % p in seen:
            return False
        seen.add(value)
    return True


def millionaires(
    alice_value: int,
    bob_value: int,
    domain: int,
    channel: Channel,
    rng: random.Random,
    keypair: tuple[RsaPublicKey, RsaPrivateKey] | None = None,
    rsa_bits: int = 256,
) -> MillionaireResult:
    """Run the 1982 protocol; returns whether Alice >= Bob, plus costs."""
    if not (1 <= alice_value <= domain and 1 <= bob_value <= domain):
        raise ValueError(f"values must lie in 1..{domain}")
    public, private = keypair or generate_keypair(rsa_bits, rng)
    crypto = CryptoOps()

    # Bob: random x, send E(x) - j + 1.
    x = rng.randrange(2, public.n // 2)
    c = public.encrypt(x)
    crypto.modexps += 1
    m = channel.send("bob", "alice", c - bob_value + 1)

    # Alice: one decryption per domain value — the exhibit.
    ys = []
    for u in range(1, domain + 1):
        ys.append(private.decrypt((m + u - 1) % public.n))
        crypto.modexps += 1

    # Alice: random prime reduction until the z sequence is unambiguous.
    retries = 0
    while True:
        p = generate_prime(max(16, domain.bit_length() + 10), rng)
        zs = [y % p for y in ys]
        if _distinct_and_separated(zs, p):
            break
        retries += 1
        if retries > 500:
            raise RuntimeError("could not find a separating prime")
    announced = [
        zs[u] if u < alice_value else (zs[u] + 1) % p for u in range(domain)
    ]
    channel.send("alice", "bob", [p] + announced)

    # Bob: compare his entry against x mod p.
    alice_at_least_bob = announced[bob_value - 1] == x % p
    channel.send("bob", "alice", alice_at_least_bob)
    return MillionaireResult(
        alice_at_least_bob=alice_at_least_bob,
        decryptions=domain,
        crypto=crypto,
        prime_retries=retries,
    )
