"""Secure set union, intersection size and scalar product ([CKV+02]).

The toolkit's set primitives run on a *commutative* cipher: Pohlig–Hellman
exponentiation ``E_k(x) = x^k mod p`` over a shared safe prime, for which
``E_a(E_b(x)) = E_b(E_a(x))``. Items are first hashed into the group, so

* encrypting every party's items under **all** keys yields a canonical form
  per item — equal items collide regardless of owner or layering order;
* dedup/count over canonical forms computes union and intersection *sizes*
  and memberships without revealing who contributed what.

Scalar product uses Paillier instead (additive structure).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import gcd

from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.crypto.primes import generate_safe_prime
from repro.smc.parties import CryptoOps
from repro.net.metrics import Channel


def _hash_to_group(item: str, prime: int) -> int:
    digest = hashlib.sha256(item.encode("utf-8")).digest()
    return 2 + int.from_bytes(digest, "little") % (prime - 3)


@dataclass(frozen=True)
class CommutativeKey:
    """One party's exponentiation key over the shared group."""

    prime: int
    exponent: int

    def encrypt(self, element: int) -> int:
        return pow(element, self.exponent, self.prime)


def make_commutative_keys(
    num_parties: int, rng: random.Random, prime_bits: int = 64
) -> list[CommutativeKey]:
    """A shared safe prime + one coprime exponent per party."""
    prime = generate_safe_prime(prime_bits, rng)
    order = prime - 1
    keys = []
    for _ in range(num_parties):
        while True:
            exponent = rng.randrange(3, order)
            if gcd(exponent, order) == 1:
                break
        keys.append(CommutativeKey(prime=prime, exponent=exponent))
    return keys


@dataclass
class SetResult:
    """Outcome of a set protocol plus its cost."""

    items: set
    crypto: CryptoOps


def _canonical_forms(
    party_items: list[set[str]],
    keys: list[CommutativeKey],
    channel: Channel,
    crypto: CryptoOps,
) -> list[dict[int, str]]:
    """Encrypt every party's items under every key (all-layers form).

    Returns, per party, ``{canonical_form: original_item}`` — only the
    owning party can invert its own mapping; the wire carries forms only.
    """
    prime = keys[0].prime
    mappings: list[dict[int, str]] = []
    for owner, items in enumerate(party_items):
        forms: dict[int, str] = {}
        for item in items:
            element = _hash_to_group(item, prime)
            # The owner encrypts first, then the form circulates through
            # every other party for its layer.
            form = keys[owner].encrypt(element)
            crypto.modexps += 1
            for layer in range(len(keys)):
                if layer == owner:
                    continue
                form = channel.send(f"party-{owner}", f"party-{layer}", form)
                form = keys[layer].encrypt(form)
                crypto.modexps += 1
            forms[form] = item
        mappings.append(forms)
    return mappings


def secure_set_union(
    party_items: list[set[str]],
    keys: list[CommutativeKey],
    channel: Channel,
) -> SetResult:
    """Union of all parties' sets, without attributing items to parties.

    All canonical forms are pooled (a semi-honest mixer would shuffle them);
    duplicates collapse; each party recognizes — and reveals — exactly the
    union items it owns a preimage for.
    """
    if len(party_items) != len(keys):
        raise ValueError("one key per party required")
    crypto = CryptoOps()
    mappings = _canonical_forms(party_items, keys, channel, crypto)
    pooled: set[int] = set()
    for owner, forms in enumerate(mappings):
        pooled.update(
            channel.send(f"party-{owner}", "mixer", sorted(forms))
        )
    union: set[str] = set()
    for forms in mappings:
        union.update(
            item for form, item in forms.items() if form in pooled
        )
    return SetResult(items=union, crypto=crypto)


def secure_intersection_size(
    party_items: list[set[str]],
    keys: list[CommutativeKey],
    channel: Channel,
) -> tuple[int, CryptoOps]:
    """|∩ sets| — counts canonical forms present in *every* party's list."""
    if len(party_items) != len(keys):
        raise ValueError("one key per party required")
    crypto = CryptoOps()
    mappings = _canonical_forms(party_items, keys, channel, crypto)
    common = set(mappings[0])
    for forms in mappings[1:]:
        common &= set(forms)
    return len(common), crypto


def secure_scalar_product(
    alice_vector: list[int],
    bob_vector: list[int],
    public: PaillierPublicKey,
    private: PaillierPrivateKey,
    channel: Channel,
    rng: random.Random,
) -> tuple[int, CryptoOps]:
    """⟨a, b⟩ revealed to Alice; Bob sees only Paillier ciphertexts.

    Alice sends ``E(a_i)``; Bob homomorphically computes
    ``Π E(a_i)^{b_i} = E(Σ a_i b_i)`` and returns it; Alice decrypts.
    """
    if len(alice_vector) != len(bob_vector):
        raise ValueError("vectors must have equal length")
    if not alice_vector:
        return 0, CryptoOps()
    crypto = CryptoOps()
    encrypted = []
    for value in alice_vector:
        encrypted.append(public.encrypt(value, rng))
        crypto.modexps += 1
    channel.send("alice", "bob", encrypted)
    combined = None
    for ciphertext, weight in zip(encrypted, bob_vector):
        term = public.multiply_plain(ciphertext, weight)
        crypto.modexps += 1
        combined = term if combined is None else public.add(combined, term)
    channel.send("bob", "alice", combined)
    crypto.modexps += 1  # Alice's decryption
    return private.decrypt_signed(combined), crypto
