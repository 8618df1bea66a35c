"""Symmetric encryption: deterministic vs non-deterministic, as in [TNP14].

Part III's protocol families are distinguished by which symmetric scheme the
tokens use to push tuples to the SSI:

* **Non-deterministic** (:class:`NondeterministicCipher`): fresh nonce per
  encryption, so equal plaintexts yield unlinkable ciphertexts. Used by the
  secure-aggregation family — the SSI learns nothing, not even equality.
* **Deterministic** (:class:`DeterministicCipher`): SIV-style, equal
  plaintexts yield equal ciphertexts. Enables the SSI to group/partition by
  ciphertext (noise- and histogram-based families) at the price of leaking
  frequencies — the leak experiment E8 quantifies.

Both are HMAC-SHA256-CTR constructions: a keystream PRF every secure MCU's
hardware crypto block can supply. Simulation substrate, not audited crypto.

**What is keyed once.** A served query encrypts and decrypts one ~20-byte
tuple per PDS, so an HMAC key schedule (two SHA-256 compressions over the
ipad/opad key blocks) per message would cost more than the message itself.
:class:`KeyedPrf` runs that schedule at construction and keeps the two
SHA-256 states; each message is ``copy()`` + ``update`` on them — the same
bytes ``hmac.new(key, msg, hashlib.sha256).digest()`` returns (the tests
hold the two equal), at under half the cost. A cipher derives its two
sub-keys and builds its two PRFs in ``__init__`` and never again:
:meth:`NondeterministicCipher.with_nonces` hands out ciphers that share the
keyed states and differ only in their nonce source. Keyed states are never
``update()``d after construction, so threads may share them; they do not
pickle, so worker processes rebuild the fleet from its seed.

**What is batched.** A collection shard seals every tuple of its PDSs in
one :meth:`NondeterministicCipher.seal_batch` call, and an aggregator token
opens its whole partition in one :meth:`NondeterministicCipher.open_batch`
call; both bind the keyed states' ``copy`` once per call and take the
single-block keystream inline, since a collection tuple fits in one
32-byte block. Their bytes are exactly those of per-message
:meth:`~NondeterministicCipher.encrypt` / :meth:`~NondeterministicCipher.decrypt`
(the tests hold them equal).

What stays per PDS is one nonce stream seeded with that PDS's
``cipher_seed``: it is the determinism contract of sharded collection
(same nonces at any worker count). :meth:`~NondeterministicCipher.seal_batch`
reseeds one scratch ``random.Random`` per stream — ``r.seed(s)`` leaves
exactly the state ``Random(s)`` starts from — so no generator is built per
PDS, but the Mersenne Twister seeding itself (~5 µs) is still paid once
per contributing PDS; replacing it moves bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import random

from repro.errors import IntegrityError

_NONCE_BYTES = 16
_NONCE_BITS = 8 * _NONCE_BYTES
_TAG_BYTES = 16
_DIGEST_BYTES = 32
_BLOCK_BYTES = 64  # SHA-256 input block: HMAC pads or hashes keys to this
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))
_COUNTER_ZERO = (0).to_bytes(4, "little")


class KeyedPrf:
    """HMAC-SHA256 under one key, with the key schedule done once.

    Holds the SHA-256 states left after absorbing ``key ^ ipad`` and
    ``key ^ opad``; they are only ever copied, never updated.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK_BYTES:
            key = hashlib.sha256(key).digest()
        block = key.ljust(_BLOCK_BYTES, b"\0")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """The PRF in counter mode; one block covers a collection tuple."""
        if length <= _DIGEST_BYTES:
            return self.digest(nonce + _COUNTER_ZERO)[:length]
        return b"".join(
            self.digest(nonce + counter.to_bytes(4, "little"))
            for counter in range((length + _DIGEST_BYTES - 1) // _DIGEST_BYTES)
        )[:length]


def _subkeys(key: bytes, mac_label: bytes, enc_label: bytes):
    """The (MAC, keystream) PRFs derived from ``key``."""
    if len(key) < 16:
        raise ValueError("key must be at least 16 bytes")
    master = KeyedPrf(key)
    return KeyedPrf(master.digest(mac_label)), KeyedPrf(master.digest(enc_label))


def _xor(data: bytes, pad: bytes) -> bytes:
    # One big-int XOR instead of a per-byte Python loop: ~10x less time on
    # the million-contribution collection phases of bench E23.
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(len(data), "little")


class DeterministicCipher:
    """SIV-style deterministic authenticated encryption.

    ``E(m) = siv || (m XOR PRF(k_enc, siv))`` with
    ``siv = HMAC(k_mac, m)[:16]`` — deterministic, self-authenticating.
    """

    __slots__ = ("_mac", "_enc")

    def __init__(self, key: bytes) -> None:
        self._mac, self._enc = _subkeys(key, b"det-mac", b"det-enc")

    def encrypt(self, plaintext: bytes) -> bytes:
        siv = self._mac.digest(plaintext)[:_NONCE_BYTES]
        body = _xor(plaintext, self._enc.keystream(siv, len(plaintext)))
        return siv + body

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _NONCE_BYTES:
            raise IntegrityError("ciphertext too short")
        siv, body = ciphertext[:_NONCE_BYTES], ciphertext[_NONCE_BYTES:]
        plaintext = _xor(body, self._enc.keystream(siv, len(body)))
        expected = self._mac.digest(plaintext)[:_NONCE_BYTES]
        if not hmac.compare_digest(siv, expected):
            raise IntegrityError("deterministic ciphertext failed authentication")
        return plaintext


class NondeterministicCipher:
    """Nonce-based authenticated encryption (encrypt-then-MAC).

    ``E(m) = nonce || c || HMAC(k_mac, nonce || c)`` with a fresh random
    nonce, so two encryptions of the same plaintext are unlinkable.
    """

    __slots__ = ("_mac", "_enc", "_rng")

    def __init__(self, key: bytes, rng: random.Random | None = None) -> None:
        self._mac, self._enc = _subkeys(key, b"nd-mac", b"nd-enc")
        self._rng = rng or random.Random()

    def with_nonces(self, rng: random.Random) -> "NondeterministicCipher":
        """A cipher under the same key drawing its nonces from ``rng``.

        Shares this cipher's keyed states instead of deriving them again.
        """
        bound = object.__new__(type(self))
        bound._mac, bound._enc, bound._rng = self._mac, self._enc, rng
        return bound

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = self._rng.getrandbits(_NONCE_BITS).to_bytes(
            _NONCE_BYTES, "little"
        )
        sealed = nonce + _xor(
            plaintext, self._enc.keystream(nonce, len(plaintext))
        )
        return sealed + self._mac.digest(sealed)[:_TAG_BYTES]

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _NONCE_BYTES + _TAG_BYTES:
            raise IntegrityError("ciphertext too short")
        nonce = ciphertext[:_NONCE_BYTES]
        body = ciphertext[_NONCE_BYTES:-_TAG_BYTES]
        tag = ciphertext[-_TAG_BYTES:]
        expected = self._mac.digest(ciphertext[:-_TAG_BYTES])[:_TAG_BYTES]
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("ciphertext failed authentication")
        return _xor(body, self._enc.keystream(nonce, len(body)))

    def seal_batch(
        self, plaintexts: list[bytes], seeds: list[int], counts: list[int]
    ) -> list[bytes]:
        """Encrypt ``plaintexts`` in order, one nonce stream per seed.

        The first ``counts[0]`` plaintexts draw their nonces from
        ``Random(seeds[0])``, the next ``counts[1]`` from
        ``Random(seeds[1])``, and so on: element for element what
        :meth:`encrypt` returns on ``with_nonces(Random(seed))``. The
        streams come from one scratch generator local to this call, so
        concurrent callers share nothing but the keyed states.
        """
        scratch = random.Random()
        # The C seed alone: for an int it leaves the state ``Random(seed)``
        # starts from (``Random.seed`` only adds a reset of the Gaussian
        # cache, which ``getrandbits`` never reads).
        reseed = super(random.Random, scratch).seed
        draw = scratch.getrandbits
        nonces = []
        append = nonces.append
        for seed, count in zip(seeds, counts):
            reseed(seed)
            for _ in range(count):
                append(draw(_NONCE_BITS).to_bytes(_NONCE_BYTES, "little"))
        enc_inner, enc_outer = self._enc._inner.copy, self._enc._outer.copy
        mac_inner, mac_outer = self._mac._inner.copy, self._mac._outer.copy
        keystream = self._enc.keystream
        sealed_all = []
        append = sealed_all.append
        for plaintext, nonce in zip(plaintexts, nonces):
            size = len(plaintext)
            if size <= _DIGEST_BYTES:  # one keystream block, inline
                inner = enc_inner()
                inner.update(nonce + _COUNTER_ZERO)
                outer = enc_outer()
                outer.update(inner.digest())
                pad = outer.digest()[:size]
            else:
                pad = keystream(nonce, size)
            sealed = nonce + (
                int.from_bytes(plaintext, "little") ^ int.from_bytes(pad, "little")
            ).to_bytes(size, "little")
            inner = mac_inner()
            inner.update(sealed)
            outer = mac_outer()
            outer.update(inner.digest())
            append(sealed + outer.digest()[:_TAG_BYTES])
        return sealed_all

    def open_batch(self, blobs: list[bytes]) -> list[bytes | None]:
        """:meth:`decrypt` of every blob; ``None`` where it would raise.

        A blob that is too short or fails authentication leaves ``None``
        in its slot and does not disturb any other slot.
        """
        compare = hmac.compare_digest
        enc_inner, enc_outer = self._enc._inner.copy, self._enc._outer.copy
        mac_inner, mac_outer = self._mac._inner.copy, self._mac._outer.copy
        keystream = self._enc.keystream
        opened = []
        append = opened.append
        for blob in blobs:
            if len(blob) < _NONCE_BYTES + _TAG_BYTES:
                append(None)
                continue
            inner = mac_inner()
            inner.update(blob[:-_TAG_BYTES])
            outer = mac_outer()
            outer.update(inner.digest())
            if not compare(blob[-_TAG_BYTES:], outer.digest()[:_TAG_BYTES]):
                append(None)
                continue
            nonce = blob[:_NONCE_BYTES]
            body = blob[_NONCE_BYTES:-_TAG_BYTES]
            size = len(body)
            if size <= _DIGEST_BYTES:  # one keystream block, inline
                inner = enc_inner()
                inner.update(nonce + _COUNTER_ZERO)
                outer = enc_outer()
                outer.update(inner.digest())
                pad = outer.digest()[:size]
            else:
                pad = keystream(nonce, size)
            append(
                (
                    int.from_bytes(body, "little") ^ int.from_bytes(pad, "little")
                ).to_bytes(size, "little")
            )
        return opened
