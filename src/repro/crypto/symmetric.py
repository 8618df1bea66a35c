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
keyed states and differ only in their nonce source, which is how
:class:`~repro.globalq.protocol.TokenFleet` gives every PDS its own
``Random(cipher_seed)`` nonce stream without re-keying. Keyed states are
never ``update()``d after construction, so threads may share them; they do
not pickle, so worker processes rebuild the fleet from its seed.

What stays per PDS is that ``random.Random(cipher_seed)``: seeding the
Mersenne Twister costs ~5 µs, now the largest fixed cost of a one-tuple
PDS. It is the determinism contract of sharded collection (same nonce
stream at any worker count), so it is left alone here.
"""

from __future__ import annotations

import hashlib
import hmac
import random

from repro.errors import IntegrityError

_NONCE_BYTES = 16
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
        nonce = self._rng.getrandbits(8 * _NONCE_BYTES).to_bytes(
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
