"""Secure Portable Token (SPT): the trusted element of the PDS architecture.

A token bundles the three properties the tutorial's "Why trust personal
secure HW solutions?" slide enumerates:

* a **tamper-resistant MCU** — modelled by :class:`Microcontroller` plus a
  tamper latch that, once tripped, destroys all key material and refuses
  further service (the cost/benefit asymmetry of physical attacks);
* **NAND flash storage** for GBs of personal data;
* a **keystore** holding the owner's cryptographic keys, accessible only to
  code running *inside* the token.

Tokens are the unit of trust everywhere above this layer: the embedded
engines of Part II run against ``token.flash``/``token.mcu``, and the global
protocols of Part III treat the set of tokens as mutually trusted elements
behind individually untrusted infrastructure.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools

from repro.errors import TamperedTokenError
from repro.hardware.cache import PageCache
from repro.hardware.flash import BlockAllocator, NandFlash
from repro.hardware.mcu import Microcontroller
from repro.hardware.profiles import HardwareProfile, smart_usb_token

_token_serial = itertools.count(1)


class KeyStore:
    """Named symmetric keys sealed inside the token's secure perimeter."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def install(self, name: str, key: bytes) -> None:
        if not key:
            raise ValueError("refusing to install an empty key")
        self._keys[name] = bytes(key)

    def get(self, name: str) -> bytes:
        try:
            return self._keys[name]
        except KeyError:
            raise KeyError(f"no key named {name!r} in this token") from None

    def names(self) -> list[str]:
        return sorted(self._keys)

    def destroy_all(self) -> None:
        """Zeroize every key (tamper response)."""
        self._keys.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._keys

    def __len__(self) -> int:
        return len(self._keys)


class SecurePortableToken:
    """One user's trusted device: MCU + flash + keystore + tamper latch."""

    def __init__(
        self,
        profile: HardwareProfile | None = None,
        owner: str = "",
        cache_pages: int = 0,
        flash: NandFlash | None = None,
        allocator: BlockAllocator | None = None,
    ) -> None:
        """``flash``/``allocator`` rebuild a token around surviving silicon.

        The default is a factory-fresh chip. After a power loss the flash
        contents outlive the token object, so the recovery path passes the
        same :class:`NandFlash` back in, along with the allocator the mount
        scan rebuilt from it (see :mod:`repro.storage.recovery`).
        """
        self.profile = profile or smart_usb_token()
        self.serial = next(_token_serial)
        self.owner = owner or f"user-{self.serial}"
        self.mcu = Microcontroller(self.profile)
        if allocator is not None and flash is None:
            flash = allocator.flash
        self.flash = flash or NandFlash(
            self.profile.flash_geometry, self.profile.flash_cost
        )
        if allocator is not None and allocator.flash is not self.flash:
            raise ValueError("allocator does not manage the provided flash")
        self.allocator = allocator or BlockAllocator(self.flash)
        self.keystore = KeyStore()
        self._tampered = False
        self.page_cache = None
        if cache_pages > 0:
            self.enable_page_cache(cache_pages)

    # ------------------------------------------------------------------
    # Page cache (RAM-charged hot-read layer over the flash chip)
    # ------------------------------------------------------------------
    def enable_page_cache(self, capacity_pages: int):
        """Install an LRU page cache charged against the MCU's RAM arena.

        All logs built on this token's allocator immediately read through
        it; returns the :class:`~repro.hardware.cache.PageCache` so callers
        can inspect its stats. Enabling with 0 pages is allowed (a pure
        pass-through that still counts misses), matching the benchmarks'
        cache-disabled baseline.
        """
        if self.page_cache is not None:
            self.disable_page_cache()
        self.page_cache = PageCache(
            self.flash,
            capacity_pages,
            ram=self.mcu.ram,
            tag=f"pagecache:{self.owner}",
        )
        self.allocator.attach_cache(self.page_cache)
        return self.page_cache

    def disable_page_cache(self) -> None:
        """Remove the page cache, returning its RAM to the arena."""
        if self.page_cache is None:
            return
        self.allocator.attach_cache(None)
        self.page_cache.close()
        self.page_cache = None

    # ------------------------------------------------------------------
    @property
    def tampered(self) -> bool:
        return self._tampered

    def tamper(self) -> None:
        """Simulate a detected physical attack: zeroize and brick the token.

        A non-tamper-resistant profile (e.g. a plug server) cannot defend
        itself; tampering then succeeds *silently* — keys survive for the
        attacker — which is exactly why the PDS architecture insists on
        tamper-resistant hardware.
        """
        self._tampered = True
        if self.profile.tamper_resistant:
            self.keystore.destroy_all()

    def require_trusted(self) -> None:
        """Gate used by all secure entry points of the token firmware."""
        if self._tampered and self.profile.tamper_resistant:
            raise TamperedTokenError(
                f"token {self.serial} ({self.owner}) detected tampering and "
                "destroyed its key material"
            )

    # ------------------------------------------------------------------
    # Minimal in-token crypto primitives (metered through the MCU).
    # Heavier schemes live in repro.crypto; these cover the PRF/MAC needs
    # of storage encryption and protocol message authentication.
    # ------------------------------------------------------------------
    def prf(self, key_name: str, message: bytes) -> bytes:
        """Keyed PRF (HMAC-SHA256) evaluated inside the secure perimeter."""
        self.require_trusted()
        key = self.keystore.get(key_name)
        self.mcu.charge_hash(len(message))
        return hmac.new(key, message, hashlib.sha256).digest()

    def mac(self, key_name: str, message: bytes) -> bytes:
        """Message authentication code over ``message`` (same PRF, own name)."""
        return self.prf(key_name, b"mac|" + message)

    def verify_mac(self, key_name: str, message: bytes, tag: bytes) -> bool:
        self.require_trusted()
        expected = self.mac(key_name, message)
        return hmac.compare_digest(expected, tag)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SecurePortableToken(serial={self.serial}, owner={self.owner!r}, "
            f"profile={self.profile.name!r})"
        )
