"""Tamper-evident audit log: the accountability half of "secure usage".

Part I requires *"secure usage and accountability"*: the owner must be able
to prove, after the fact, who accessed what. Entries are hash-chained
(each entry commits to its predecessor's digest) and stored in a sequential
flash log, so truncation is the only undetectable modification — and the
entry counter in token NVRAM closes that hole in the real design; here the
verifier takes the expected length explicitly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.hardware.flash import BlockAllocator
from repro.storage import pager
from repro.storage.log import RecordLog

_GENESIS = b"\x00" * 32


@dataclass(frozen=True)
class AuditEntry:
    """One recorded access decision."""

    sequence: int
    subject: str
    role: str
    action: str
    target: str
    allowed: bool
    prev_digest: bytes

    def digest(self) -> bytes:
        body = json.dumps(
            [
                self.sequence,
                self.subject,
                self.role,
                self.action,
                self.target,
                self.allowed,
                self.prev_digest.hex(),
            ]
        ).encode()
        return hashlib.sha256(body).digest()

    def serialize(self) -> bytes:
        return json.dumps(
            [
                self.sequence,
                self.subject,
                self.role,
                self.action,
                self.target,
                self.allowed,
                self.prev_digest.hex(),
            ]
        ).encode()

    @classmethod
    def deserialize(cls, data: bytes) -> "AuditEntry":
        sequence, subject, role, action, target, allowed, prev_hex = json.loads(
            data
        )
        return cls(
            sequence=sequence,
            subject=subject,
            role=role,
            action=action,
            target=target,
            allowed=allowed,
            prev_digest=bytes.fromhex(prev_hex),
        )


class AuditLog:
    """Hash-chained access journal on the token's flash."""

    def __init__(self, allocator: BlockAllocator) -> None:
        self._log = RecordLog(allocator, name="audit")
        self._last_digest = _GENESIS
        self._count = 0

    @classmethod
    def remount(cls, session) -> "AuditLog":
        """Rebuild the journal from its durable prefix after power loss.

        Entries still in the RAM write buffer at the crash are gone — the
        chain simply resumes from the last flushed entry, whose digest is
        recomputed from the recovered payloads (no extra flash reads).
        Accountability over durable history is intact: `verify_chain`
        still walks genesis to head.
        """
        recovered = session.claim("audit")
        log = cls.__new__(cls)
        log._log = RecordLog.remount(session.allocator, "audit", recovered)
        digest = _GENESIS
        count = 0
        for page in recovered.pages:
            for record in pager.unpack_records(page.payload):
                digest = AuditEntry.deserialize(record).digest()
                count += 1
        log._last_digest = digest
        log._count = count
        return log

    def flush(self) -> None:
        """Push buffered entries to flash (part of a durable checkpoint)."""
        self._log.flush()

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def head_digest(self) -> bytes:
        """Digest of the latest entry (what the owner would pin externally)."""
        return self._last_digest

    def record(
        self, subject: str, role: str, action: str, target: str, allowed: bool
    ) -> AuditEntry:
        entry = AuditEntry(
            sequence=self._count,
            subject=subject,
            role=role,
            action=action,
            target=target,
            allowed=allowed,
            prev_digest=self._last_digest,
        )
        self._log.append(entry.serialize())
        self._last_digest = entry.digest()
        self._count += 1
        return entry

    def entries(self) -> list[AuditEntry]:
        return [
            AuditEntry.deserialize(record) for _, record in self._log.scan()
        ]

    def verify_chain(self, expected_count: int | None = None) -> bool:
        """Re-walk the chain; False on any break or length mismatch."""
        digest = _GENESIS
        entries = self.entries()
        for index, entry in enumerate(entries):
            if entry.sequence != index or entry.prev_digest != digest:
                return False
            digest = entry.digest()
        if digest != self._last_digest:
            return False
        if expected_count is not None and len(entries) != expected_count:
            return False
        return True
