"""Distributed secure sharing: credential proofs + usage control.

Two Part I requirements in one module:

* *"Users must get a proof of legitimacy for the credentials exposed by the
  participants of a data exchange"* — :class:`Credential` is a role
  statement MAC'd by a certification authority key that every genuine token
  carries; tokens verify before serving a share.
* *"Users must not lose control over their data through data sharing"*
  (KuppingerCole's Life Management Platforms) — shares travel as
  :class:`SharingEnvelope`: documents sealed under the fleet key together
  with a :class:`UsagePolicy` (read budget, expiry). Only another genuine
  token can open the envelope, and it enforces the embedded policy — the
  enforcement point moves *with the data*.
"""

from __future__ import annotations

import hashlib
import hmac
import json

from repro.errors import AccessDenied, IntegrityError, ProtocolError
from repro.globalq.tokens import TokenFleet
from repro.pds.acl import Subject
from repro.pds.datamodel import PersonalDocument
from repro.pds.server import PersonalDataServer, _deserialize_document, _serialize_document


class CertificationAuthority:
    """Issues role credentials all tokens can verify (shared MAC key)."""

    def __init__(self, fleet: TokenFleet, authority_seed: bytes = b"ca") -> None:
        # A deterministic MAC every token can recompute: verify ==
        # re-issue + compare. Constructing an authority must not draw from
        # ``fleet``: its rng is shared by every holder.
        self._key = hashlib.sha256(authority_seed + b"|credentials").digest()

    def issue(self, subject: Subject, expires_at: int) -> "Credential":
        body = json.dumps([subject.name, subject.role, expires_at]).encode()
        proof = hmac.new(self._key, body, "sha256").digest()
        return Credential(
            subject=subject, expires_at=expires_at, proof=proof
        )

    def verify(self, credential: "Credential", now: int) -> bool:
        body = json.dumps(
            [
                credential.subject.name,
                credential.subject.role,
                credential.expires_at,
            ]
        ).encode()
        expected = hmac.new(self._key, body, "sha256").digest()
        if not hmac.compare_digest(expected, credential.proof):
            return False
        return now <= credential.expires_at


class Credential:
    """A verifiable role statement ('Dr. A is a doctor until t')."""

    def __init__(self, subject: Subject, expires_at: int, proof: bytes) -> None:
        self.subject = subject
        self.expires_at = expires_at
        self.proof = proof


class UsagePolicy:
    """Constraints that travel inside the envelope."""

    def __init__(self, max_reads: int = 1, expires_at: int = 2**31) -> None:
        if max_reads < 1:
            raise ProtocolError("a share must allow at least one read")
        self.max_reads = max_reads
        self.expires_at = expires_at

    def to_json(self) -> list:
        return [self.max_reads, self.expires_at]

    @classmethod
    def from_json(cls, data: list) -> "UsagePolicy":
        return cls(max_reads=data[0], expires_at=data[1])


class SharingEnvelope:
    """Documents + usage policy sealed under the fleet key."""

    def __init__(self, blob: bytes, sender: str, recipient_role: str) -> None:
        self.blob = blob
        self.sender = sender
        self.recipient_role = recipient_role


def create_share(
    pds: PersonalDataServer,
    fleet: TokenFleet,
    doc_ids: list[int],
    recipient_role: str,
    policy: UsagePolicy,
) -> SharingEnvelope:
    """Owner-initiated share of selected documents."""
    documents = [pds.read(pds.owner, doc_id) for doc_id in doc_ids]
    payload = json.dumps(
        {
            "policy": policy.to_json(),
            "recipient_role": recipient_role,
            "documents": [
                _serialize_document(document).decode() for document in documents
            ],
        }
    ).encode()
    cipher = fleet.payload_cipher()
    pds.audit.record(
        pds.owner.name, "owner", "share",
        f"docs:{sorted(doc_ids)}->{recipient_role}", True,
    )
    return SharingEnvelope(
        blob=cipher.encrypt(payload),
        sender=pds.owner.name,
        recipient_role=recipient_role,
    )


class ShareReader:
    """A recipient token enforcing the envelope's usage policy."""

    def __init__(
        self,
        fleet: TokenFleet,
        authority: CertificationAuthority,
        credential: Credential,
    ) -> None:
        self.fleet = fleet
        self.authority = authority
        self.credential = credential
        self._reads: dict[int, int] = {}  # envelope id -> reads used

    def open(
        self, envelope: SharingEnvelope, now: int = 0
    ) -> list[PersonalDocument]:
        """Decrypt and return the shared documents, enforcing usage rules."""
        if not self.authority.verify(self.credential, now):
            raise AccessDenied("credential invalid or expired")
        if self.credential.subject.role != envelope.recipient_role:
            raise AccessDenied(
                f"envelope is for role {envelope.recipient_role!r}, "
                f"credential says {self.credential.subject.role!r}"
            )
        cipher = self.fleet.payload_cipher()
        try:
            payload = json.loads(cipher.decrypt(envelope.blob))
        except IntegrityError as exc:
            raise AccessDenied("envelope is corrupted or forged") from exc
        policy = UsagePolicy.from_json(payload["policy"])
        if now > policy.expires_at:
            raise AccessDenied("share has expired")
        envelope_id = id(envelope)
        used = self._reads.get(envelope_id, 0)
        if used >= policy.max_reads:
            raise AccessDenied(
                f"usage budget exhausted ({policy.max_reads} reads)"
            )
        self._reads[envelope_id] = used + 1
        return [
            _deserialize_document(document.encode())
            for document in payload["documents"]
        ]
