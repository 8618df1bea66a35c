"""Disconnected synchronization: the medical-folder field experiment.

The Perspectives slides describe a personal social-medical folder whose
local (token) and central (server) copies are *"synchronized without
Internet connection"*: practitioners' **smart badges** physically carry
encrypted deltas between homes and the coordination server — *"no data
re-entered, no network link required"*.

Reconciliation is per-source monotonic: every document carries a
``(source, counter)`` stamp; a replica knows, per source, the highest
counter it holds, so a badge loads exactly the missing suffix. The central
archive stores ciphertext only (it is honest-but-curious, like the SSI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.globalq.tokens import TokenFleet
from repro.pds.datamodel import PersonalDocument
from repro.pds.server import _deserialize_document, _serialize_document


@dataclass(frozen=True)
class StampedDocument:
    """A document plus its replication stamp."""

    source: str
    counter: int
    document: PersonalDocument

    def key(self) -> tuple[str, int]:
        return (self.source, self.counter)


class ReplicaState:
    """What one replica holds: stamped docs + per-source version vector."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._docs: dict[tuple[str, int], StampedDocument] = {}

    # ------------------------------------------------------------------
    @property
    def version_vector(self) -> dict[str, int]:
        vector: dict[str, int] = {}
        for source, counter in self._docs:
            vector[source] = max(vector.get(source, -1), counter)
        return vector

    def documents(self) -> list[StampedDocument]:
        return sorted(self._docs.values(), key=lambda s: s.key())

    def __len__(self) -> int:
        return len(self._docs)

    def add_local(self, source: str, document: PersonalDocument) -> StampedDocument:
        """Author a new document at this replica under ``source``."""
        counter = self.version_vector.get(source, -1) + 1
        stamped = StampedDocument(source, counter, document)
        self._docs[stamped.key()] = stamped
        return stamped

    def integrate(self, stamped: StampedDocument) -> bool:
        """Merge one stamped doc; idempotent. Returns True if new."""
        if stamped.key() in self._docs:
            return False
        self._docs[stamped.key()] = stamped
        return True

    def missing_from(self, vector: dict[str, int]) -> list[StampedDocument]:
        """Documents this replica has that a holder of ``vector`` lacks."""
        return [
            stamped
            for stamped in self.documents()
            if stamped.counter > vector.get(stamped.source, -1)
        ]

    def converged_with(self, other: "ReplicaState") -> bool:
        return {s.key() for s in self.documents()} == {
            s.key() for s in other.documents()
        }


class SmartBadge:
    """The physical courier: carries an encrypted delta, offline.

    The badge is itself a secure token of the fleet, so it may hold the
    plaintext internally; anything at rest in its flash is encrypted with
    the fleet key. We model that by sealing the delta at load time and
    unsealing at delivery.
    """

    def __init__(self, fleet: TokenFleet) -> None:
        self._cipher = fleet.payload_cipher()
        self._sealed: bytes | None = None
        self.carried_documents = 0
        self.carried_bytes = 0

    def load_delta(self, replica: ReplicaState, known_vector: dict[str, int]) -> int:
        """Seal the documents ``replica`` has beyond ``known_vector``."""
        delta = replica.missing_from(known_vector)
        payload = json.dumps(
            [
                [s.source, s.counter, _serialize_document(s.document).decode()]
                for s in delta
            ]
        ).encode()
        self._sealed = self._cipher.encrypt(payload)
        self.carried_documents = len(delta)
        self.carried_bytes = len(self._sealed)
        return len(delta)

    def deliver(self, replica: ReplicaState) -> int:
        """Unseal at the destination replica; returns documents integrated."""
        if self._sealed is None:
            raise ProtocolError("badge is empty: load a delta first")
        entries = json.loads(self._cipher.decrypt(self._sealed))
        integrated = 0
        for source, counter, document_json in entries:
            stamped = StampedDocument(
                source, counter, _deserialize_document(document_json.encode())
            )
            if replica.integrate(stamped):
                integrated += 1
        self._sealed = None
        return integrated


def badge_sync(
    fleet: TokenFleet, left: ReplicaState, right: ReplicaState
) -> tuple[int, int]:
    """One badge round-trip: left -> right, then right -> left.

    Returns ``(docs delivered to right, docs delivered to left)``. After a
    round trip the two replicas are converged for everything that existed
    when the badge was loaded.
    """
    badge = SmartBadge(fleet)
    badge.load_delta(left, right.version_vector)
    to_right = badge.deliver(right)
    badge.load_delta(right, left.version_vector)
    to_left = badge.deliver(left)
    return to_right, to_left
