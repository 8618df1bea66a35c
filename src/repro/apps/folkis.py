"""Folk-IS: folk-enabled information systems (Perspectives).

Personal-data services for regions with **no infrastructure**: no network,
no servers, no trusted authorities. Every participant carries a secure
token; data moves only when people physically meet (a delay-tolerant
network), and the tokens enforce privacy end-to-end — messages travel
encrypted under the fleet key, and couriers learn nothing about what they
carry.

The simulator drives random pairwise encounters and measures delivery
latency, matching the three Folk-IS requirements quoted on the slide:
self-enforced privacy, self-sufficiency, and per-participant cost of a few
dollars (one token, no infrastructure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.globalq.tokens import TokenFleet


@dataclass
class Bundle:
    """One store-and-forward message (always encrypted in transit)."""

    bundle_id: int
    origin: int
    destination: int
    blob: bytes
    created_step: int
    delivered_step: int | None = None

    @property
    def delivered(self) -> bool:
        return self.delivered_step is not None

    @property
    def latency(self) -> int | None:
        if self.delivered_step is None:
            return None
        return self.delivered_step - self.created_step


class FolkNode:
    """One participant: a token with a bundle buffer."""

    def __init__(self, node_id: int, buffer_limit: int = 256) -> None:
        self.node_id = node_id
        self.buffer_limit = buffer_limit
        self.carrying: dict[int, Bundle] = {}

    def accept(self, bundle: Bundle) -> bool:
        if len(self.carrying) >= self.buffer_limit:
            return False
        self.carrying[bundle.bundle_id] = bundle
        return True


class FolkNetwork:
    """A village-scale delay-tolerant network driven by encounters."""

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        encounters_per_step: int | None = None,
        buffer_limit: int = 256,
    ) -> None:
        if num_nodes < 2:
            raise ProtocolError("a Folk-IS needs at least two participants")
        self.fleet = TokenFleet(seed=seed)
        self._cipher = self.fleet.payload_cipher()
        self.rng = random.Random(seed)
        self.nodes = [FolkNode(i, buffer_limit) for i in range(num_nodes)]
        self.encounters_per_step = encounters_per_step or max(1, num_nodes // 2)
        self.step_count = 0
        self.bundles: list[Bundle] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def send(self, origin: int, destination: int, payload: bytes) -> Bundle:
        """Queue a message at its origin node (encrypted immediately)."""
        if origin == destination:
            raise ProtocolError("origin and destination must differ")
        bundle = Bundle(
            bundle_id=self._next_id,
            origin=origin,
            destination=destination,
            blob=self._cipher.encrypt(payload),
            created_step=self.step_count,
        )
        self._next_id += 1
        self.bundles.append(bundle)
        self.nodes[origin].accept(bundle)
        return bundle

    def step(self) -> int:
        """One time step of random encounters; returns deliveries made."""
        self.step_count += 1
        delivered = 0
        for _ in range(self.encounters_per_step):
            a, b = self.rng.sample(range(len(self.nodes)), 2)
            delivered += self._meet(self.nodes[a], self.nodes[b])
        return delivered

    def _meet(self, first: FolkNode, second: FolkNode) -> int:
        """Epidemic exchange: both replicate undelivered bundles."""
        delivered = 0
        for left, right in ((first, second), (second, first)):
            for bundle in list(left.carrying.values()):
                if bundle.delivered:
                    del left.carrying[bundle.bundle_id]
                    continue
                if bundle.destination == right.node_id:
                    bundle.delivered_step = self.step_count
                    del left.carrying[bundle.bundle_id]
                    delivered += 1
                elif bundle.bundle_id not in right.carrying:
                    right.accept(bundle)
        return delivered

    def run_until_delivered(self, max_steps: int = 10_000) -> int:
        """Step until every bundle is delivered; returns steps taken."""
        start = self.step_count
        while any(not bundle.delivered for bundle in self.bundles):
            if self.step_count - start >= max_steps:
                raise ProtocolError(
                    f"not all bundles delivered after {max_steps} steps"
                )
            self.step()
        return self.step_count - start

    # ------------------------------------------------------------------
    def delivery_latencies(self) -> list[int]:
        return [
            bundle.latency for bundle in self.bundles if bundle.delivered
        ]

    def read_payload(self, bundle: Bundle) -> bytes:
        """Destination-side decryption (inside the recipient's token)."""
        if not bundle.delivered:
            raise ProtocolError("bundle not delivered yet")
        return self._cipher.decrypt(bundle.blob)
