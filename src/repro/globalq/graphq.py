"""Private graph queries: the inherently hard case of Part III's conclusion.

    *"Graph based queries (private secure network queries) have an inherent
    difficulty because the security must be assured all along a path."*

This module makes the difficulty measurable. The setting: a social graph
distributed over the PDS population — each citizen's token knows only its
own adjacency. A querier wants reachability/distance between two members
without any adjacency list ever reaching the SSI in the clear.

The traversal protocol is frontier BFS, one **round per hop**: the querier
token decrypts the current frontier's adjacencies (fetched, encrypted,
through the SSI) before it even knows whom to contact next — rounds cannot
be collapsed, which is exactly the "along a path" sequentiality. Two modes:

* **unpadded** — only frontier members are contacted each round. Cheap, but
  the SSI watches *which* tokens talk: the access pattern traces the path
  (the leak is reported, not hidden);
* **padded** — every token is contacted every round and answers with a
  (real or dummy) fixed-size encrypted blob. The access pattern becomes
  uniform — no leak — at bandwidth ``n x rounds``, the price the conclusion
  alludes to.

A centralized baseline (everyone uploads their adjacency once) costs one
round but leaks the entire graph to whoever aggregates it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.globalq.tokens import TokenFleet
from repro.net.metrics import Channel

_NODE = struct.Struct("<I")


def _pack_adjacency(neighbors: set[int]) -> bytes:
    """Length-prefixed adjacency: count, then sorted node ids."""
    return _NODE.pack(len(neighbors)) + b"".join(
        _NODE.pack(node) for node in sorted(neighbors)
    )


def _unpack_adjacency(data: bytes) -> set[int]:
    (count,) = _NODE.unpack_from(data, 0)
    return {
        _NODE.unpack_from(data, _NODE.size * (1 + index))[0]
        for index in range(count)
    }


@dataclass
class GraphQueryReport:
    """Outcome and cost/leak profile of one private traversal."""

    reachable: bool
    distance: int | None
    rounds: int
    token_contacts: int
    comm_bytes: int
    #: Distinct tokens the SSI saw being queried — the access-pattern leak.
    #: In padded mode this equals the whole population (uniform = no info).
    observed_contacts: int
    padded: bool


class DistributedGraph:
    """Adjacency held per token; only ciphertext crosses the SSI."""

    def __init__(
        self, adjacency: dict[int, set[int]], fleet: TokenFleet
    ) -> None:
        for node, neighbors in adjacency.items():
            for neighbor in neighbors:
                if node not in adjacency.get(neighbor, set()):
                    raise ProtocolError(
                        f"adjacency not symmetric: {node} -> {neighbor}"
                    )
        self.adjacency = adjacency
        self.fleet = fleet
        self._cipher = fleet.payload_cipher()
        self._max_degree = max(
            (len(neighbors) for neighbors in adjacency.values()), default=0
        )

    # ------------------------------------------------------------------
    def fetch_encrypted(self, node: int, padded: bool) -> bytes:
        """What the node's token hands the SSI for forwarding.

        Padded mode pads every answer to the maximum degree so answer
        *sizes* cannot distinguish real frontier members from dummies.
        """
        payload = _pack_adjacency(self.adjacency.get(node, set()))
        if padded:
            # Fixed-size answers: sizes cannot distinguish frontier members
            # from dummies. The length prefix makes padding unambiguous.
            payload = payload.ljust(_NODE.size * (1 + self._max_degree), b"\x00")
        return self._cipher.encrypt(payload)

    def decrypt_adjacency(self, blob: bytes) -> set[int]:
        return _unpack_adjacency(self._cipher.decrypt(blob))


def private_reachability(
    graph: DistributedGraph,
    source: int,
    target: int,
    max_hops: int,
    channel: Channel,
    padded: bool = False,
) -> GraphQueryReport:
    """BFS over encrypted adjacencies, one SSI round per hop."""
    if source not in graph.adjacency or target not in graph.adjacency:
        raise ProtocolError("source and target must be graph members")
    if source == target:
        return GraphQueryReport(True, 0, 0, 0, 0, 0, padded)

    population = sorted(graph.adjacency)
    visited = {source}
    frontier = {source}
    contacts = 0
    observed: set[int] = set()
    rounds = 0
    while frontier and rounds < max_hops:
        rounds += 1
        contact_set = population if padded else sorted(frontier)
        next_frontier: set[int] = set()
        for node in contact_set:
            blob = graph.fetch_encrypted(node, padded)
            channel.send(f"token-{node}", "ssi", blob)
            channel.send("ssi", "querier-token", blob)
            contacts += 1
            observed.add(node)
            if node in frontier:  # dummies are decrypted but discarded
                next_frontier |= graph.decrypt_adjacency(blob)
        next_frontier -= visited
        if target in next_frontier:
            return GraphQueryReport(
                reachable=True,
                distance=rounds,
                rounds=rounds,
                token_contacts=contacts,
                comm_bytes=channel.stats.bytes,
                observed_contacts=len(observed),
                padded=padded,
            )
        visited |= next_frontier
        frontier = next_frontier
    return GraphQueryReport(
        reachable=False,
        distance=None,
        rounds=rounds,
        token_contacts=contacts,
        comm_bytes=channel.stats.bytes,
        observed_contacts=len(observed),
        padded=padded,
    )


def centralized_reachability(
    graph: DistributedGraph,
    source: int,
    target: int,
    channel: Channel,
) -> GraphQueryReport:
    """The leaky baseline: every adjacency uploaded once, BFS locally.

    One round, but the aggregator reconstructs the entire social graph —
    the privacy failure the private protocol exists to avoid.
    """
    adjacency: dict[int, set[int]] = {}
    for node in sorted(graph.adjacency):
        payload = _pack_adjacency(graph.adjacency[node])
        channel.send(f"token-{node}", "aggregator", payload)
        adjacency[node] = set(graph.adjacency[node])
    # Plain BFS at the aggregator.
    from collections import deque

    queue = deque([(source, 0)])
    seen = {source}
    while queue:
        node, distance = queue.popleft()
        if node == target:
            return GraphQueryReport(
                True, distance, 1, len(adjacency), channel.stats.bytes,
                len(adjacency), False,
            )
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append((neighbor, distance + 1))
    return GraphQueryReport(
        False, None, 1, len(adjacency), channel.stats.bytes,
        len(adjacency), False,
    )
