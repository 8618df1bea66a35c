"""Populations of full Personal Data Servers, bridged to Part III.

The global protocols of :mod:`repro.globalq` operate on light
:class:`~repro.globalq.tokens.PdsNode` views. This module builds a
population of *complete* :class:`PersonalDataServer` instances from the
synthetic people workload and derives the protocol nodes from them through
the access-control layer — so a global query really does traverse each
citizen's policy before anything leaves a token.
"""

from __future__ import annotations

from repro.globalq.tokens import PdsNode, TokenFleet
from repro.pds.acl import Subject, default_policy
from repro.pds.datamodel import PersonalDocument
from repro.pds.server import PersonalDataServer
from repro.workloads.people import generate_population


def documents_from_records(records) -> list[PersonalDocument]:
    """Re-materialize workload records as PDS documents."""
    documents = []
    for record in records:
        attributes = dict(record.attributes)
        kind = attributes.pop("kind", "form")
        documents.append(PersonalDocument(kind=kind, attributes=attributes))
    return documents


class PdsPopulation:
    """A fleet of citizens' servers plus the shared token key material."""

    def __init__(
        self,
        num_people: int,
        seed: int = 17,
        skew: float = 1.0,
        policy_factory=default_policy,
    ) -> None:
        self.fleet = TokenFleet(seed=seed)
        self.servers: list[PersonalDataServer] = []
        for person, records in enumerate(
            generate_population(num_people, seed=seed, skew=skew)
        ):
            server = PersonalDataServer(
                owner=f"citizen-{person}", policy=policy_factory()
            )
            server.ingest_all(documents_from_records(records))
            self.servers.append(server)

    def __len__(self) -> int:
        return len(self.servers)

    def nodes_for(self, querier: Subject) -> list[PdsNode]:
        """Protocol nodes holding only what each policy releases to querier."""
        return [
            PdsNode(
                pds_id=index,
                records=server.records_for_aggregation(querier),
            )
            for index, server in enumerate(self.servers)
        ]
