"""Synthetic document corpora for the embedded search experiments.

Generates the kind of content a PDS aggregates — mails, bills, medical
notes — as bags of words drawn from a Zipfian vocabulary, deterministically
seeded so experiments are reproducible run-to-run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Topical word pools: each document mixes one topic pool with common words,
#: giving queries both selective and broad keywords to exercise.
TOPICS: dict[str, list[str]] = {
    "health": (
        "doctor prescription hospital treatment blood pressure allergy "
        "vaccine appointment radiology diagnosis symptom therapy dosage"
    ).split(),
    "finance": (
        "invoice payment account balance transfer statement credit debit "
        "mortgage insurance premium refund salary pension"
    ).split(),
    "mail": (
        "meeting agenda reply forward attachment schedule deadline project "
        "report draft review conference travel booking"
    ).split(),
    "home": (
        "electricity heating sensor thermostat garage window alarm energy "
        "consumption water meter maintenance repair warranty"
    ).split(),
}

_COMMON = (
    "monday record note personal update copy confirm number reference "
    "service request contact address document"
).split()


@dataclass(frozen=True)
class Document:
    """One synthetic personal document."""

    docid: int
    topic: str
    text: str


class DocumentCorpus:
    """Deterministic generator of topic-tagged documents."""

    def __init__(self, seed: int = 7) -> None:
        self._random = random.Random(seed)

    def generate(
        self,
        num_docs: int,
        words_per_doc: int = 40,
    ) -> list[Document]:
        """Produce ``num_docs`` documents with increasing docids."""
        topics = sorted(TOPICS)
        documents = []
        for docid in range(num_docs):
            topic = topics[self._random.randrange(len(topics))]
            pool = TOPICS[topic]
            words = []
            for _ in range(words_per_doc):
                if self._random.random() < 0.7:
                    # Zipf-ish: low ranks of the topic pool dominate.
                    rank = min(
                        int(self._random.paretovariate(1.2)) - 1, len(pool) - 1
                    )
                    words.append(pool[rank])
                else:
                    words.append(
                        _COMMON[self._random.randrange(len(_COMMON))]
                    )
            documents.append(Document(docid, topic, " ".join(words)))
        return documents
