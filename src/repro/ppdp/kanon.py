"""k-anonymity and l-diversity, centrally and through the token protocols.

Anonymous data publishing is one of the global functionalities the PDS
architecture must provide ([ANP13]'s MetaP, summarized in Part III's
conclusion). Two implementations whose *equality* is the key test:

* :func:`anonymize_centralized` — the classical trusted-curator algorithm:
  walk the generalization lattice from precise to general, pick the least
  general level vector making every equivalence class of size >= k
  (suppressing nothing), then publish generalized records.
* :func:`anonymize_with_tokens` — no curator ever sees microdata: the QI
  histogram needed by the lattice search is computed by the Part III
  secure-aggregation protocol (COUNT GROUP BY over encrypted
  contributions); only the chosen generalization levels are broadcast back,
  and each PDS publishes its own generalized records through the
  anonymizing collection channel.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.globalq.queries import AggregateQuery
from repro.globalq.secureagg import SecureAggregationProtocol
from repro.globalq.tokens import PdsNode, TokenFleet
from repro.ppdp.generalize import (
    QuasiIdentifier,
    generalize_record,
    lattice_levels,
)
from repro.workloads.people import PersonRecord

#: Attribute injected into protocol records to carry the QI signature.
_QI_ATTR = "__qi__"


@dataclass
class AnonymizationResult:
    """A published anonymous table plus how it was obtained."""

    levels: tuple[int, ...]
    records: list[tuple]  # (qi_signature..., sensitive_value)
    equivalence_classes: dict[tuple, int]
    suppressed: int

    def k_of(self) -> int:
        """The k actually achieved (min class size; inf if empty)."""
        if not self.equivalence_classes:
            return 0
        return min(self.equivalence_classes.values())


def equivalence_classes(
    records: list[PersonRecord],
    quasi_identifiers: list[QuasiIdentifier],
    levels: tuple[int, ...],
) -> Counter:
    """Class sizes of the generalized table."""
    classes: Counter = Counter()
    for record in records:
        classes[generalize_record(record, quasi_identifiers, levels)] += 1
    return classes


def is_k_anonymous(classes: Counter, k: int) -> bool:
    return bool(classes) and min(classes.values()) >= k


def l_diversity(
    records: list[PersonRecord],
    quasi_identifiers: list[QuasiIdentifier],
    levels: tuple[int, ...],
    sensitive: str,
) -> int:
    """Min number of distinct sensitive values over all classes."""
    per_class: dict[tuple, set] = {}
    for record in records:
        signature = generalize_record(record, quasi_identifiers, levels)
        per_class.setdefault(signature, set()).add(record[sensitive])
    if not per_class:
        return 0
    return min(len(values) for values in per_class.values())


def _search_lattice(classes_at, quasi_identifiers, k, extra_check=None):
    """First (least general) level vector achieving k-anonymity.

    ``extra_check(levels)`` may impose additional predicates (l-diversity);
    a vector must satisfy both to be selected.
    """
    for levels in lattice_levels(quasi_identifiers):
        classes = classes_at(levels)
        if is_k_anonymous(classes, k) and (
            extra_check is None or extra_check(levels)
        ):
            return levels, classes
    raise ProtocolError(
        f"no generalization achieves {k}-anonymity (population too small?)"
    )


def anonymize_centralized(
    records: list[PersonRecord],
    quasi_identifiers: list[QuasiIdentifier],
    sensitive: str,
    k: int,
    l: int | None = None,
) -> AnonymizationResult:
    """Trusted-curator baseline (ground truth for the distributed version).

    With ``l`` set, the recoding must additionally be l-diverse: every
    equivalence class carries at least ``l`` distinct sensitive values
    (the homogeneity-attack countermeasure on top of k-anonymity).
    """
    if k < 1:
        raise ProtocolError("k must be >= 1")
    if l is not None and l < 1:
        raise ProtocolError("l must be >= 1")
    extra_check = None
    if l is not None:
        extra_check = (
            lambda levels: l_diversity(
                records, quasi_identifiers, levels, sensitive
            )
            >= l
        )
    levels, classes = _search_lattice(
        lambda lv: equivalence_classes(records, quasi_identifiers, lv),
        quasi_identifiers,
        k,
        extra_check=extra_check,
    )
    published = [
        generalize_record(record, quasi_identifiers, levels)
        + (record[sensitive],)
        for record in records
    ]
    return AnonymizationResult(
        levels=levels,
        records=sorted(published),
        equivalence_classes=dict(classes),
        suppressed=0,
    )


def anonymize_with_tokens(
    nodes: list[PdsNode],
    fleet: TokenFleet,
    quasi_identifiers: list[QuasiIdentifier],
    sensitive: str,
    k: int,
    rng: random.Random | None = None,
) -> AnonymizationResult:
    """MetaP-flavoured distributed anonymization over the PDS population.

    Phase 1 computes, per candidate level vector, the encrypted QI histogram
    with the secure-aggregation protocol (so the publisher sees only class
    *counts*, never raw QIs per person). Phase 2 broadcasts the chosen
    levels; each PDS generalizes locally and the anonymizing channel
    collects the generalized rows (here: pooled and shuffled, as the
    protocol's random partitioning would).
    """
    if k < 1:
        raise ProtocolError("k must be >= 1")
    rng = rng or random.Random(0)

    def classes_at(levels: tuple[int, ...]) -> Counter:
        histogram_nodes = []
        for node in nodes:
            projected = [
                PersonRecord(
                    {
                        _QI_ATTR: "|".join(
                            map(
                                str,
                                generalize_record(
                                    record, quasi_identifiers, levels
                                ),
                            )
                        )
                    }
                )
                for record in node.records
            ]
            histogram_nodes.append(PdsNode(node.pds_id, projected))
        report = SecureAggregationProtocol(fleet, rng=rng).run(
            histogram_nodes, AggregateQuery.count(group_by=_QI_ATTR)
        )
        return Counter(
            {
                tuple(group.split("|")): int(count)
                for group, count in report.result.items()
            }
        )

    levels, classes = _search_lattice(classes_at, quasi_identifiers, k)

    published: list[tuple] = []
    for node in nodes:
        for record in node.records:
            published.append(
                generalize_record(record, quasi_identifiers, levels)
                + (record[sensitive],)
            )
    rng.shuffle(published)  # the anonymizing channel's mixing
    return AnonymizationResult(
        levels=levels,
        records=sorted(published),
        equivalence_classes=dict(classes),
        suppressed=0,
    )
