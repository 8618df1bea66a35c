"""Privacy-preserving association-rule mining ([CKV+02]'s application).

The toolkit slide says the four primitives *"can compute association
rules"* over horizontally partitioned data. This module does it: a
distributed Apriori where each site holds its own transactions and global
itemset supports are computed with the **masked-ring secure sum** — no site
ever reveals its local counts, yet the mined rules equal the centralized
run on the pooled data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from repro.net.metrics import Channel
from repro.smc.secure_sum import ring_secure_sum


@dataclass(frozen=True)
class Rule:
    """``antecedent -> consequent`` with its global quality measures."""

    antecedent: frozenset
    consequent: frozenset
    support: float
    confidence: float

    def key(self) -> tuple:
        return (tuple(sorted(self.antecedent)), tuple(sorted(self.consequent)))


def _local_count(transactions: list[set], itemset: frozenset) -> int:
    return sum(1 for transaction in transactions if itemset <= transaction)


def _apriori_supports(
    count_itemset,
    items: set,
    total_transactions: int,
    min_support: float,
) -> dict[frozenset, float]:
    """Level-wise Apriori driven by an abstract counting oracle."""
    threshold = min_support * total_transactions
    supports: dict[frozenset, float] = {}
    frequent = []
    for item in sorted(items):
        candidate = frozenset([item])
        count = count_itemset(candidate)
        if count >= threshold:
            supports[candidate] = count / total_transactions
            frequent.append(candidate)

    size = 2
    while frequent:
        candidates = set()
        for first, second in combinations(frequent, 2):
            union = first | second
            if len(union) == size and all(
                frozenset(subset) in supports
                for subset in combinations(union, size - 1)
            ):
                candidates.add(union)
        next_frequent = []
        for candidate in sorted(candidates, key=sorted):
            count = count_itemset(candidate)
            if count >= threshold:
                supports[candidate] = count / total_transactions
                next_frequent.append(candidate)
        frequent = next_frequent
        size += 1
    return supports


def _rules_from_supports(
    supports: dict[frozenset, float], min_confidence: float
) -> list[Rule]:
    rules = []
    for itemset, support in supports.items():
        if len(itemset) < 2:
            continue
        for size in range(1, len(itemset)):
            for antecedent_items in combinations(sorted(itemset), size):
                antecedent = frozenset(antecedent_items)
                confidence = support / supports[antecedent]
                if confidence >= min_confidence:
                    rules.append(
                        Rule(
                            antecedent=antecedent,
                            consequent=itemset - antecedent,
                            support=support,
                            confidence=confidence,
                        )
                    )
    return sorted(rules, key=Rule.key)


def mine_centralized(
    transactions: list[set],
    min_support: float,
    min_confidence: float,
) -> list[Rule]:
    """Apriori over pooled cleartext data (the correctness oracle)."""
    items = set().union(*transactions) if transactions else set()
    supports = _apriori_supports(
        lambda itemset: _local_count(transactions, itemset),
        items,
        len(transactions),
        min_support,
    )
    return _rules_from_supports(supports, min_confidence)


@dataclass
class MiningReport:
    """Rules plus protocol cost."""

    rules: list[Rule]
    secure_sums: int
    comm_messages: int
    comm_bytes: int


def mine_distributed(
    site_transactions: list[list[set]],
    min_support: float,
    min_confidence: float,
    channel: Channel,
    rng: random.Random,
) -> MiningReport:
    """Distributed Apriori: one secure sum per candidate itemset.

    Sites learn global supports of candidates (which is the protocol's
    declared output) and nothing about each other's local counts — every
    count crosses the wire inside a masked ring sum.
    """
    if len(site_transactions) < 2:
        raise ValueError("distributed mining needs at least two sites")
    total = sum(len(transactions) for transactions in site_transactions)
    items = set()
    for transactions in site_transactions:
        for transaction in transactions:
            items.update(transaction)

    sums = 0

    def secure_count(itemset: frozenset) -> int:
        nonlocal sums
        sums += 1
        locals_ = [
            _local_count(transactions, itemset)
            for transactions in site_transactions
        ]
        return ring_secure_sum(locals_, channel, rng).total

    supports = _apriori_supports(secure_count, items, total, min_support)
    rules = _rules_from_supports(supports, min_confidence)
    return MiningReport(
        rules=rules,
        secure_sums=sums,
        comm_messages=channel.stats.messages,
        comm_bytes=channel.stats.bytes,
    )
