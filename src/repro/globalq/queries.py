"""Global aggregate queries over a population of PDSs.

The query class of [TNP14] as presented in the tutorial: SQL aggregates —
``COUNT``/``SUM``/``AVG``, optional ``GROUP BY``, conjunctive equality
``WHERE`` — evaluated over the union of every citizen's records. The WHERE
clause is always applied *locally by each PDS* (only authorized, filtered
contributions ever leave a token), so what a protocol moves around is a bag
of ``(group, value)`` contributions — the real ones
(:func:`local_contributions`) and, under the noise-based family, the fake
ones a :class:`NoisePlan` adds (:func:`plan_fakes`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ProtocolError, QueryError
from repro.net.messages import Accumulator
from repro.workloads.people import PersonRecord

AGGREGATES = ("COUNT", "SUM", "AVG")

#: Group key used when a query has no GROUP BY.
GLOBAL_GROUP = "*"


@dataclass(frozen=True)
class AggregateQuery:
    """One global aggregate query."""

    aggregate: str
    attribute: str | None = None
    group_by: str | None = None
    where: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.aggregate not in AGGREGATES:
            raise QueryError(
                f"unsupported aggregate {self.aggregate!r}; "
                f"expected one of {AGGREGATES}"
            )
        if self.aggregate in ("SUM", "AVG") and self.attribute is None:
            raise QueryError(f"{self.aggregate} needs an attribute")

    @classmethod
    def count(cls, group_by=None, where=()) -> "AggregateQuery":
        return cls("COUNT", None, group_by, tuple(where))

    @classmethod
    def sum(cls, attribute, group_by=None, where=()) -> "AggregateQuery":
        return cls("SUM", attribute, group_by, tuple(where))

    @classmethod
    def avg(cls, attribute, group_by=None, where=()) -> "AggregateQuery":
        return cls("AVG", attribute, group_by, tuple(where))


#: Comparison operators usable in 3-element WHERE conditions.
OPERATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _condition_holds(record: PersonRecord, condition: tuple) -> bool:
    """One WHERE condition: ``(attr, value)`` or ``(attr, op, value)``."""
    if len(condition) == 2:
        attribute, value = condition
        return record.get(attribute) == value
    if len(condition) == 3:
        attribute, op, value = condition
        comparator = OPERATORS.get(op)
        if comparator is None:
            raise QueryError(
                f"unknown operator {op!r}; expected one of {sorted(OPERATORS)}"
            )
        actual = record.get(attribute)
        if actual is None:
            return False
        try:
            return comparator(actual, value)
        except TypeError:
            return False  # incomparable types never match
    raise QueryError(f"malformed WHERE condition {condition!r}")


def record_matches(record: PersonRecord, query: AggregateQuery) -> bool:
    """Local WHERE evaluation (inside the PDS)."""
    for condition in query.where:
        if not _condition_holds(record, condition):
            return False
    if query.attribute is not None and query.attribute not in record:
        return False
    if query.group_by is not None and query.group_by not in record:
        return False
    return True


def local_contributions(
    records: list[PersonRecord], query: AggregateQuery
) -> list[tuple[str, float]]:
    """The ``(group, value)`` tuples one PDS contributes to the query."""
    contributions = []
    for record in records:
        if not record_matches(record, query):
            continue
        group = (
            str(record[query.group_by]) if query.group_by else GLOBAL_GROUP
        )
        if query.aggregate == "COUNT":
            value = 1.0
        else:
            value = float(record[query.attribute])
        contributions.append((group, value))
    return contributions


#: Fake-tuple modes of a :class:`NoisePlan` (see :mod:`repro.globalq.noise`).
WHITE_NOISE = "white"
COMPLEMENTARY_NOISE = "complementary"
NO_NOISE = "none"


@dataclass(frozen=True)
class NoisePlan:
    """How much fake traffic each PDS adds, and how it picks fake groups."""

    mode: str = NO_NOISE
    ratio: float = 0.0  # fake tuples per real tuple
    domain: tuple[str, ...] = ()  # public group domain fakes draw from

    def __post_init__(self) -> None:
        if self.mode not in (NO_NOISE, WHITE_NOISE, COMPLEMENTARY_NOISE):
            raise ProtocolError(f"unknown noise mode {self.mode!r}")
        if self.mode != NO_NOISE and self.ratio > 0 and not self.domain:
            raise ProtocolError("noise needs a public group domain")


def plan_fakes(
    real: list[tuple[str, float]],
    plan: NoisePlan,
    rng: random.Random,
) -> list[tuple[str, float]]:
    """The fake ``(group, value)`` tuples one PDS will inject."""
    if plan.mode == NO_NOISE or plan.ratio <= 0 or not real:
        return []
    count = int(len(real) * plan.ratio + rng.random())  # stochastic rounding
    own_groups = {group for group, _ in real}
    if plan.mode == COMPLEMENTARY_NOISE:
        pool = [g for g in plan.domain if g not in own_groups] or list(plan.domain)
    else:
        pool = list(plan.domain)
    return [
        (pool[rng.randrange(len(pool))], 0.0) for _ in range(count)
    ]


def plaintext_answer(
    population: list[list[PersonRecord]], query: AggregateQuery
) -> dict[str, float]:
    """Reference evaluation with full visibility (ground truth for tests)."""
    accumulator = Accumulator()
    for records in population:
        for group, value in local_contributions(records, query):
            accumulator.add(group, value)
    return accumulator.finalize(query)
