"""Secure multi-party computation toolkit (Part III's 'current solutions').

The [CKV+02] data-mining primitives (secure sum, set union, intersection
size, scalar product), Yao's millionaires' protocol, and the count of cryptographic operations
they report next to the traffic of their :class:`repro.net.metrics.Channel`.
"""

from repro.smc.association import (
    MiningReport,
    Rule,
    mine_centralized,
    mine_distributed,
)
from repro.smc.garbled import (
    Circuit,
    Gate,
    GarbledComparisonResult,
    TokenAssistedOT,
    comparator_circuit,
    evaluate,
    garble,
    garbled_millionaires,
)
from repro.smc.millionaire import MillionaireResult, millionaires
from repro.smc.parties import CryptoOps
from repro.smc.secure_sum import (
    SumResult,
    collude_against_site,
    paillier_secure_sum,
    ring_secure_sum,
)
from repro.smc.set_ops import (
    CommutativeKey,
    SetResult,
    make_commutative_keys,
    secure_intersection_size,
    secure_scalar_product,
    secure_set_union,
)

__all__ = [
    "Circuit",
    "GarbledComparisonResult",
    "Gate",
    "MiningReport",
    "Rule",
    "TokenAssistedOT",
    "comparator_circuit",
    "evaluate",
    "garble",
    "garbled_millionaires",
    "mine_centralized",
    "mine_distributed",
    "CommutativeKey",
    "CryptoOps",
    "MillionaireResult",
    "SetResult",
    "SumResult",
    "collude_against_site",
    "make_commutative_keys",
    "millionaires",
    "paillier_secure_sum",
    "ring_secure_sum",
    "secure_intersection_size",
    "secure_scalar_product",
    "secure_set_union",
]
