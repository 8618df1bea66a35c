"""Cryptographic-operation accounting of the SMC protocols.

Part III compares protocol families by what they *cost*: messages exchanged,
bytes moved, modular exponentiations performed. Traffic is counted by the
:class:`~repro.net.metrics.Channel` every protocol routes its messages
through; :class:`CryptoOps` counts the expensive operations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CryptoOps:
    """Counts of expensive cryptographic operations in one protocol run."""

    modexps: int = 0
    symmetric_ops: int = 0

    def __add__(self, other: "CryptoOps") -> "CryptoOps":
        return CryptoOps(
            modexps=self.modexps + other.modexps,
            symmetric_ops=self.symmetric_ops + other.symmetric_ops,
        )
