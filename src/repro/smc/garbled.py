"""Garbled circuits ([Yao86]) with token-assisted oblivious transfer.

Part III's "SMC Using Tokens" slide: *"use cheap secure hardware to obtain
substantial complexity-class gains with SMC algorithms"* ([JKSS10],
[Katz07]). This module makes that gain measurable:

* a generic **garbled circuit** engine — wire labels, point-and-permute
  garbled tables, PRF-based entry encryption — evaluating any boolean
  circuit with *symmetric* crypto only;
* a **token-assisted OT**: instead of public-key oblivious transfer, a
  tamper-proof token (trusted by both parties, as in the PDS fleet) hands
  the evaluator the label of her choice bit without revealing the bit to
  the garbler or the other label to the evaluator;
* a ripple **comparator circuit**, so the millionaires' problem costs
  O(bits) symmetric operations — against the O(2^bits) RSA decryptions of
  the 1982 protocol benchmarked in E7.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.smc.parties import CryptoOps
from repro.net.metrics import Channel

_LABEL_BYTES = 16

# Gate truth tables: (a, b) -> output bit.
GATE_TABLES = {
    "AND": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "OR": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    "XOR": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    "NAND": {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    "XNOR": {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "ANDNOT": {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0},  # a AND (NOT b)
    "MUX_HELPER": {},  # placeholder to keep table keys explicit
}
del GATE_TABLES["MUX_HELPER"]


@dataclass(frozen=True)
class Gate:
    """One two-input boolean gate: ``out = op(a, b)``."""

    op: str
    input_a: int
    input_b: int
    output: int

    def __post_init__(self) -> None:
        if self.op not in GATE_TABLES:
            raise ProtocolError(f"unknown gate op {self.op!r}")


@dataclass
class Circuit:
    """A boolean circuit over numbered wires.

    ``alice_inputs``/``bob_inputs`` list the wires each party feeds;
    gates must be topologically ordered; ``outputs`` are revealed wires.
    """

    alice_inputs: list[int]
    bob_inputs: list[int]
    gates: list[Gate]
    outputs: list[int]

    def evaluate_plain(self, alice_bits: list[int], bob_bits: list[int]) -> list[int]:
        """Cleartext evaluation (the correctness oracle for tests)."""
        values: dict[int, int] = {}
        values.update(zip(self.alice_inputs, alice_bits))
        values.update(zip(self.bob_inputs, bob_bits))
        for gate in self.gates:
            values[gate.output] = GATE_TABLES[gate.op][
                (values[gate.input_a], values[gate.input_b])
            ]
        return [values[wire] for wire in self.outputs]


def _encrypt_entry(
    label_a: bytes, label_b: bytes, gate_id: int, payload: bytes
) -> bytes:
    pad = hashlib.sha256(
        label_a + label_b + gate_id.to_bytes(4, "little")
    ).digest()[: len(payload)]
    return bytes(x ^ y for x, y in zip(payload, pad))


class GarbledCircuit:
    """The garbler's output: tables + input-label maps."""

    def __init__(
        self,
        circuit: Circuit,
        tables: list[list[bytes]],
        wire_labels: dict[int, tuple[bytes, bytes]],
        output_maps: dict[int, dict[bytes, int]],
    ) -> None:
        self.circuit = circuit
        self.tables = tables
        self.wire_labels = wire_labels  # garbler-private!
        self.output_maps = output_maps

    def size_bytes(self) -> int:
        return sum(
            len(entry) for table in self.tables for entry in table
        )


def garble(circuit: Circuit, rng: random.Random, crypto: CryptoOps) -> GarbledCircuit:
    """Garble ``circuit``: labels with select bits + permuted tables."""
    labels: dict[int, tuple[bytes, bytes]] = {}
    select: dict[int, int] = {}

    def fresh_wire(wire: int) -> None:
        zero = rng.getrandbits(8 * _LABEL_BYTES).to_bytes(_LABEL_BYTES, "little")
        one = rng.getrandbits(8 * _LABEL_BYTES).to_bytes(_LABEL_BYTES, "little")
        labels[wire] = (zero, one)
        select[wire] = rng.randrange(2)  # select bit of the 0-label

    for wire in circuit.alice_inputs + circuit.bob_inputs:
        fresh_wire(wire)

    tables: list[list[bytes]] = []
    for gate_id, gate in enumerate(circuit.gates):
        if gate.output not in labels:
            fresh_wire(gate.output)
        table: list[bytes | None] = [None] * 4
        for bit_a in (0, 1):
            for bit_b in (0, 1):
                out_bit = GATE_TABLES[gate.op][(bit_a, bit_b)]
                label_a = labels[gate.input_a][bit_a]
                label_b = labels[gate.input_b][bit_b]
                out_label = labels[gate.output][out_bit]
                out_select = select[gate.output] ^ out_bit
                payload = out_label + bytes([out_select])
                position = (
                    (select[gate.input_a] ^ bit_a) * 2
                    + (select[gate.input_b] ^ bit_b)
                )
                table[position] = _encrypt_entry(
                    label_a, label_b, gate_id, payload
                )
                crypto.symmetric_ops += 1
        tables.append(list(table))  # type: ignore[arg-type]

    output_maps = {
        wire: {labels[wire][0]: 0, labels[wire][1]: 1}
        for wire in circuit.outputs
    }
    garbled = GarbledCircuit(circuit, tables, labels, output_maps)
    # Attach select bits for input-label handout and evaluation.
    garbled._select = select  # type: ignore[attr-defined]
    return garbled


def evaluate(
    garbled: GarbledCircuit,
    input_labels: dict[int, tuple[bytes, int]],
    crypto: CryptoOps,
) -> dict[int, int]:
    """Evaluate with one ``(label, select_bit)`` per input wire."""
    current: dict[int, tuple[bytes, int]] = dict(input_labels)
    for gate_id, gate in enumerate(garbled.circuit.gates):
        label_a, select_a = current[gate.input_a]
        label_b, select_b = current[gate.input_b]
        entry = garbled.tables[gate_id][select_a * 2 + select_b]
        payload = _encrypt_entry(label_a, label_b, gate_id, entry)
        crypto.symmetric_ops += 1
        current[gate.output] = (
            payload[:_LABEL_BYTES],
            payload[_LABEL_BYTES],
        )
    results: dict[int, int] = {}
    for wire in garbled.circuit.outputs:
        label, _ = current[wire]
        mapping = garbled.output_maps[wire]
        if label not in mapping:
            raise ProtocolError(f"unmapped output label on wire {wire}")
        results[wire] = mapping[label]
    return results


class TokenAssistedOT:
    """Oblivious transfer through a tamper-proof token ([Katz07]-style).

    The garbler loads both labels of a wire into the token; the evaluator
    submits her choice bit; the token returns exactly one label. Neither
    party learns the other's secret, and the cost is symmetric-only — the
    tutorial's point about hardware changing the complexity class.
    """

    def __init__(self, channel: Channel, crypto: CryptoOps) -> None:
        self.channel = channel
        self.crypto = crypto
        self.transfers = 0

    def transfer(
        self,
        wire: int,
        label_zero: bytes,
        label_one: bytes,
        choice: int,
        select_zero: int,
    ) -> tuple[bytes, int]:
        if choice not in (0, 1):
            raise ProtocolError("choice bit must be 0 or 1")
        self.channel.send("garbler", "token", label_zero + label_one)
        self.channel.send("evaluator", "token", choice)
        chosen = label_one if choice else label_zero
        self.channel.send("token", "evaluator", chosen)
        self.crypto.symmetric_ops += 1  # token-side authenticated handling
        self.transfers += 1
        return chosen, select_zero ^ choice


# ----------------------------------------------------------------------
# The comparator circuit: a >= b over n-bit integers.
# ----------------------------------------------------------------------
def comparator_circuit(bits: int) -> Circuit:
    """Build the ripple comparator: output 1 iff ``a >= b``.

    Processing from most-significant bit down, two running wires::

        eq_run_i = eq_run_{i-1} AND (a_i XNOR b_i)     # still tied
        gt_acc_i = gt_acc_{i-1} OR (eq_run_{i-1} AND (a_i AND NOT b_i))

    (a strictly-greater bit only counts while the prefix is tied; once a
    strictly-less prefix exists, ``eq_run`` is 0 and nothing can flip the
    outcome). Final output: ``gt_acc OR eq_run``.
    """
    if bits < 1:
        raise ProtocolError("comparator needs at least one bit")
    alice = list(range(bits))  # a, most significant first
    bob = list(range(bits, 2 * bits))
    next_wire = 2 * bits
    gates: list[Gate] = []

    def new_wire() -> int:
        nonlocal next_wire
        next_wire += 1
        return next_wire - 1

    # Top bit seeds the running wires directly.
    gt_acc = new_wire()
    gates.append(Gate("ANDNOT", alice[0], bob[0], gt_acc))
    eq_run = new_wire()
    gates.append(Gate("XNOR", alice[0], bob[0], eq_run))

    for position in range(1, bits):
        gt_here = new_wire()
        gates.append(Gate("ANDNOT", alice[position], bob[position], gt_here))
        eq_here = new_wire()
        gates.append(Gate("XNOR", alice[position], bob[position], eq_here))
        gt_while_tied = new_wire()
        gates.append(Gate("AND", eq_run, gt_here, gt_while_tied))
        new_gt_acc = new_wire()
        gates.append(Gate("OR", gt_acc, gt_while_tied, new_gt_acc))
        gt_acc = new_gt_acc
        new_eq_run = new_wire()
        gates.append(Gate("AND", eq_run, eq_here, new_eq_run))
        eq_run = new_eq_run

    ge = new_wire()
    gates.append(Gate("OR", gt_acc, eq_run, ge))
    return Circuit(alice_inputs=alice, bob_inputs=bob, gates=gates, outputs=[ge])


def _to_bits(value: int, bits: int) -> list[int]:
    return [(value >> (bits - 1 - i)) & 1 for i in range(bits)]


@dataclass
class GarbledComparisonResult:
    """Outcome of one garbled-circuit millionaires run."""

    alice_at_least_bob: bool
    gates: int
    crypto: CryptoOps
    table_bytes: int
    ot_transfers: int


def garbled_millionaires(
    alice_value: int,
    bob_value: int,
    bits: int,
    channel: Channel,
    rng: random.Random,
) -> GarbledComparisonResult:
    """The millionaires' problem in O(bits) symmetric work ([Yao86]).

    Alice garbles the comparator and sends tables + her input labels; Bob
    obtains his labels through the token-assisted OT and evaluates.
    """
    limit = 1 << bits
    if not (0 <= alice_value < limit and 0 <= bob_value < limit):
        raise ProtocolError(f"values must fit in {bits} bits")
    crypto = CryptoOps()
    circuit = comparator_circuit(bits)
    garbled = garble(circuit, rng, crypto)
    select = garbled._select  # type: ignore[attr-defined]

    channel.send(
        "garbler", "evaluator",
        b"".join(entry for table in garbled.tables for entry in table),
    )

    inputs: dict[int, tuple[bytes, int]] = {}
    for wire, bit in zip(circuit.alice_inputs, _to_bits(alice_value, bits)):
        label = garbled.wire_labels[wire][bit]
        channel.send("garbler", "evaluator", label)
        inputs[wire] = (label, select[wire] ^ bit)

    ot = TokenAssistedOT(channel, crypto)
    for wire, bit in zip(circuit.bob_inputs, _to_bits(bob_value, bits)):
        zero, one = garbled.wire_labels[wire]
        inputs[wire] = ot.transfer(wire, zero, one, bit, select[wire])

    outputs = evaluate(garbled, inputs, crypto)
    result = bool(outputs[circuit.outputs[0]])
    channel.send("evaluator", "garbler", result)
    return GarbledComparisonResult(
        alice_at_least_bob=result,
        gates=len(circuit.gates),
        crypto=crypto,
        table_bytes=garbled.size_bytes(),
        ot_transfers=ot.transfers,
    )
