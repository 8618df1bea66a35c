"""Tests for garbled circuits, token-assisted OT and the comparator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net.metrics import Channel
from repro.smc.garbled import (
    Circuit,
    Gate,
    comparator_circuit,
    evaluate,
    garble,
    garbled_millionaires,
)
from repro.smc.parties import CryptoOps


def and_circuit() -> Circuit:
    return Circuit(
        alice_inputs=[0], bob_inputs=[1],
        gates=[Gate("AND", 0, 1, 2)], outputs=[2],
    )


def run_garbled(circuit: Circuit, alice_bits, bob_bits, seed=0) -> list[int]:
    """Garble + evaluate helper (both sides in-process)."""
    crypto = CryptoOps()
    garbled = garble(circuit, random.Random(seed), crypto)
    select = garbled._select
    inputs = {}
    for wire, bit in zip(circuit.alice_inputs, alice_bits):
        inputs[wire] = (garbled.wire_labels[wire][bit], select[wire] ^ bit)
    for wire, bit in zip(circuit.bob_inputs, bob_bits):
        inputs[wire] = (garbled.wire_labels[wire][bit], select[wire] ^ bit)
    outputs = evaluate(garbled, inputs, crypto)
    return [outputs[wire] for wire in circuit.outputs]


class TestGates:
    def test_unknown_gate_rejected(self):
        with pytest.raises(ProtocolError, match="unknown gate"):
            Gate("NOR", 0, 1, 2)

    @pytest.mark.parametrize("op", ["AND", "OR", "XOR", "NAND", "XNOR", "ANDNOT"])
    def test_single_gate_truth_tables(self, op):
        circuit = Circuit(
            alice_inputs=[0], bob_inputs=[1],
            gates=[Gate(op, 0, 1, 2)], outputs=[2],
        )
        for a in (0, 1):
            for b in (0, 1):
                garbled_out = run_garbled(circuit, [a], [b], seed=a * 2 + b)
                assert garbled_out == circuit.evaluate_plain([a], [b])


class TestMultiGateCircuits:
    def test_chained_gates(self):
        # out = (a AND b) XOR a2
        circuit = Circuit(
            alice_inputs=[0, 1], bob_inputs=[2],
            gates=[Gate("AND", 0, 2, 3), Gate("XOR", 3, 1, 4)],
            outputs=[4],
        )
        for a0 in (0, 1):
            for a1 in (0, 1):
                for b in (0, 1):
                    assert run_garbled(circuit, [a0, a1], [b]) == (
                        circuit.evaluate_plain([a0, a1], [b])
                    )

    def test_garbling_randomized_but_result_stable(self):
        circuit = and_circuit()
        for seed in range(5):
            assert run_garbled(circuit, [1], [1], seed=seed) == [1]


class TestComparatorCircuit:
    def test_gate_count_linear_in_bits(self):
        small = comparator_circuit(4)
        large = comparator_circuit(8)
        assert len(large.gates) == len(small.gates) + 4 * 5

    def test_plain_evaluation_exhaustive_4bit(self):
        circuit = comparator_circuit(4)
        for a in range(16):
            for b in range(16):
                a_bits = [(a >> (3 - i)) & 1 for i in range(4)]
                b_bits = [(b >> (3 - i)) & 1 for i in range(4)]
                assert circuit.evaluate_plain(a_bits, b_bits) == [int(a >= b)]

    def test_zero_bits_rejected(self):
        with pytest.raises(ProtocolError):
            comparator_circuit(0)


class TestGarbledMillionaires:
    @pytest.mark.parametrize(
        "alice,bob,expected",
        [(9, 4, True), (4, 9, False), (7, 7, True), (0, 15, False), (15, 0, True)],
    )
    def test_comparisons(self, alice, bob, expected):
        result = garbled_millionaires(
            alice, bob, bits=4, channel=Channel(), rng=random.Random(alice * 16 + bob)
        )
        assert result.alice_at_least_bob is expected

    def test_cost_linear_not_exponential(self):
        """The token-assisted complexity-class gain of the slide."""
        costs = {}
        for bits in (4, 8, 16):
            result = garbled_millionaires(
                2**bits - 1, 2 ** (bits - 1), bits, Channel(), random.Random(1)
            )
            costs[bits] = result.crypto.symmetric_ops
            assert result.crypto.modexps == 0  # symmetric only!
            assert result.ot_transfers == bits
        # Doubling the bits roughly doubles (not squares) the work.
        assert costs[8] < costs[4] * 3
        assert costs[16] < costs[8] * 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ProtocolError):
            garbled_millionaires(16, 3, bits=4, channel=Channel(), rng=random.Random(0))

    def test_ot_choice_validated(self):
        from repro.smc.garbled import TokenAssistedOT

        ot = TokenAssistedOT(Channel(), CryptoOps())
        with pytest.raises(ProtocolError):
            ot.transfer(0, b"a" * 16, b"b" * 16, 2, 0)

    @given(
        st.integers(0, 255), st.integers(0, 255), st.integers(),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_comparison(self, alice, bob, seed):
        result = garbled_millionaires(
            alice, bob, bits=8, channel=Channel(), rng=random.Random(seed)
        )
        assert result.alice_at_least_bob == (alice >= bob)
