"""Unit tests for repro.circuits.gates."""

from __future__ import annotations

import pytest

from repro.circuits.gates import (
    Control,
    MCTGate,
    SwapGate,
    cnot,
    fredkin,
    mct,
    not_gate,
    toffoli,
)
from repro.exceptions import GateError


class TestControl:
    def test_positive_control_fires_on_one(self):
        control = Control(2, positive=True)
        assert control.is_satisfied_by(0b100)
        assert not control.is_satisfied_by(0b011)

    def test_negative_control_fires_on_zero(self):
        control = Control(1, positive=False)
        assert control.is_satisfied_by(0b000)
        assert not control.is_satisfied_by(0b010)

    def test_negated_flips_polarity(self):
        control = Control(0, positive=True)
        assert control.negated() == Control(0, positive=False)

    def test_negative_line_rejected(self):
        with pytest.raises(GateError):
            Control(-1)


class TestMCTGate:
    def test_not_gate_always_flips_target(self):
        gate = not_gate(1)
        assert gate.apply(0b000) == 0b010
        assert gate.apply(0b010) == 0b000

    def test_cnot_flips_only_when_control_set(self):
        gate = cnot(0, 2)
        assert gate.apply(0b001) == 0b101
        assert gate.apply(0b000) == 0b000

    def test_negative_cnot_flips_when_control_clear(self):
        gate = cnot(0, 2, positive=False)
        assert gate.apply(0b000) == 0b100
        assert gate.apply(0b001) == 0b001

    def test_toffoli_requires_both_controls(self):
        gate = toffoli(0, 1, 2)
        assert gate.apply(0b011) == 0b111
        assert gate.apply(0b001) == 0b001
        assert gate.apply(0b010) == 0b010

    def test_mixed_polarity_mct(self):
        gate = mct([0, 1, 2], 3, polarities=[True, False, True])
        # Fires when line0=1, line1=0, line2=1.
        assert gate.apply(0b0101) == 0b1101
        assert gate.apply(0b0111) == 0b0111

    def test_gate_is_involution(self):
        gate = mct([0, 2], 1, polarities=[True, False])
        for value in range(8):
            assert gate.apply(gate.apply(value)) == value

    def test_inverse_is_self(self):
        gate = toffoli(0, 1, 2)
        assert gate.inverse() is gate

    def test_target_overlapping_control_rejected(self):
        with pytest.raises(GateError):
            MCTGate((Control(1),), 1)

    def test_duplicate_control_rejected(self):
        with pytest.raises(GateError):
            MCTGate((Control(0), Control(0, positive=False)), 1)

    def test_controls_are_order_normalised(self):
        gate_a = MCTGate((Control(2), Control(0)), 1)
        gate_b = MCTGate((Control(0), Control(2)), 1)
        assert gate_a == gate_b
        assert hash(gate_a) == hash(gate_b)

    def test_lines_and_max_line(self):
        gate = mct([0, 3], 5)
        assert gate.lines == frozenset({0, 3, 5})
        assert gate.max_line == 5

    def test_max_line_and_sorted_controls_for_shuffled_inputs(self, rng):
        for _ in range(200):
            num_lines = rng.randint(1, 12)
            lines = rng.sample(range(num_lines), rng.randint(1, num_lines))
            target, control_lines = lines[0], lines[1:]
            controls = [
                Control(line, bool(rng.getrandbits(1))) for line in control_lines
            ]
            rng.shuffle(controls)
            gate = MCTGate(tuple(controls), target)
            assert gate.max_line == max(gate.lines)
            assert gate.controls == tuple(sorted(controls))

    def test_remapped(self):
        gate = toffoli(0, 1, 2)
        remapped = gate.remapped([2, 1, 0])
        assert remapped.target == 0
        assert remapped.control_lines == (1, 2)

    def test_with_polarity_flipped(self):
        gate = toffoli(0, 1, 2)
        flipped = gate.with_polarity_flipped(0)
        polarities = {control.line: control.positive for control in flipped.controls}
        assert polarities == {0: False, 1: True}

    def test_with_polarity_flipped_missing_line(self):
        with pytest.raises(GateError):
            toffoli(0, 1, 2).with_polarity_flipped(3)

    def test_polarity_count_mismatch_rejected(self):
        with pytest.raises(GateError):
            mct([0, 1], 2, polarities=[True])

    def test_str_forms(self):
        assert "NOT" in str(not_gate(0))
        assert "MCT" in str(toffoli(0, 1, 2))


class TestSwapGate:
    def test_swap_exchanges_bits(self):
        gate = SwapGate(0, 2)
        assert gate.apply(0b001) == 0b100
        assert gate.apply(0b100) == 0b001
        assert gate.apply(0b101) == 0b101

    def test_swap_is_symmetric_value(self):
        assert SwapGate(3, 1) == SwapGate(1, 3)

    def test_swap_same_line_rejected(self):
        with pytest.raises(GateError):
            SwapGate(2, 2)

    def test_swap_to_cnots_equivalent(self):
        gate = SwapGate(0, 1)
        for value in range(4):
            expected = gate.apply(value)
            result = value
            for cnot_gate in gate.to_cnots():
                result = cnot_gate.apply(result)
            assert result == expected

    def test_swap_remapped(self):
        gate = SwapGate(0, 1)
        assert gate.remapped([2, 0, 1]) == SwapGate(0, 2)


class TestFredkin:
    def test_fredkin_swaps_only_when_control_set(self):
        gates = fredkin(0, 1, 2)

        def run(value: int) -> int:
            for gate in gates:
                value = gate.apply(value)
            return value

        # Control clear: targets unchanged.
        assert run(0b010) == 0b010
        assert run(0b100) == 0b100
        # Control set: lines 1 and 2 swap.
        assert run(0b011) == 0b101
        assert run(0b101) == 0b011
        assert run(0b111) == 0b111
