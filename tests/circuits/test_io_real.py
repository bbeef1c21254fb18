"""Unit tests for the RevLib .real reader/writer."""

from __future__ import annotations

import pytest

import random

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import MCTGate, SwapGate
from repro.circuits.io.real import circuit_to_real, parse_real, read_real, write_real
from repro.circuits.random import random_circuit, random_mct_gate
from repro.exceptions import CircuitError, ParseError

EXAMPLE = """
# toffoli example
.version 2.0
.numvars 3
.variables a b c
.inputs a b c
.outputs a b c
.constants ---
.garbage ---
.begin
t3 a b c
t1 a
t2 -a b
f2 b c
.end
"""


class TestParsing:
    def test_parse_example(self):
        circuit = parse_real(EXAMPLE)
        assert circuit.num_lines == 3
        assert circuit.num_gates == 4
        assert isinstance(circuit.gates[0], MCTGate)
        assert circuit.gates[0].num_controls == 2
        assert isinstance(circuit.gates[3], SwapGate)

    def test_negative_control_parsed(self):
        circuit = parse_real(EXAMPLE)
        gate = circuit.gates[2]
        control = gate.controls[0]
        assert control.line == 0
        assert not control.positive

    def test_variables_inferred_from_numvars(self):
        circuit = parse_real(".numvars 2\n.begin\nt1 x1\n.end\n")
        assert circuit.num_lines == 2

    def test_numvars_inferred_from_variables(self):
        circuit = parse_real(".variables p q r\n.begin\nt1 r\n.end\n")
        assert circuit.num_lines == 3

    def test_missing_headers_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".begin\nt1 a\n.end\n")

    def test_gate_outside_body_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\nt1 x0\n")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\n.variables a\n.begin\nt1 z\n.end\n")

    def test_unknown_gate_type_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 1\n.variables a\n.begin\nq1 a\n.end\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 2\n.variables a b\n.begin\nt3 a b\n.end\n")

    def test_numvars_variables_conflict_rejected(self):
        with pytest.raises(ParseError):
            parse_real(".numvars 3\n.variables a b\n.begin\n.end\n")

    def test_controlled_fredkin_expanded(self):
        circuit = parse_real(
            ".numvars 3\n.variables a b c\n.begin\nf3 a b c\n.end\n"
        )
        # Controlled swap: control a, swap b and c.
        assert circuit.simulate(0b011) == 0b101
        assert circuit.simulate(0b010) == 0b010

    def test_zero_operand_gate_rejected(self):
        with pytest.raises(ParseError, match="line 4: t gates need at least 1"):
            parse_real(".numvars 2\n.variables a b\n.begin\nt0\n.end\n")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParseError, match="line 2: duplicate variable 'a'"):
            parse_real(".numvars 3\n.variables a a b\n.begin\nt1 b\n.end\n")

    @pytest.mark.parametrize(
        ("text", "line"),
        [
            (".numvars 3\n.variables a b c\n.begin\nt2 a a\n.end\n", 4),
            (".numvars 3\n.variables a b c\n.begin\nt3 a -a c\n.end\n", 4),
            (".numvars 3\n.variables a b c\n.begin\nt1 a\nf2 a a\n.end\n", 5),
            (".version 2.0\n.numvars 0\n.begin\n.end\n", 2),
        ],
        ids=["control-on-target", "repeated-control", "swap-same-line", "no-lines"],
    )
    def test_structural_error_carries_line_number(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: ") as caught:
            parse_real(text)
        assert isinstance(caught.value.__cause__, CircuitError)

    def test_controls_shared_per_variable_and_polarity(self):
        circuit = parse_real(
            ".numvars 3\n.variables a b c\n.begin\n"
            "t2 a c\nt3 -a b c\nt2 -a b\nt3 a -b c\n.end\n"
        )
        by_key = {}
        for gate in circuit.gates:
            for control in gate.controls:
                assert by_key.setdefault(
                    (control.line, control.positive), control
                ) is control
        assert len(by_key) == 4

    def test_dash_operand_negates_even_with_dash_named_variable(self):
        circuit = parse_real(".variables a -a b\n.begin\nt2 -a b\n.end\n")
        (control,) = circuit.gates[0].controls
        assert (control.line, control.positive) == (0, False)


def _mixed_circuit(num_lines: int, num_gates: int, rng: random.Random):
    """Random MCT gates with mixed-polarity controls, plus swaps."""
    circuit = ReversibleCircuit(num_lines)
    for _ in range(num_gates):
        if num_lines > 1 and rng.random() < 0.2:
            circuit.append(SwapGate(*rng.sample(range(num_lines), 2)))
        else:
            circuit.append(random_mct_gate(num_lines, rng))
    return circuit


class TestRoundTrip:
    @pytest.mark.parametrize("num_lines", range(1, 25))
    def test_serialise_parse_roundtrip(self, num_lines):
        rng = random.Random(1000 + num_lines)
        for _ in range(3):
            circuit = _mixed_circuit(num_lines, 30, rng)
            restored = parse_real(circuit_to_real(circuit))
            assert restored.num_lines == circuit.num_lines
            assert restored.gates == circuit.gates

    def test_swap_survives_roundtrip(self):
        circuit = ReversibleCircuit(3, [SwapGate(0, 2)])
        restored = parse_real(circuit_to_real(circuit))
        assert restored.gates == circuit.gates

    def test_file_roundtrip(self, tmp_path, rng):
        circuit = random_circuit(4, 10, rng)
        path = tmp_path / "example.real"
        write_real(circuit, path)
        restored = read_real(path)
        assert restored.functionally_equal(circuit)
        assert restored.name == "example"
