"""Unit tests for the quantum oracle wrapper."""

from __future__ import annotations

import pytest

from repro.circuits.library import figure2_example
from repro.circuits.random import random_circuit, random_permutation
from repro.exceptions import OracleError, QueryBudgetExceededError
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.statevector import PLUS, ZERO, basis_state, product_state


class TestQuantumCircuitOracle:
    def test_wraps_circuit_and_counts_queries(self):
        oracle = QuantumCircuitOracle(figure2_example())
        assert oracle.num_qubits == 3
        state = oracle.query_state(basis_state(0b011, 3))
        assert state.vector[0b111] == pytest.approx(1.0)
        assert oracle.query_count == 1

    def test_wraps_permutation(self, rng):
        permutation = random_permutation(3, rng)
        oracle = QuantumCircuitOracle(permutation)
        state = oracle.query_state(basis_state(5, 3))
        assert state.vector[permutation(5)] == pytest.approx(1.0)

    def test_rejects_other_types(self):
        with pytest.raises(OracleError):
            QuantumCircuitOracle(lambda x: x)

    def test_dimension_mismatch_rejected(self):
        oracle = QuantumCircuitOracle(figure2_example())
        with pytest.raises(OracleError):
            oracle.query_state(basis_state(0, 2))

    @pytest.mark.parametrize("budget", [0, 1, 2, 5])
    def test_query_budget_enforced(self, budget):
        oracle = QuantumCircuitOracle(figure2_example(), max_queries=budget)
        probe = product_state([PLUS, ZERO, PLUS])
        for _ in range(budget):
            oracle.query_state(probe)
        with pytest.raises(QueryBudgetExceededError):
            oracle.query_state(probe)
        assert oracle.query_count == budget

    def test_query_basis_counts_and_matches_classical(self, rng):
        circuit = random_circuit(4, 15, rng)
        oracle = QuantumCircuitOracle(circuit)
        assert oracle.query_basis(9) == circuit.simulate(9)
        assert oracle.query_count == 1

    def test_reset_counts(self):
        oracle = QuantumCircuitOracle(figure2_example())
        oracle.query_basis(0)
        oracle.reset_counts()
        assert oracle.query_count == 0

    def test_superposition_input_preserved_structure(self):
        # The Toffoli fixes |+>|+>|0> up to amplitude reshuffling on basis
        # states where both controls are 1.
        oracle = QuantumCircuitOracle(figure2_example())
        state = oracle.query_state(product_state([PLUS, PLUS, ZERO]))
        # Amplitude moved from |011> to |111>.
        assert state.vector[0b011] == pytest.approx(0.0)
        assert abs(state.vector[0b111]) == pytest.approx(0.5)
