"""Unit tests for the state-vector substrate."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.exceptions import QuantumError
from repro.quantum.statevector import (
    MINUS,
    ONE,
    PLUS,
    ZERO,
    Statevector,
    basis_state,
    product_state,
)


class TestConstruction:
    def test_basis_state_amplitudes(self):
        state = basis_state(0b10, 2)
        assert state.vector[2] == 1.0
        assert np.count_nonzero(state.vector) == 1

    def test_basis_state_out_of_range(self):
        with pytest.raises(QuantumError):
            basis_state(4, 2)

    def test_unnormalised_rejected(self):
        with pytest.raises(QuantumError):
            Statevector([1.0, 1.0])

    def test_bad_length_rejected(self):
        with pytest.raises(QuantumError):
            Statevector([1.0, 0.0, 0.0])

    def test_product_state_plus(self):
        state = product_state([PLUS, PLUS])
        assert np.allclose(state.vector, np.full(4, 0.5))

    def test_product_state_minus_signs(self):
        state = product_state([MINUS])
        assert np.allclose(state.vector, [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_product_state_mixed_labels(self):
        state = product_state([ZERO, ONE])
        # qubit0 = |0>, qubit1 = |1> -> basis index 0b10.
        assert state.vector[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_product_state_equals_kronecker_construction(self, num_qubits):
        single = {
            ZERO: np.array([1.0, 0.0], dtype=complex),
            ONE: np.array([0.0, 1.0], dtype=complex),
            PLUS: np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
            MINUS: np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
        }
        rng = random.Random(num_qubits)
        for _ in range(5):
            labels = [rng.choice("01+-") for _ in range(num_qubits)]
            # Reference: qubit i's factor enters as the outer Kronecker
            # factor, so it lands on bit i of the amplitude index.
            reference = np.ones(1, dtype=complex)
            for label in labels:
                reference = np.kron(single[label], reference)
            assert np.array_equal(product_state(labels).vector, reference)

    def test_product_state_rejects_unknown_label(self):
        with pytest.raises(QuantumError):
            product_state(["0", "x"])

    def test_product_state_rejects_empty(self):
        with pytest.raises(QuantumError):
            product_state([])


class TestAlgebra:
    def test_inner_product_orthogonal(self):
        assert product_state([ZERO]).inner_product(product_state([ONE])) == 0

    def test_inner_product_plus_zero(self):
        value = product_state([PLUS]).inner_product(product_state([ZERO]))
        assert value == pytest.approx(1 / math.sqrt(2))

    def test_fidelity_of_identical_states(self):
        state = product_state([PLUS, MINUS, ZERO])
        assert state.fidelity(state) == pytest.approx(1.0)

    def test_inner_product_dimension_mismatch(self):
        with pytest.raises(QuantumError):
            product_state([ZERO]).inner_product(product_state([ZERO, ZERO]))

    def test_tensor_orders_qubits(self):
        joint = basis_state(1, 1).tensor(basis_state(0, 1))
        # first factor occupies qubit 0 -> joint basis index 0b01.
        assert joint.vector[1] == pytest.approx(1.0)
        assert joint.num_qubits == 2

    def test_probability_of_qubit(self):
        state = product_state([PLUS, ZERO])
        assert state.probability_of_qubit(0, 0) == pytest.approx(0.5)
        assert state.probability_of_qubit(1, 0) == pytest.approx(1.0)

    def test_probability_of_qubit_out_of_range(self):
        with pytest.raises(QuantumError):
            product_state([ZERO]).probability_of_qubit(3, 0)

    def test_probabilities_sum_to_one(self):
        state = product_state([PLUS, MINUS, PLUS])
        assert state.probabilities().sum() == pytest.approx(1.0)

    def test_equals_and_global_phase(self):
        state = product_state([PLUS, ZERO])
        phased = Statevector(-state.vector, validate=False)
        assert not state.equals(phased)
        assert state.equals_up_to_global_phase(phased)

    def test_copy_is_independent(self):
        state = product_state([ZERO, ZERO])
        duplicate = state.copy()
        duplicate.vector[0] = 0.0
        assert state.vector[0] == pytest.approx(1.0)
