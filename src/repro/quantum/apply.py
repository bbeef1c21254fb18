"""Applying gates and circuits to state vectors.

A reversible circuit is a permutation of the computational basis, so its
action on a state vector is a permutation of amplitude indices — no matrix
is ever materialised.  Single-qubit X and Hadamard gates are provided as
well: X because the negation circuits ``C_nu`` are NOT layers, Hadamard
because the circuit-level swap-test validation needs it.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.exceptions import QuantumError
from repro.quantum.statevector import Statevector

__all__ = [
    "apply_circuit",
    "apply_permutation",
    "apply_x",
    "apply_hadamard",
    "apply_controlled_swap",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _permute_amplitudes(index: np.ndarray, state: Statevector) -> Statevector:
    """``new[index[x]] = old[x]`` for an ``np.intp`` basis-image array.

    The one place amplitudes are permuted; callers check widths first.
    """
    new = np.empty_like(state.vector)
    new[index] = state.vector
    return Statevector(new, state.num_qubits, validate=False)


def apply_permutation(permutation: Permutation, state: Statevector) -> Statevector:
    """Apply a basis permutation to a state: ``new[f(x)] = old[x]``."""
    if permutation.num_bits != state.num_qubits:
        raise QuantumError(
            f"permutation acts on {permutation.num_bits} qubits, state has "
            f"{state.num_qubits}"
        )
    index = np.fromiter(permutation, dtype=np.intp, count=permutation.size)
    return _permute_amplitudes(index, state)


def apply_circuit(circuit: ReversibleCircuit, state: Statevector) -> Statevector:
    """Run a reversible circuit on a state vector.

    The circuit's truth table (one bitsliced pass per 64 basis states)
    gives the image of every basis state, and the amplitudes are permuted
    accordingly.
    """
    if circuit.num_lines != state.num_qubits:
        raise QuantumError(
            f"circuit has {circuit.num_lines} lines, state has "
            f"{state.num_qubits} qubits"
        )
    index = np.asarray(circuit.truth_table(), dtype=np.intp)
    return _permute_amplitudes(index, state)


def apply_x(state: Statevector, qubit: int) -> Statevector:
    """Apply a Pauli-X (NOT) gate to one qubit."""
    if not 0 <= qubit < state.num_qubits:
        raise QuantumError(f"qubit {qubit} out of range")
    indices = np.arange(state.dimension)
    flipped = indices ^ (1 << qubit)
    new = state.vector[flipped]
    return Statevector(new.copy(), state.num_qubits, validate=False)


def apply_hadamard(state: Statevector, qubit: int) -> Statevector:
    """Apply a Hadamard gate to one qubit."""
    if not 0 <= qubit < state.num_qubits:
        raise QuantumError(f"qubit {qubit} out of range")
    old = state.vector
    new = np.empty_like(old)
    mask = 1 << qubit
    indices = np.arange(state.dimension)
    low = indices[(indices & mask) == 0]
    high = low | mask
    new[low] = _INV_SQRT2 * (old[low] + old[high])
    new[high] = _INV_SQRT2 * (old[low] - old[high])
    return Statevector(new, state.num_qubits, validate=False)


def apply_controlled_swap(
    state: Statevector, control: int, qubit_a: int, qubit_b: int
) -> Statevector:
    """Apply a Fredkin (controlled-swap) gate.

    Used by the explicit circuit-level swap-test construction; the analytic
    swap test never builds the joint state.
    """
    for qubit in (control, qubit_a, qubit_b):
        if not 0 <= qubit < state.num_qubits:
            raise QuantumError(f"qubit {qubit} out of range")
    if len({control, qubit_a, qubit_b}) != 3:
        raise QuantumError("controlled swap needs three distinct qubits")
    old = state.vector
    new = old.copy()
    indices = np.arange(state.dimension)
    control_on = (indices >> control) & 1 == 1
    bit_a = (indices >> qubit_a) & 1
    bit_b = (indices >> qubit_b) & 1
    to_swap = control_on & (bit_a != bit_b)
    swapped = indices ^ (1 << qubit_a) ^ (1 << qubit_b)
    new[swapped[to_swap]] = old[indices[to_swap]]
    return Statevector(new, state.num_qubits, validate=False)
