"""Quantum oracles: black boxes that accept superposition inputs.

The quantum algorithms of Sections 4.5/4.6 assume the reversible circuits
"can take quantum states as inputs".  :class:`QuantumCircuitOracle` models
exactly that: the only operation is "hand the oracle an ``n``-qubit state,
receive the transformed state", and every such execution is counted as one
quantum query.  The counting convention matches the classical oracles so the
classical and quantum columns of Table 1 are directly comparable.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.exceptions import OracleError, QueryBudgetExceededError
from repro.quantum.apply import _permute_amplitudes
from repro.quantum.statevector import Statevector

__all__ = ["QuantumCircuitOracle"]


class QuantumCircuitOracle:
    """Query-counted quantum access to a reversible circuit or permutation.

    Args:
        target: the hidden reversible circuit or permutation.
        max_queries: optional hard budget on quantum queries.
    """

    def __init__(
        self,
        target: ReversibleCircuit | Permutation,
        max_queries: int | None = None,
    ) -> None:
        if isinstance(target, ReversibleCircuit):
            self._num_qubits = target.num_lines
            self._permutation = Permutation.from_circuit(target)
        elif isinstance(target, Permutation):
            self._num_qubits = target.num_bits
            self._permutation = target
        else:
            raise OracleError(
                f"cannot build a quantum oracle from {type(target).__name__}"
            )
        # Every query permutes by the same table, so convert it once.
        self._index = np.fromiter(
            self._permutation, dtype=np.intp, count=self._permutation.size
        )
        self._max_queries = max_queries
        self._queries = 0

    @property
    def num_qubits(self) -> int:
        """Number of qubits / circuit lines ``n``."""
        return self._num_qubits

    @property
    def query_count(self) -> int:
        """Number of quantum queries made so far."""
        return self._queries

    @property
    def permutation(self) -> Permutation:
        """The hidden permutation (white-box escape hatch, like
        :attr:`repro.oracles.oracle.CircuitOracle.circuit`; used by
        verification and by the service layer's fingerprinting, never by
        matchers)."""
        return self._permutation

    def reset_counts(self) -> None:
        """Reset the query counter."""
        self._queries = 0

    def query_state(self, state: Statevector) -> Statevector:
        """Run the hidden circuit on ``state`` (one quantum query)."""
        if state.num_qubits != self._num_qubits:
            raise OracleError(
                f"state has {state.num_qubits} qubits, oracle expects "
                f"{self._num_qubits}"
            )
        if self._max_queries is not None and self._queries >= self._max_queries:
            raise QueryBudgetExceededError(
                f"quantum query budget of {self._max_queries} exhausted"
            )
        self._queries += 1
        return _permute_amplitudes(self._index, state)

    def query_basis(self, value: int) -> int:
        """Classical convenience query (counted like any other query).

        Quantum oracles can of course be queried on computational basis
        states; the matchers use this for the cheap classical preprocessing
        steps (e.g. the all-zero probe of the P-N matcher).
        """
        if self._max_queries is not None and self._queries >= self._max_queries:
            raise QueryBudgetExceededError(
                f"quantum query budget of {self._max_queries} exhausted"
            )
        self._queries += 1
        return self._permutation(value)
