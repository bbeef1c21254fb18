"""The swap test (Fig. 3).

Given two ``n``-qubit states ``|psi1>`` and ``|psi2>``, the swap test
prepares an ancilla in ``|0>``, applies H, a controlled swap of the two
registers, H again, and measures the ancilla.  The outcome is

* ``0`` with probability ``1/2 + |<psi1|psi2>|**2 / 2``,
* ``1`` with probability ``1/2 - |<psi1|psi2>|**2 / 2``.

Identical states therefore always measure 0, orthogonal states measure 1
with probability exactly 1/2 — the two regimes Algorithm 1 and the NP-I
matcher distinguish.

Two implementations are provided:

* the default *analytic* path computes the overlap directly and samples the
  Born rule, which is exact and fast;
* the *circuit* path builds the full ``2n + 1``-qubit joint state and applies
  the Fig. 3 gates one by one, which is what a real device would do.  The
  test suite checks both paths produce identical outcome probabilities.
"""

from __future__ import annotations

import random as _random

from repro.exceptions import QuantumError
from repro.quantum.apply import apply_controlled_swap, apply_hadamard
from repro.quantum.statevector import Statevector, basis_state

__all__ = ["swap_test_probability", "swap_test_probability_via_circuit", "SwapTest"]


def swap_test_probability(state_a: Statevector, state_b: Statevector) -> float:
    """Probability of measuring 0 on the swap-test ancilla (analytic)."""
    if state_a.num_qubits != state_b.num_qubits:
        raise QuantumError("swap test requires states of equal qubit count")
    overlap = abs(state_a.inner_product(state_b)) ** 2
    return 0.5 + 0.5 * overlap


def swap_test_probability_via_circuit(
    state_a: Statevector, state_b: Statevector
) -> float:
    """Probability of measuring 0, computed by simulating the Fig. 3 circuit.

    The joint register layout is ``[psi1 (qubits 0..n-1)] [psi2 (n..2n-1)]
    [ancilla (2n)]``.  Exponential in ``2n``; used for validation only.
    """
    if state_a.num_qubits != state_b.num_qubits:
        raise QuantumError("swap test requires states of equal qubit count")
    num_qubits = state_a.num_qubits
    ancilla = 2 * num_qubits
    joint = state_a.tensor(state_b).tensor(basis_state(0, 1))
    joint = apply_hadamard(joint, ancilla)
    for qubit in range(num_qubits):
        joint = apply_controlled_swap(joint, ancilla, qubit, num_qubits + qubit)
    joint = apply_hadamard(joint, ancilla)
    return joint.probability_of_qubit(ancilla, 0)


class SwapTest:
    """A repeatable, seedable swap-test sampler.

    Args:
        rng: a :class:`random.Random`, an integer seed, or ``None``.
        use_circuit: compute outcome probabilities by simulating the explicit
            Fig. 3 circuit instead of analytically (slower; for validation).

    The sampler also counts how many swap tests were performed, which the
    matching algorithms report alongside oracle queries.
    """

    def __init__(
        self,
        rng: _random.Random | int | None = None,
        use_circuit: bool = False,
    ) -> None:
        if rng is None:
            # The one intended source of fresh randomness, for library
            # callers that pass no seed.  Every CLI entry point resolves
            # (and prints) a run seed first, so runs stay replayable.
            rng = _random.Random()  # repro: allow[det-unseeded-random]
        elif isinstance(rng, int):
            rng = _random.Random(rng)
        self._rng = rng
        self._use_circuit = use_circuit
        self._runs = 0

    @property
    def runs(self) -> int:
        """Number of swap tests sampled so far."""
        return self._runs

    def reset(self) -> None:
        """Reset the run counter."""
        self._runs = 0

    def probability_of_zero(
        self, state_a: Statevector, state_b: Statevector
    ) -> float:
        """The probability the ancilla measures 0 for these two states."""
        if self._use_circuit:
            return swap_test_probability_via_circuit(state_a, state_b)
        return swap_test_probability(state_a, state_b)

    def sample(self, state_a: Statevector, state_b: Statevector) -> int:
        """Run one swap test and return the ancilla measurement (0 or 1)."""
        probability_zero = self.probability_of_zero(state_a, state_b)
        self._runs += 1
        return 0 if self._rng.random() < probability_zero else 1

    def sample_many(
        self, state_a: Statevector, state_b: Statevector, repetitions: int
    ) -> list[int]:
        """Run ``repetitions`` independent swap tests."""
        return [self.sample(state_a, state_b) for _ in range(repetitions)]

    def any_one(
        self, state_a: Statevector, state_b: Statevector, repetitions: int
    ) -> bool:
        """Whether any of ``repetitions`` swap tests measures 1.

        This is the exact primitive Algorithm 1 uses: a single observed 1
        certifies the states are not identical; ``repetitions`` consecutive
        zeros give confidence ``1 - 2**-repetitions`` that they are.
        """
        for _ in range(repetitions):
            if self.sample(state_a, state_b) == 1:
                return True
        return False
